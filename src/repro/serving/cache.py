"""Thread-safe LRU route cache with catalog-version invalidation.

Routing is deterministic given a trained router, so identical questions can be
served from memory.  Keys are the *normalized* question text (the router's own
word tokenization), which folds case, punctuation, and whitespace variants of
the same question onto one entry.

An entry's validity is the catalog's and nothing else: every entry records
the cache's catalog version at insert time, and :meth:`RouteCache.bump_version`
(called when the underlying catalog changes) makes all older entries stale in
O(1).  An answer never ages -- the router that produced it is deterministic --
so the cache keeps no clock.

An entry is a plain ``(value, version)`` tuple, and a wave is one pass under
the lock: the variant suffix is built once, and hits and misses are added to
the counters once per wave, so a cache-hot wave costs a dict probe and an LRU
touch per question.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Sequence

from repro.utils.text import tokenize_text


@lru_cache(maxsize=8192)
def normalize_question(question: str) -> str:
    """Canonical cache key: the question's word tokens joined by single spaces.

    Memoized on the exact input text: served traffic repeats question strings
    (that is why the route cache exists), and re-tokenizing on every lookup
    costs more than the cache probe itself.
    """
    return " ".join(tokenize_text(question))


class RouteCache:
    """LRU mapping ``normalized question -> routes`` with full hit accounting."""

    def __init__(self, max_size: int = 2048) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        #: key -> (value, catalog version at insert).
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- core operations -----------------------------------------------------
    @staticmethod
    def _suffix(variant: object) -> str:
        """Cache keys are the normalized question plus this suffix, which
        qualifies it by an optional request variant (e.g. ``max_candidates``)
        so differently-shaped answers to the same question never alias."""
        return "" if variant is None else f"\x00{variant}"

    def get(self, question: str, variant: object = None) -> object | None:
        """Cached routes for ``question``, or ``None`` on miss/stale entry."""
        return self.get_many([question], variant)[0]

    def get_many(self, questions: Sequence[str],
                 variant: object = None) -> list[object | None]:
        """Cached routes per question (``None`` on miss/stale entry), in one
        pass under one lock acquisition for a whole wave.

        On a cache-hot wave a per-question lock handshake, key call or counter
        bump would cost more than the lookups themselves, which matters to
        the front, whose hot waves are answered here and nowhere else.
        """
        suffix = self._suffix(variant)
        keys = [normalize_question(question) + suffix for question in questions]
        entries = self._entries
        values: list[object | None] = []
        hits = 0
        with self._lock:
            version = self._version
            for key in keys:
                entry = entries.get(key)
                if entry is not None:
                    if entry[1] == version:
                        entries.move_to_end(key)
                        hits += 1
                        values.append(entry[0])
                        continue
                    del entries[key]
                    self.invalidations += 1
                values.append(None)
            self.hits += hits
            self.misses += len(keys) - hits
        return values

    def put(self, question: str, routes: object, variant: object = None,
            version: int | None = None) -> None:
        """Remember ``routes``.  With ``version`` (a ``catalog_version`` the
        caller read before computing them) the entry is dropped instead when
        the cache has since been bumped: an answer computed under an old
        catalog must not be stamped with the new one."""
        key = normalize_question(question) + self._suffix(variant)
        with self._lock:
            if version is not None and version != self._version:
                return
            self._entries[key] = (routes, self._version)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1

    # -- invalidation --------------------------------------------------------
    @property
    def catalog_version(self) -> int:
        return self._version

    def bump_version(self) -> int:
        """Invalidate every current entry (the catalog changed); O(1)."""
        with self._lock:
            self._version += 1
            return self._version

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Current keys, least- to most-recently used (for tests/debugging)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """A consistent snapshot: every counter, the size and the version are
        read under one lock acquisition, so ``hit_rate`` always agrees with
        the ``hits`` and ``misses`` beside it."""
        with self._lock:
            size, hits, misses = len(self._entries), self.hits, self.misses
            evictions, invalidations = self.evictions, self.invalidations
            version = self._version
        return {
            "size": size,
            "max_size": self.max_size,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
            "evictions": evictions,
            "invalidations": invalidations,
            "catalog_version": version,
        }
