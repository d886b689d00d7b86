"""Thread-safe LRU route cache with TTL and catalog-version invalidation.

Routing is deterministic given a trained router, so identical questions can be
served from memory.  Keys are the *normalized* question text (the router's own
word tokenization), which folds case, punctuation, and whitespace variants of
the same question onto one entry.

Invalidation happens two ways:

* **TTL** -- entries older than ``ttl_seconds`` are dropped on access;
* **catalog version** -- every entry records the cache's catalog version at
  insert time; :meth:`RouteCache.bump_version` (called when the underlying
  catalog changes) makes all older entries stale in O(1).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from repro.utils.text import tokenize_text


@dataclass
class _Entry:
    value: object
    expires_at: float | None
    version: int


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

    def __init__(self, max_size: int = 2048, ttl_seconds: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None to disable)")
        self.max_size = max_size
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    # -- core operations -----------------------------------------------------
    @staticmethod
    def _key(question: str, variant: object = None) -> str:
        """Cache key: the normalized question, qualified by an optional request
        variant (e.g. ``max_candidates``) so differently-shaped answers to the
        same question never alias."""
        key = normalize_question(question)
        return key if variant is None else f"{key}\x00{variant}"

    def get(self, question: str, variant: object = None) -> object | None:
        """Cached routes for ``question``, or ``None`` on miss/stale entry."""
        return self.get_many([question], variant)[0]

    def get_many(self, questions: Sequence[str],
                 variant: object = None) -> list[object | None]:
        """Cached routes per question (``None`` on miss/stale entry), under
        one lock acquisition for a whole wave.

        On a cache-hot wave a per-question lock handshake would cost more
        than the lookups themselves, which matters to shard workers whose
        every scatter frame begins with a wave of cache probes.
        """
        keys = [self._key(question, variant) for question in questions]
        now = self._clock() if self.ttl_seconds is not None else None
        values: list[object | None] = []
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                    values.append(None)
                elif entry.version != self._version:
                    del self._entries[key]
                    self.invalidations += 1
                    self.misses += 1
                    values.append(None)
                elif entry.expires_at is not None and now is not None \
                        and now >= entry.expires_at:
                    del self._entries[key]
                    self.expirations += 1
                    self.misses += 1
                    values.append(None)
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    values.append(entry.value)
        return values

    def put(self, question: str, routes: object, variant: object = None,
            version: int | None = None) -> None:
        """Remember ``routes``.  With ``version`` (a ``catalog_version`` the
        caller read before computing them) the entry is dropped instead when
        the cache has since been bumped: an answer computed under an old
        catalog must not be stamped with the new one."""
        key = self._key(question, variant)
        expires_at = None
        if self.ttl_seconds is not None:
            expires_at = self._clock() + self.ttl_seconds
        with self._lock:
            if version is not None and version != self._version:
                return
            self._entries[key] = _Entry(value=routes, expires_at=expires_at,
                                        version=self._version)
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "max_size": self.max_size,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "catalog_version": self._version,
        }
