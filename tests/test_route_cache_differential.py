"""``RouteCache`` against a plain reference model, step by step.

The model is an ``OrderedDict`` of ``key -> (value, version, stamped_at)``
plus a catalog version and a TTL read on the same injected clock.  Random
sequences of ``put`` (with and without ``version=``), ``get``, ``get_many``
(repeats and variants), ``bump_version`` and clock advances past the TTL
drive both; after every step the returned values, the ``keys()`` order and
all five counters must agree.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import example, given, settings, strategies as st

from repro.serving.cache import RouteCache, normalize_question

TTL = 10.0
MAX_SIZE = 4


class ReferenceCache:
    """What a route cache means, with nothing done for speed."""

    def __init__(self, clock) -> None:
        self.clock, self.version, self.entries = clock, 0, OrderedDict()
        self.counters = dict.fromkeys(
            ("hits", "misses", "evictions", "expirations", "invalidations"), 0)

    @staticmethod
    def key(question, variant):
        key = normalize_question(question)
        return key if variant is None else f"{key}\x00{variant}"

    def get(self, question, variant=None):
        key = self.key(question, variant)
        if key in self.entries:
            value, version, stamped_at = self.entries[key]
            stale = ("invalidations" if version != self.version else
                     "expirations" if self.clock() >= stamped_at + TTL else None)
            if stale is None:
                self.entries.move_to_end(key)
                self.counters["hits"] += 1
                return value
            del self.entries[key]
            self.counters[stale] += 1
        self.counters["misses"] += 1
        return None

    def put(self, question, value, variant=None, version=None):
        if version is not None and version != self.version:
            return
        key = self.key(question, variant)
        self.entries[key] = (value, self.version, self.clock())
        self.entries.move_to_end(key)
        while len(self.entries) > MAX_SIZE:
            self.entries.popitem(last=False)
            self.counters["evictions"] += 1


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


QUESTIONS = ["How many singers?", "how many SINGERS", "List all cities.",
             "Which stadium is largest?", "Count the concerts"]
question = st.sampled_from(QUESTIONS)
variant = st.sampled_from([None, 5])
steps = st.lists(st.one_of(
    st.tuples(st.just("put"), question, st.integers(0, 9), variant,
              st.sampled_from([None, "current", "old"])),
    st.tuples(st.just("get"), question, variant),
    st.tuples(st.just("get_many"), st.lists(question, max_size=8), variant),
    st.tuples(st.just("bump"),),
    st.tuples(st.just("advance"), st.sampled_from([1.0, TTL, TTL + 0.5])),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(steps)
# A probe refreshes LRU order; a stale entry is a miss inside a wave too.
@example([("put", "List all cities.", 1, None, None), ("put", "Count the concerts", 2, None, None),
          ("get", "list all CITIES", None), ("put", "How many singers?", 3, None, None)])
@example([("put", "List all cities.", 1, 5, None), ("advance", TTL),
          ("get_many", ["List all cities.", "List all cities."], 5)])
@example([("put", "List all cities.", 1, 5, "current"), ("bump",),
          ("get_many", ["List all cities.", "List all cities."], 5)])
def test_route_cache_matches_the_reference_model(steps):
    clock = Clock()
    cache = RouteCache(max_size=MAX_SIZE, ttl_seconds=TTL, clock=clock)
    model = ReferenceCache(clock)
    for step in steps:
        kind = step[0]
        if kind == "put":
            _, asked, value, shape, stamp = step
            version = {None: None, "current": model.version,
                       "old": model.version - 1}[stamp]
            cache.put(asked, value, variant=shape, version=version)
            model.put(asked, value, variant=shape, version=version)
        elif kind == "get":
            assert cache.get(step[1], step[2]) == model.get(step[1], step[2])
        elif kind == "get_many":
            expected = [model.get(asked, step[2]) for asked in step[1]]
            assert cache.get_many(step[1], step[2]) == expected
        elif kind == "bump":
            model.version += 1
            assert cache.bump_version() == model.version
        else:
            clock.now += step[1]
        assert cache.keys() == list(model.entries)
        stats = cache.stats()
        assert {name: stats[name] for name in model.counters} == model.counters
        assert stats["catalog_version"] == model.version
