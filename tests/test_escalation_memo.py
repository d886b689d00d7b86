"""Tests for the cascade's memory of escalated answers.

``ClusterDispatcher`` keeps the merged careful-tier answer of every question
it escalates (``escalated_cache``), so a repeated low-confidence question
costs one scatter, not two.  These tests pin what that memory may and may not
do -- by counts and equality only: stub targets that count their calls where
the dispatcher alone is under test, real fleets (inproc wave, subprocess
workers) where the wiring is.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterDispatcher,
    ClusterRebalancer,
    ClusterRoutingService,
)
from repro.core import SchemaRoute
from repro.obs import Tracer
from repro.serving.cache import RouteCache
from test_cluster import QUESTIONS, master_router, sender  # noqa: F401  (module fixture)


def _hex_signature(route_lists):
    return [[(route.database, route.tables, route.score.hex()) for route in routes]
            for routes in route_lists]


# -- the dispatcher alone, over stub tiers ---------------------------------------
class _Tier:
    """A stub shard target that records the questions of every call."""

    def __init__(self, routes, before_answer=None) -> None:
        self.routes = routes
        self.before_answer = before_answer
        self.calls: list[list[str]] = []

    def __call__(self, questions, max_candidates, trace=None):
        self.calls.append(list(questions))
        if self.before_answer is not None:
            self.before_answer()
        return [list(self.routes) for _ in questions]


#: A near-tie: merged top-1 weight ~0.52, needy under any threshold above it.
NEAR_TIE = [SchemaRoute("alpha", ("t",), -1.0), SchemaRoute("beta", ("t",), -1.1)]
CAREFUL = [SchemaRoute("beta", ("t", "u"), -0.5), SchemaRoute("alpha", ("t",), -2.5)]


def _cascade(memo=None, fast=None, careful=None):
    fast = fast or _Tier(NEAR_TIE)
    careful = careful or _Tier(CAREFUL)
    dispatcher = ClusterDispatcher([sender(fast)], careful_targets=[sender(careful)],
                                   escalation_threshold=0.9, escalated_cache=memo)
    return dispatcher, fast, careful


class TestMemoOnStubs:
    def test_a_repeated_needy_question_costs_no_careful_call(self):
        dispatcher, fast, careful = _cascade(RouteCache())
        with dispatcher:
            first = dispatcher.route_batch(["q1", "q2"])
            again = dispatcher.route_batch(["q2", "q1"])
            assert careful.calls == [["q1", "q2"]]
            assert len(fast.calls) == 2  # the fast tier still sees every wave
            assert _hex_signature(again) == _hex_signature(first[::-1])
            assert first[0][0].database == "beta"  # the careful answer
            assert (dispatcher.escalations, dispatcher.escalations_remembered) == (4, 2)
            # A wave of known and new questions scatters only the new ones:
            # verdicts == remembered + questions sent to the careful tier.
            dispatcher.route_batch(["q1", "new", "q2"])
            assert careful.calls == [["q1", "q2"], ["new"]]
            assert (dispatcher.escalations, dispatcher.escalations_remembered) == (7, 4)

    def test_repeats_in_a_wave_are_verdicts_but_one_put(self, monkeypatch):
        """A needy question asked three times in a wave is three verdicts
        (and three remembered ones once memoised), one careful scatter and
        one ``memo.put``."""
        memo = RouteCache()
        puts: list[str] = []
        put = memo.put

        def spy(question, *args, **kwargs):
            puts.append(question)
            return put(question, *args, **kwargs)

        monkeypatch.setattr(memo, "put", spy)
        dispatcher, fast, careful = _cascade(memo)
        tracer = Tracer()
        with dispatcher:
            first = dispatcher.route_batch(["a", "b", "a", "a"])
            assert fast.calls == careful.calls == [["a", "b"]]
            assert puts == ["a", "b"]
            assert (dispatcher.escalations, dispatcher.escalations_remembered) == (4, 0)
            trace = tracer.start_trace("request_wave", questions=3)
            again = dispatcher.route_batch(["a", "a", "a"], trace=trace)
            trace.finish()
            assert careful.calls == [["a", "b"]] and puts == ["a", "b"]
            assert (dispatcher.escalations, dispatcher.escalations_remembered) == (7, 3)
            assert trace.root.attributes == {"questions": 3, "distinct_questions": 1}
            (merge,) = trace.find_spans("merge")
            assert merge.attributes["escalations_remembered"] == 3
            assert _hex_signature(again) == _hex_signature(first[:1]) * 3
            assert len({id(routes) for routes in first + again}) == 7
        forgetful, _, careful = _cascade(memo=None)
        with forgetful:
            forgetful.route_batch(["a", "a", "a"])
            assert careful.calls == [["a"]]
            assert (forgetful.escalations, forgetful.escalations_remembered) == (3, 0)

    def test_answers_handed_out_do_not_alias_the_memory(self):
        dispatcher, _, careful = _cascade(RouteCache())
        with dispatcher:
            first = dispatcher.route_batch(["q"])
            expected = _hex_signature(first)
            first[0].clear()  # the scattered answer ...
            second = dispatcher.route_batch(["q"])
            assert _hex_signature(second) == expected
            second[0].clear()  # ... and a remembered one
            assert _hex_signature(dispatcher.route_batch(["q"])) == expected
            assert len(careful.calls) == 1

    def test_without_a_memo_every_escalation_scatters(self):
        dispatcher, _, careful = _cascade(memo=None)
        with dispatcher:
            first = dispatcher.route_batch(["q"])
            assert _hex_signature(dispatcher.route_batch(["q"])) == _hex_signature(first)
            assert careful.calls == [["q"], ["q"]]
            assert (dispatcher.escalations, dispatcher.escalations_remembered) == (2, 0)

    def test_ttl_expiry_under_an_injected_clock(self):
        now = [0.0]
        memo = RouteCache(ttl_seconds=10.0, clock=lambda: now[0])
        dispatcher, _, careful = _cascade(memo)
        with dispatcher:
            dispatcher.route_batch(["q"])
            now[0] = 9.0
            dispatcher.route_batch(["q"])
            assert len(careful.calls) == 1
            now[0] = 10.0
            dispatcher.route_batch(["q"])
            assert len(careful.calls) == 2
            assert memo.expirations == 1
            assert dispatcher.escalations_remembered == 1

    def test_lru_bound(self):
        memo = RouteCache(max_size=2)
        dispatcher, _, careful = _cascade(memo)
        with dispatcher:
            for question in ("q1", "q2", "q3"):
                dispatcher.route_batch([question])
            assert len(memo) == 2 and memo.evictions == 1
            dispatcher.route_batch(["q3", "q2"])  # both still remembered
            assert len(careful.calls) == 3
            dispatcher.route_batch(["q1"])  # the evicted one scatters again
            assert careful.calls[-1] == ["q1"] and len(careful.calls) == 4

    def test_a_partial_gather_is_returned_but_not_remembered(self):
        memo = RouteCache()
        healthy = _Tier(CAREFUL)
        down = [True]

        def flaky(questions, max_candidates):
            if down[0]:
                raise RuntimeError("shard down")
            return [[SchemaRoute("gamma", ("v",), -0.1)] for _ in questions]

        with ClusterDispatcher([sender(_Tier(NEAR_TIE)), sender(_Tier(NEAR_TIE[:1]))],
                               careful_targets=[sender(healthy), sender(flaky)],
                               escalation_threshold=0.9, allow_partial=True,
                               escalated_cache=memo) as dispatcher:
            partial = dispatcher.route_batch(["q"])
            assert [route.database for route in partial[0]] == ["beta", "alpha"]
            assert dispatcher.partial_gathers == 1
            assert len(memo) == 0
            down[0] = False
            whole = dispatcher.route_batch(["q"])  # scatters again, now whole
            assert whole[0][0].database == "gamma"
            assert len(healthy.calls) == 2 and len(memo) == 1
            assert _hex_signature(dispatcher.route_batch(["q"])) == _hex_signature(whole)
            assert len(healthy.calls) == 2
            assert dispatcher.escalations_remembered == 1

    @pytest.mark.parametrize("tier", ["fast", "careful"])
    def test_an_answer_computed_across_a_catalog_change_is_dropped(self, tier):
        """The catalog moves while a wave is in flight: whichever tier was
        mid-scatter, the wave's careful answer mixes old and new shards and
        must not be stamped with the new version."""
        memo = RouteCache()
        bumps = [1]

        def change_catalog_once():
            if bumps[0]:
                bumps[0] -= 1
                memo.bump_version()

        stubs = {"fast": _Tier(NEAR_TIE), "careful": _Tier(CAREFUL)}
        stubs[tier].before_answer = change_catalog_once
        dispatcher, _, careful = _cascade(memo, **stubs)
        with dispatcher:
            first = dispatcher.route_batch(["q"])
            assert len(memo) == 0
            second = dispatcher.route_batch(["q"])  # a quiet wave is remembered
            assert len(careful.calls) == 2 and len(memo) == 1
            dispatcher.route_batch(["q"])
            assert len(careful.calls) == 2
            assert _hex_signature(first) == _hex_signature(second)

    def test_max_candidates_variants_do_not_alias(self):
        dispatcher, _, careful = _cascade(RouteCache())
        with dispatcher:
            one = dispatcher.route_batch(["q"], max_candidates=1)
            two = dispatcher.route_batch(["q"], max_candidates=2)
            assert [len(routes) for routes in one + two] == [1, 2]
            assert len(careful.calls) == 2
            assert _hex_signature(dispatcher.route_batch(["q"], max_candidates=1)) \
                == _hex_signature(one)
            assert _hex_signature(dispatcher.route_batch(["q"], max_candidates=2)) \
                == _hex_signature(two)
            assert len(careful.calls) == 2

    def test_counters_conserve_under_concurrent_waves_and_catalog_changes(self):
        """More callers than cores, a catalog that keeps changing: every
        verdict is either remembered or sent to the careful tier, and no
        caller ever sees anything but the careful answer."""
        memo = RouteCache()
        dispatcher, _, careful = _cascade(memo)
        questions = [f"q{index}" for index in range(6)]
        expected = None
        wrong: list = []

        def caller(offset: int) -> None:
            for wave in range(150):
                if offset == 0 and wave % 10 == 0:
                    memo.bump_version()
                batch = [questions[(offset + wave + step) % 6] for step in range(3)]
                for routes in _hex_signature(dispatcher.route_batch(batch)):
                    if routes != expected:
                        wrong.append(routes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with dispatcher:
                expected = _hex_signature(dispatcher.route_batch(["q0"]))[0]
                threads = [threading.Thread(target=caller, args=(offset,))
                           for offset in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert dispatcher.escalations == 1 + 8 * 150 * 3
        assert dispatcher.escalations == dispatcher.escalations_remembered \
            + sum(len(call) for call in careful.calls)
        assert dispatcher.escalations_remembered == memo.hits

    def test_span_tree_says_what_was_remembered(self):
        tracer = Tracer()
        dispatcher, _, _ = _cascade(RouteCache())
        with dispatcher:
            scattered = tracer.start_trace("request_wave")
            dispatcher.route_batch(["q1", "q2"], trace=scattered)
            scattered.finish()
            (escalation,) = scattered.find_spans("escalation")
            assert escalation.attributes["questions"] == 2
            assert all("escalations_remembered" not in span.attributes
                       for span in scattered.find_spans("merge"))
            mixed = tracer.start_trace("request_wave")
            dispatcher.route_batch(["q1", "new"], trace=mixed)
            mixed.finish()
            (escalation,) = mixed.find_spans("escalation")
            assert escalation.attributes["questions"] == 1
            fast_merge = mixed.find_spans("merge")[0]
            assert fast_merge.attributes["escalations_remembered"] == 1
            remembered = tracer.start_trace("request_wave")
            dispatcher.route_batch(["q2", "q1"], trace=remembered)
            remembered.finish()
            assert remembered.find_spans("escalation") == []  # nothing scattered
            (merge,) = remembered.find_spans("merge")
            assert merge.attributes["escalations_remembered"] == 2
            assert remembered.open_span_count() == 0


# -- real fleets ----------------------------------------------------------------
#: Threshold 1.0 makes every question needy: a merged top-1 weight is < 1
#: whenever a second candidate exists, and both shards always offer one.
FLEETS = {
    "inproc_wave": {},
    "subprocess": {"worker_backend": "subprocess"},
}


def _fleet(master_router, **overrides) -> ClusterRoutingService:
    return ClusterRoutingService.from_router(master_router, ClusterConfig(
        num_shards=2, strategy="round_robin", escalation_threshold=1.0,
        **overrides))


def _careful_requests(cluster) -> int:
    """Questions the careful tier's services were asked, fleet-wide."""
    return sum((worker.get("careful") or {}).get("counters", {}).get("requests", 0)
               for shard in cluster.stats()["shards"] for worker in shard["workers"])


def _verdicts(cluster) -> tuple[int, int]:
    return (cluster.dispatcher.escalations, cluster.dispatcher.escalations_remembered)


class TestMemoOnFleets:
    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    def test_a_repeated_wave_is_remembered_bit_for_bit(self, master_router, fleet):
        count = len(QUESTIONS)
        with _fleet(master_router, **FLEETS[fleet]) as cluster, \
                _fleet(master_router, enable_cache=False, **FLEETS[fleet]) as forgetful:
            assert cluster.stats()["wave"]["enabled"] == (fleet == "inproc_wave")
            first = cluster.submit_many(QUESTIONS)
            assert _verdicts(cluster) == (count, 0)
            careful_requests = _careful_requests(cluster)
            assert careful_requests == count * cluster.num_shards
            proxies = [replica_set.workers[0] for replica_set in cluster.shards]
            frames = [getattr(worker, "requests_sent", None) for worker in proxies]
            again = cluster.submit_many(QUESTIONS)
            if fleet == "subprocess":  # one frame per worker per wave, not two
                assert [worker.requests_sent for worker in proxies] == \
                    [sent + 1 for sent in frames]
            assert _hex_signature(again) == _hex_signature(first)
            assert _verdicts(cluster) == (2 * count, count)
            assert _careful_requests(cluster) == careful_requests
            stats = cluster.stats()
            assert stats["dispatcher"]["escalations_remembered"] == count
            assert stats["escalated_cache"]["hits"] == count
            assert stats["escalated_cache"]["size"] == count
            # The memo never changes an answer: a fleet without one agrees.
            assert forgetful.dispatcher.escalated_cache is None
            assert "escalated_cache" not in forgetful.stats()
            assert _hex_signature(forgetful.submit_many(QUESTIONS)) == \
                _hex_signature(first)
            assert _hex_signature(forgetful.submit_many(QUESTIONS)) == \
                _hex_signature(first)
            assert _verdicts(forgetful) == (2 * count, 0)
            assert _careful_requests(forgetful) == 2 * count * forgetful.num_shards

    def test_no_careful_tier_means_no_memo(self, master_router):
        config = ClusterConfig(num_shards=2, escalation_threshold=None)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            assert cluster.dispatcher.escalated_cache is None
            cluster.submit_many(QUESTIONS)
            assert "escalated_cache" not in cluster.stats()

    def test_cluster_cache_settings_size_and_age_the_memo(self, master_router):
        with _fleet(master_router, cache_size=3, cache_ttl_seconds=60.0) as cluster:
            memo = cluster.dispatcher.escalated_cache
            assert (memo.max_size, memo.ttl_seconds) == (3, 60.0)
            cluster.submit_many(QUESTIONS)
            assert len(memo) == 3

    @pytest.mark.parametrize("database", [None, "world_atlas"])
    def test_a_catalog_change_forgets_every_answer(self, master_router, database):
        count = len(QUESTIONS)
        with _fleet(master_router) as cluster:
            first = cluster.submit_many(QUESTIONS)
            cluster.notify_catalog_changed(database)
            careful_requests = _careful_requests(cluster)
            after = cluster.submit_many(QUESTIONS)
            assert _hex_signature(after) == _hex_signature(first)
            assert _verdicts(cluster) == (2 * count, 0)
            assert _careful_requests(cluster) == \
                careful_requests + count * cluster.num_shards
            assert cluster.stats()["escalated_cache"]["invalidations"] == count
            cluster.submit_many(QUESTIONS)  # and remembers the new answers
            assert _verdicts(cluster) == (3 * count, count)

    def test_an_unknown_database_moves_nothing(self, master_router):
        count = len(QUESTIONS)
        with _fleet(master_router) as cluster:
            cluster.submit_many(QUESTIONS)
            shard_caches = [replica_set.workers[0].service.cache
                            for replica_set in cluster.shards]
            with pytest.raises(KeyError):
                cluster.notify_catalog_changed("typo")
            assert cluster.catalog_version == 0
            assert cluster.stats()["catalog_version"] == 0
            assert [cache.catalog_version for cache in shard_caches] == [0, 0]
            cluster.submit_many(QUESTIONS)
            assert _verdicts(cluster) == (2 * count, count)  # still remembered

    def test_a_rebalance_forgets_every_answer(self, master_router):
        count = len(QUESTIONS)
        with _fleet(master_router) as cluster:
            cluster.submit_many(QUESTIONS)
            ClusterRebalancer(cluster).move_database("world_atlas", 0)
            moved = cluster.submit_many(QUESTIONS)
            assert _verdicts(cluster) == (2 * count, 0)
            # What a fleet that never knew the old assignment answers.
            fresh = ClusterRoutingService.from_router(
                master_router, cluster.config, assignment=cluster.assignment)
            with fresh:
                assert _hex_signature(moved) == \
                    _hex_signature(fresh.submit_many(QUESTIONS))
            assert _hex_signature(cluster.submit_many(QUESTIONS)) == \
                _hex_signature(moved)
            assert _verdicts(cluster) == (3 * count, count)
