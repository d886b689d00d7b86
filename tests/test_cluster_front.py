"""Tests for the cluster's front: a ``RoutingService`` over the dispatcher.

A ``ClusterRoutingService`` serves through ``cluster.front``, the monolith's
request path (consult, group commit, commit) whose decoder is
``ClusterDispatcher.route_batch``.  Its route cache holds merged answers, so
a repeated question -- a needy one included -- costs no scatter of either
tier, and its consult is the one within-wave collapse.  These tests pin what
that front may and may not do, by counts and equality only: stub tiers that
count their calls behind a front where the dispatcher alone is under test,
real fleets (inproc wave, subprocess workers) where the wiring is.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterDispatcher,
    ClusterError,
    ClusterRebalancer,
    ClusterRoutingService,
)
from repro.core import SchemaRoute
from repro.serving import RoutingService, ServingConfig
from test_cluster import QUESTIONS, master_router, sender  # noqa: F401  (module fixture)
from test_serving import _contended


def _hex_signature(route_lists):
    return [[(route.database, route.tables, route.score.hex()) for route in routes]
            for routes in route_lists]


# -- a front over the dispatcher alone, over stub tiers -------------------------
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


def _cascade(fast=None, careful=None, **serving):
    """A front over a one-shard cascade whose every question is needy."""
    fast = fast or _Tier(NEAR_TIE)
    careful = careful or _Tier(CAREFUL)
    dispatcher = ClusterDispatcher([sender(fast)], careful_targets=[sender(careful)],
                                   escalation_threshold=0.9)
    return RoutingService(dispatcher, ServingConfig(**serving)), fast, careful


class TestFrontOnStubs:
    def test_a_repeated_needy_question_costs_no_scatter_of_either_tier(self):
        front, fast, careful = _cascade()
        with front:
            first = front.submit_many(["q1", "q2"])
            again = front.submit_many(["q2", "q1"])
            assert fast.calls == careful.calls == [["q1", "q2"]]
            assert _hex_signature(again) == _hex_signature(first[::-1])
            assert first[0][0].database == "beta"  # the careful answer
            # A wave of known and new questions scatters only the new one.
            front.submit_many(["q1", "new", "q2"])
            assert fast.calls[-1] == careful.calls[-1] == ["new"]
            assert (front.router.questions, front.router.escalations) == (3, 3)
            assert front.metrics.counters() == {"requests": 7, "cache_hits": 4,
                                                "routed": 3}

    def test_a_wave_asks_the_dispatcher_each_question_once(self, monkeypatch):
        """A needy question asked three times in a wave is one question for
        the dispatcher: one scatter of each tier, one verdict, one put."""
        front, fast, careful = _cascade()
        puts: list[str] = []
        put = front.cache.put

        def spy(question, *args, **kwargs):
            puts.append(question)
            return put(question, *args, **kwargs)

        monkeypatch.setattr(front.cache, "put", spy)
        with front:
            first = front.submit_many(["a", "b", "a", "a"])
            assert fast.calls == careful.calls == [["a", "b"]]
            assert puts == ["a", "b"]
            again = front.submit_many(["a", "a", "a"])
            assert careful.calls == [["a", "b"]] and puts == ["a", "b"]
            assert (front.router.questions, front.router.escalations) == (2, 2)
            assert _hex_signature(again) == _hex_signature(first[:1]) * 3
            assert len({id(routes) for routes in first + again}) == 7
        forgetful, _, careful = _cascade(enable_cache=False)
        with forgetful:
            forgetful.submit_many(["a", "a", "a"])
            forgetful.submit_many(["a"])
            assert careful.calls == [["a"], ["a"]]
            assert forgetful.router.escalations == 2

    def test_answers_handed_out_do_not_alias_the_cache(self):
        front, _, careful = _cascade()
        with front:
            first = front.submit_many(["q", "q"])
            assert first[0] is not first[1]
            expected = _hex_signature(first[:1])
            first[0].clear()  # the scattered answer ...
            first[1].clear()  # ... its within-wave repeat ...
            second = front.submit_many(["q"])
            assert _hex_signature(second) == expected
            second[0].clear()  # ... and a cached one
            assert _hex_signature(front.submit_many(["q"])) == expected
            assert len(careful.calls) == 1

    def test_lru_bound(self):
        front, _, careful = _cascade(cache_size=2)
        with front:
            for question in ("q1", "q2", "q3"):
                front.submit_many([question])
            assert len(front.cache) == 2 and front.cache.evictions == 1
            front.submit_many(["q3", "q2"])  # both still cached
            assert len(careful.calls) == 3
            front.submit_many(["q1"])  # the evicted one scatters again
            assert careful.calls[-1] == ["q1"] and len(careful.calls) == 4

    def test_a_partial_gather_is_returned_but_not_remembered(self):
        healthy = _Tier(CAREFUL)
        down = [True]

        def flaky(questions, max_candidates, trace=None):
            if down[0]:
                raise RuntimeError("shard down")
            return [[SchemaRoute("gamma", ("v",), -0.1)] for _ in questions]

        dispatcher = ClusterDispatcher(
            [sender(_Tier(NEAR_TIE)), sender(_Tier(NEAR_TIE[:1]))],
            careful_targets=[sender(healthy), sender(flaky)],
            escalation_threshold=0.9, allow_partial=True)
        with RoutingService(dispatcher) as front:
            partial = front.submit_many(["q"])
            assert [route.database for route in partial[0]] == ["beta", "alpha"]
            assert dispatcher.partial_gathers == 1
            assert len(front.cache) == 0
            down[0] = False
            whole = front.submit_many(["q"])  # scatters again, now whole
            assert whole[0][0].database == "gamma"
            assert len(healthy.calls) == 2 and len(front.cache) == 1
            assert _hex_signature(front.submit_many(["q"])) == _hex_signature(whole)
            assert len(healthy.calls) == 2

    @pytest.mark.parametrize("tier", ["fast", "careful"])
    def test_an_answer_computed_across_a_catalog_change_is_not_cached(self, tier):
        """The catalog moves while a wave is in flight: whichever tier was
        mid-scatter, the wave's answer mixes old and new shards and must not
        be stamped with the new version."""
        stubs = {"fast": _Tier(NEAR_TIE), "careful": _Tier(CAREFUL)}
        front, _, careful = _cascade(**stubs)
        bumps = [1]

        def change_catalog_once():
            if bumps[0]:
                bumps[0] -= 1
                front.notify_catalog_changed()

        stubs[tier].before_answer = change_catalog_once
        with front:
            first = front.submit_many(["q"])
            assert len(front.cache) == 0
            second = front.submit_many(["q"])  # a quiet wave is cached
            assert len(careful.calls) == 2 and len(front.cache) == 1
            front.submit_many(["q"])
            assert len(careful.calls) == 2
            assert _hex_signature(first) == _hex_signature(second)

    def test_max_candidates_variants_do_not_alias(self):
        front, _, careful = _cascade()
        with front:
            one = front.submit_many(["q"], max_candidates=1)
            two = front.submit_many(["q"], max_candidates=2)
            assert [len(routes) for routes in one + two] == [1, 2]
            assert len(careful.calls) == 2
            assert _hex_signature(front.submit_many(["q"], max_candidates=1)) \
                == _hex_signature(one)
            assert _hex_signature(front.submit_many(["q"], max_candidates=2)) \
                == _hex_signature(two)
            assert len(careful.calls) == 2

    def test_span_tree_counts_what_reached_the_dispatcher(self):
        front, _, _ = _cascade()
        with front:
            front.submit_many(["q1", "q2"])
            front.submit_many(["q1", "new"])
            front.submit_many(["q2", "q1"])  # all hits: no trace
        journal = front.tracer.journal
        assert journal.completed == 2 and journal.open_span_count() == 0
        escalated = {}
        for record in journal.slowest():
            spans = {span["name"]: span for span in record["spans"]}
            hits = spans["request_wave"]["attributes"]["cache_hits"]
            escalated[hits] = spans["escalation"]["attributes"]["questions"]
        assert escalated == {0: 2, 1: 1}


# -- real fleets ----------------------------------------------------------------
#: Threshold 1.0 makes every question needy: a merged top-1 weight is < 1
#: whenever a second candidate exists, and both shards always offer one.
FLEETS = {
    "inproc_wave": {},
    "subprocess": {"worker_backend": "subprocess"},
}


def _fleet(master_router, **overrides) -> ClusterRoutingService:
    return ClusterRoutingService.from_router(master_router, ClusterConfig(
        num_shards=2, escalation_threshold=1.0, **overrides))


def _scattered(cluster) -> list[int]:
    """What the shards were asked, read without sending a frame: the
    dispatcher's question tally inproc, every proxy's frames sent on the
    subprocess backend."""
    if cluster.wave_engine is not None:
        return [cluster.dispatcher.questions]
    return [worker.requests_sent for replica_set in cluster.shards
            for worker in replica_set.workers]


def _conserves(counters: dict) -> bool:
    return counters.get("requests", 0) == sum(
        counters.get(key, 0)
        for key in ("cache_hits", "routed", "errors"))


class TestFrontOnFleets:
    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    def test_a_repeated_wave_costs_no_scatter_bit_for_bit(self, master_router, fleet):
        count = len(QUESTIONS)
        with _fleet(master_router, **FLEETS[fleet]) as cluster, \
                _fleet(master_router, enable_cache=False, **FLEETS[fleet]) as forgetful:
            assert (cluster.wave_engine is not None) == (fleet == "inproc_wave")
            first = cluster.submit_many(QUESTIONS)
            assert cluster.dispatcher.escalations == count
            scattered = _scattered(cluster)
            again = cluster.submit_many(QUESTIONS)
            assert _scattered(cluster) == scattered  # not one wave, not one frame
            assert _hex_signature(again) == _hex_signature(first)
            assert cluster.dispatcher.escalations == count
            stats = cluster.stats()
            assert stats["counters"]["cache_hits"] == count
            assert (stats["cache"]["hits"], stats["cache"]["size"]) \
                == (count, count)
            # The front cache never changes an answer: a fleet without one agrees.
            assert forgetful.front.cache is None
            assert forgetful.stats()["cache"] is None
            for _ in range(2):
                assert _hex_signature(forgetful.submit_many(QUESTIONS)) == \
                    _hex_signature(first)
            assert forgetful.dispatcher.escalations == 2 * count

    def test_cluster_cache_size_sizes_the_front(self, master_router):
        with _fleet(master_router, cache_size=3) as cluster:
            cache = cluster.front.cache
            assert cache.max_size == 3
            cluster.submit_many(QUESTIONS)
            assert len(cache) == 3

    def test_front_hits_count_on_the_cumulative_counters(self, master_router):
        wave = QUESTIONS[:3] + QUESTIONS[:1]
        with _fleet(master_router, enable_tracing=False) as cluster:
            assert all(cluster.submit_many(wave))
            assert "cache_hits" not in cluster.metrics.counters()
            cluster.submit_many(wave)  # answered by front hits
            counters = cluster.stats()["counters"]
            assert (counters["cache_hits"], counters["requests"]) \
                == (len(wave), 2 * len(wave))
            assert _conserves(counters)

    def test_every_miss_is_routed_with_the_cache_off(self, master_router):
        with _fleet(master_router, enable_cache=False,
                    enable_tracing=False) as cluster:
            cluster.submit(QUESTIONS[0])
            cluster.submit_many(QUESTIONS[1:3])
            stats = cluster.stats()
            assert stats["counters"] == {"requests": 3, "routed": 3}
            assert stats["dispatcher"]["questions"] == 3
            assert cluster.health().status in ("ok", "degraded")

    def test_served_lists_do_not_alias_the_front_cache(self, master_router):
        with _fleet(master_router) as cluster:
            first = cluster.submit_many(QUESTIONS[:1] * 2)
            assert first[0] is not first[1]
            expected = _hex_signature(first[:1])
            first[0].clear()
            hit = cluster.submit(QUESTIONS[0])
            assert _hex_signature([hit]) == expected
            hit.clear()
            assert _hex_signature([cluster.submit(QUESTIONS[0])]) == expected

    @pytest.mark.parametrize("database", [None, "world_atlas"])
    def test_a_catalog_change_stales_every_answer(self, master_router, database):
        count = len(QUESTIONS)
        with _fleet(master_router) as cluster:
            first = cluster.submit_many(QUESTIONS)
            cluster.notify_catalog_changed(database)
            after = cluster.submit_many(QUESTIONS)
            assert _hex_signature(after) == _hex_signature(first)
            assert cluster.dispatcher.escalations == 2 * count
            assert cluster.stats()["cache"]["invalidations"] == count
            cluster.submit_many(QUESTIONS)  # and caches the new answers
            assert cluster.dispatcher.escalations == 2 * count

    def test_an_unknown_database_moves_nothing(self, master_router):
        count = len(QUESTIONS)
        with _fleet(master_router) as cluster:
            cluster.submit_many(QUESTIONS)
            with pytest.raises(KeyError):
                cluster.notify_catalog_changed("typo")
            assert cluster.catalog_version == 0
            assert cluster.stats()["catalog_version"] == 0
            assert cluster.front.cache.catalog_version == 0
            cluster.submit_many(QUESTIONS)
            assert cluster.dispatcher.escalations == count  # still cached

    def test_a_catalog_hook_touches_no_worker(self, master_router):
        """The front's cache is the fleet's only one, so a catalog change is
        a version bump: no frame, nothing a dead worker can refuse, and no
        answer cached for the old catalog is served after it."""
        with _fleet(master_router, worker_backend="subprocess") as cluster:
            proxies = [worker for replica_set in cluster.shards
                       for worker in replica_set.workers]
            cluster.submit_many(QUESTIONS)
            sent = [proxy.transport_stats()["requests_sent"] for proxy in proxies]
            cluster.notify_catalog_changed()
            assert [proxy.transport_stats()["requests_sent"]
                    for proxy in proxies] == sent
            assert cluster.catalog_version == 1
            cluster.submit_many(QUESTIONS)  # cached for the new catalog
            proxies[0].auto_respawn = False
            proxies[0].kill()
            cluster.notify_catalog_changed()
            assert cluster.catalog_version == 2
            with pytest.raises(ClusterError):
                cluster.submit_many(QUESTIONS)
            assert "cache_hits" not in cluster.metrics.counters()

    def test_the_fleets_cache_hit_rate_is_the_fronts(self, master_router):
        """One wave, then the same wave: half the lookups hit, as the
        fleet's stats read."""
        with _fleet(master_router) as cluster:
            for _ in range(2):
                cluster.submit_many(QUESTIONS)
            stats = cluster.stats()
        assert stats["cache_hit_rate"] == stats["cache"]["hit_rate"] == 0.5

    def test_a_rebalance_stales_every_answer(self, master_router):
        count = len(QUESTIONS)
        with _fleet(master_router) as cluster:
            cluster.submit_many(QUESTIONS)
            ClusterRebalancer(cluster).move_database(
                "world_atlas", 1 - cluster.shard_of("world_atlas"))
            moved = cluster.submit_many(QUESTIONS)
            assert cluster.dispatcher.escalations == 2 * count
            # What a fleet that never knew the old assignment answers.
            fresh = ClusterRoutingService.from_router(
                master_router, cluster.config, assignment=cluster.assignment)
            with fresh:
                assert _hex_signature(moved) == \
                    _hex_signature(fresh.submit_many(QUESTIONS))
            assert _hex_signature(cluster.submit_many(QUESTIONS)) == \
                _hex_signature(moved)
            assert cluster.dispatcher.escalations == 2 * count

    def test_four_concurrent_callers_coalesce_into_one_decode(self, master_router,
                                                             monkeypatch):
        """The front's group commit: with a decode running, four callers
        queue, and the next leader scatters their misses as one wave."""
        with _fleet(master_router) as cluster:
            waves: list[list[str]] = []
            route_batch = cluster.dispatcher.route_batch

            def spy(questions, *args, **kwargs):
                waves.append(list(questions))
                return route_batch(questions, *args, **kwargs)

            monkeypatch.setattr(cluster.dispatcher, "route_batch", spy)
            calls = [lambda question=question: cluster.submit(question)
                     for question in QUESTIONS[:5]]
            with _contended(cluster.front, calls) as outcomes:
                assert waves == []
                assert cluster.health().details["queue_depth"] == 4
            assert waves == [QUESTIONS[:1], QUESTIONS[1:5]]
            assert cluster.stats()["mean_batch_size"] == 2.5
        with _fleet(master_router, enable_cache=False) as serial:
            assert _hex_signature([outcomes[index] for index in range(5)]) == \
                _hex_signature([serial.submit(question) for question in QUESTIONS[:5]])

    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    def test_concurrent_waves_and_catalog_changes_keep_answers_and_counters(
            self, master_router, fleet):
        """More callers than cores, a catalog that keeps changing: every wave
        answers what a serial run of it on a fresh fleet answers, and the
        front keeps ``requests == cache_hits + routed + errors``."""
        questions = [f"{question} number {index}" for index in range(2)
                     for question in QUESTIONS]
        answered: list[tuple[tuple[str, ...], list]] = []
        failures: list[BaseException] = []

        def caller(cluster, offset: int) -> None:
            try:
                for wave in range(40):
                    if offset == 0 and wave % 5 == 0:
                        cluster.notify_catalog_changed()
                    batch = tuple(questions[(offset + wave + step) % len(questions)]
                                  for step in range(3))
                    answered.append((batch, _hex_signature(cluster.submit_many(batch))))
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with _fleet(master_router, **FLEETS[fleet]) as cluster:
                threads = [threading.Thread(target=caller, args=(cluster, offset))
                           for offset in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = cluster.stats()
                # Every question the front did not answer reached both tiers.
                dispatched = stats["dispatcher"]["questions"]
                assert stats["dispatcher"]["escalations"] == dispatched
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(answered) == 8 * 40
        with _fleet(master_router, **FLEETS[fleet]) as fresh:
            serial = {batch: _hex_signature(fresh.submit_many(batch))
                      for batch in dict(answered)}
        wrong = [batch for batch, signature in answered if signature != serial[batch]]
        assert wrong == []
        assert stats["counters"]["requests"] == 8 * 40 * 3
        assert _conserves(stats["counters"])

    def test_a_hot_front_does_not_hide_a_collapsed_fast_tier(self, master_router):
        """Every question escalates: health judges the questions that
        reached the dispatcher, however many front hits surround them."""
        questions = [f"{question} number {index}" for index in range(3)
                     for question in QUESTIONS]
        with _fleet(master_router) as cluster:
            for _ in range(10):
                cluster.submit_many(questions)
            stats = cluster.stats()
            report = cluster.health()
        dispatched = len(questions)
        assert stats["counters"]["cache_hits"] == 9 * dispatched
        assert stats["dispatcher"]["questions"] == dispatched
        assert stats["dispatcher"]["escalations"] == dispatched
        assert report.details["escalation_rate"] == 1.0
        assert any("escalation rate" in reason for reason in report.reasons)


class _InFlight:
    """Wraps a decoder's ``route_batch``: counts the calls in flight and
    keeps the most ever seen at once."""

    def __init__(self, route_batch) -> None:
        self.route_batch = route_batch
        self.lock = threading.Lock()
        self.now = self.most = self.calls = 0

    def __call__(self, *args, **kwargs):
        with self.lock:
            self.now += 1
            self.calls += 1
            self.most = max(self.most, self.now)
        try:
            return self.route_batch(*args, **kwargs)
        finally:
            with self.lock:
                self.now -= 1


class TestOneDecodeAtATime:
    @pytest.mark.parametrize("front", ["monolith", "subprocess"])
    def test_concurrent_callers_never_overlap_two_decodes(self, master_router,
                                                         monkeypatch, front):
        """Six callers mixing ``submit`` and ``submit_many``, switching every
        microsecond, cache off: the group commit alone keeps the decoder's
        ``route_batch`` calls one at a time, and the front conserves."""
        if front == "monolith":
            service = RoutingService(master_router, ServingConfig(enable_cache=False))
            route_many = service.submit_many
        else:
            cluster = ClusterRoutingService.from_router(master_router, ClusterConfig(
                num_shards=2, worker_backend="subprocess", enable_cache=False))
            service, route_many = cluster.front, cluster.submit_many
        in_flight = _InFlight(service.router.route_batch)
        monkeypatch.setattr(service.router, "route_batch", in_flight)
        failures: list[BaseException] = []

        def caller(slot: int) -> None:
            try:
                for turn in range(5):
                    if slot % 2:
                        assert all(route_many(QUESTIONS))
                    else:
                        assert all(route_many([QUESTIONS[(slot + turn) % len(QUESTIONS)]]))
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            (service if front == "monolith" else cluster).close()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert in_flight.calls > 0 and in_flight.most == 1
        counters = service.metrics.counters()
        assert counters["requests"] == 3 * 5 * (len(QUESTIONS) + 1)
        assert _conserves(counters)
