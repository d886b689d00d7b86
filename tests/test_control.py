"""The control plane: admission and the controller loop.

The contracts:

* the admission controller's three gates (queue depth, burn shedding, token
  bucket) judge deterministically on an injected clock — shed-then-recover
  is a hysteresis lifecycle, not a flicker;
* a :class:`RoutingService` with admission sheds cache-missing decodes with
  a typed, fast :class:`AdmissionRejected`, surfaces the rejections in
  ``stats()`` / ``health()`` / the trace journal, and never interferes with
  steady-state traffic;
* the controller splits hot shards and merges cold ones under hysteresis
  and per-database cooldown — and a tick never raises;
* the monitor's observer hook feeds every successful tick to subscribers
  and survives a subscriber that throws.
"""

from __future__ import annotations

import functools
from dataclasses import fields

import pytest

from test_serving import _serving_catalog

from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
from repro.cluster import ClusterConfig, ClusterRoutingService
from repro.control import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    Controller,
    ControllerConfig,
)
from repro.obs.health import HealthPolicy, HealthReport
from repro.obs.monitor import Monitor
from repro.serving import (
    RoutingService,
    ScenarioConfig,
    ScenarioDriver,
    ScenarioPhase,
    ServingConfig,
    named_scenario,
)
from repro.serving.metrics import QPS_WINDOW_SECONDS, MetricsRegistry, WindowedCounter


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def trained_router() -> SchemaRouter:
    catalog = _serving_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=11)
    sampler = SchemaSampler(graph, seed=11)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=250))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=4,
        beam_groups=2, seed=11))
    router.fit(report.examples)
    return router


# -- the admission controller --------------------------------------------------
class TestAdmissionPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_qps=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(burst_requests=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_burn=1.0, recover_burn=2.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_admit_every=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(queue_shed_depth=0)


class TestTokenBucket:
    def test_burst_then_ceiling_then_refill(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_qps=10.0, burst_requests=2.0), clock=clock)
        controller.admit()
        controller.admit()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit()
        assert excinfo.value.reason == "rate_limit"
        assert excinfo.value.retry_after_seconds == pytest.approx(0.1)
        # A tenth of a second refills exactly one token at 10 qps.
        clock.advance(0.1)
        controller.admit()
        stats = controller.stats()
        assert stats["admitted"] == 3
        assert stats["rejected"] == 1
        assert stats["rejected_by_reason"]["rate_limit"] == 1

    def test_wave_weight_is_atomic(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_qps=10.0, burst_requests=4.0), clock=clock)
        with pytest.raises(AdmissionRejected):
            controller.admit(weight=5)
        controller.admit(weight=4)
        assert controller.stats()["admitted"] == 4


class TestQueueGate:
    def test_backlog_rejects_and_recovers(self):
        controller = AdmissionController(
            AdmissionPolicy(queue_shed_depth=32), clock=FakeClock())
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(queue_depth=32)
        assert excinfo.value.reason == "queue_depth"
        assert "32 questions" in str(excinfo.value)
        controller.admit(queue_depth=31)

    def test_no_capacity_means_no_gate(self):
        controller = AdmissionController(AdmissionPolicy(queue_shed_depth=None),
                                         clock=FakeClock())
        controller.admit(queue_depth=10_000)
        AdmissionController(clock=FakeClock()).admit(queue_depth=None)


class TestBurnShedding:
    def test_shed_then_recover_lifecycle(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(shed_burn=2.0, recover_burn=1.0,
                            min_shed_seconds=5.0, shed_admit_every=4),
            clock=clock)
        assert controller.observe_burn(1.5) is False  # below shed_burn
        assert controller.observe_burn(2.5) is True
        # Deterministic 1-in-4 admission while shedding.
        outcomes = []
        for _ in range(8):
            try:
                controller.admit()
                outcomes.append("admitted")
            except AdmissionRejected as rejection:
                assert rejection.reason == "burn_rate"
                outcomes.append("shed")
        assert outcomes.count("admitted") == 2
        assert outcomes.count("shed") == 6
        # Burn recovered, but the hysteresis window has not passed yet.
        clock.advance(2.0)
        assert controller.observe_burn(0.5) is True
        clock.advance(4.0)
        assert controller.observe_burn(0.5) is False
        controller.admit()
        stats = controller.stats()
        assert stats["shed_events"] == 1
        assert stats["shedding"] is False

    def test_flicker_around_threshold_does_not_flap(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(shed_burn=2.0, recover_burn=1.0,
                            min_shed_seconds=5.0), clock=clock)
        controller.observe_burn(2.1)
        for _ in range(10):
            clock.advance(0.2)
            # Oscillating in the hysteresis band keeps the mode latched.
            assert controller.observe_burn(1.5) is True
        assert controller.stats()["shed_events"] == 1


# -- admission wired into the serving front ------------------------------------
class TestServiceAdmission:
    def _service(self, router, clock) -> RoutingService:
        controller = AdmissionController(
            AdmissionPolicy(min_shed_seconds=5.0, shed_admit_every=2),
            clock=clock)
        config = ServingConfig(enable_cache=False)
        return RoutingService(router, config=config, admission=controller)

    def test_steady_state_never_interferes(self, trained_router):
        clock = FakeClock()
        with self._service(trained_router, clock) as service:
            for _ in range(10):
                assert service.submit("How many singers are there?")
            stats = service.stats()
            assert stats["admission"]["rejected"] == 0
            assert stats["counters"].get("admission_rejected", 0) == 0
            assert service.health().status == "ok"

    def test_burst_sheds_then_recovers(self, trained_router):
        clock = FakeClock()
        with self._service(trained_router, clock) as service:
            service.admission.observe_burn(3.0)
            admitted = shed = 0
            for _ in range(8):
                try:
                    service.submit("How many singers are there?")
                    admitted += 1
                except AdmissionRejected:
                    shed += 1
            assert admitted == 4 and shed == 4  # every 2nd admitted
            stats = service.stats()
            assert stats["admission"]["shedding"] is True
            assert stats["admission"]["rejected"] == 4
            assert stats["counters"]["admission_rejected"] == 4
            # Shed requests are journaled as rejected traces, not dropped.
            assert any(record["status"] == "rejected"
                       for record in stats["traces"]["slowest"])
            health = service.health()
            assert health.status == "degraded"
            assert health.details["admission_shedding"] is True
            assert any("shedding" in reason for reason in health.reasons)
            # Recovery: burn subsides and the hysteresis window passes.
            clock.advance(6.0)
            service.admission.observe_burn(0.2)
            for _ in range(5):
                service.submit("How many singers are there?")
            assert service.health().status == "ok"
            assert service.stats()["admission"]["shedding"] is False

    def test_wave_is_admitted_atomically(self, trained_router):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_qps=1.0, burst_requests=2.0), clock=clock)
        config = ServingConfig(enable_cache=False)
        with RoutingService(trained_router, config=config,
                            admission=controller) as service:
            questions = ["How many singers are there?",
                         "List the names of all cities.",
                         "How many concerts are there?"]
            with pytest.raises(AdmissionRejected):
                service.submit_many(questions)  # 3 > 2 tokens: whole wave shed
            assert service.submit_many(questions[:2])
            assert service.stats()["admission"]["admitted"] == 2

    def test_cache_hits_bypass_admission(self, trained_router):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_qps=1.0, burst_requests=1.0), clock=clock)
        config = ServingConfig(enable_cache=True)
        with RoutingService(trained_router, config=config,
                            admission=controller) as service:
            service.submit("How many singers are there?")  # miss: takes the token
            for _ in range(20):  # hits: free regardless of the empty bucket
                service.submit("How many singers are there?")
            assert service.stats()["admission"]["admitted"] == 1


# -- the windowed counter ------------------------------------------------------
class TestWindowedCounter:
    def test_expires_outside_the_window(self):
        clock = FakeClock()
        counter = WindowedCounter(window_seconds=60, clock=clock)
        counter.note(5)
        clock.advance(30)
        counter.note(2)
        assert counter.total() == 7
        clock.advance(31)  # the first bucket is now 61s old
        assert counter.total() == 2
        clock.advance(61)
        assert counter.total() == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedCounter(window_seconds=0)


# -- the scenario driver -------------------------------------------------------
class TestScenarioDriver:
    QUESTIONS = [f"question {index}" for index in range(128)]

    def test_plan_and_schedule_are_deterministic(self):
        config = named_scenario("burst", num_requests=60, qps=100.0, seed=7)
        driver = ScenarioDriver(self.QUESTIONS, config)
        assert driver.plan() == driver.plan()
        assert driver.schedule() == driver.schedule()
        assert len(driver.plan()) == 60

    def test_phase_lengths_cover_the_budget(self):
        config = named_scenario("burst", num_requests=100, qps=50.0)
        assert sum(config.phase_lengths()) == 100
        assert [phase.name for phase in config.phases] == \
            ["warmup", "burst", "recover"]

    def test_schedule_spacing_follows_phase_qps(self):
        config = ScenarioConfig(phases=(ScenarioPhase("steady", 1.0, 2.0),),
                                num_requests=4)
        offsets = ScenarioDriver(self.QUESTIONS, config).schedule()
        assert offsets == [0.0, 0.5, 1.0, 1.5]

    def test_shift_hot_set_changes_the_head(self):
        config = named_scenario("shift_hot_set", num_requests=80, qps=1000.0)
        plan = ScenarioDriver(self.QUESTIONS, config).plan()
        first = {question for name, question in plan if name == "hot_a"}
        second = {question for name, question in plan if name == "hot_b"}
        # each phase draws from a ten-question head: q0-q9, then q64-q73
        assert not first & second
        assert first <= set(self.QUESTIONS[:10])
        assert second <= set(self.QUESTIONS[64:74])

    @pytest.mark.parametrize("pool_size", [32, 64])
    def test_shift_hot_set_refuses_an_offset_that_wraps(self, pool_size):
        # hot_offset=64 wraps to 0 on these pools: hot_b would replay hot_a's head
        config = named_scenario("shift_hot_set", num_requests=80, qps=1000.0)
        with pytest.raises(ValueError, match="'hot_b'"):
            ScenarioDriver(self.QUESTIONS[:pool_size], config)

    def test_shed_counts_apart_from_errors(self):
        config = named_scenario("steady", num_requests=12, qps=5000.0)
        driver = ScenarioDriver(self.QUESTIONS, config)
        calls = [0]

        def submit(question):
            calls[0] += 1
            if calls[0] % 3 == 0:
                raise AdmissionRejected("rate_limit", "shed")
            if calls[0] % 4 == 0:
                raise RuntimeError("boom")

        report = driver.run(submit)
        assert report.num_requests == 12
        assert report.shed == 4
        assert report.errors == 2
        assert report.admitted == 6
        assert report.shed_fraction == pytest.approx(4 / 12)
        payload = report.to_json()
        assert payload["phases"]["steady"]["shed"] == 4

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            named_scenario("quiet-sunday")

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScenarioConfig(phases=(ScenarioPhase("a", 0.5, 10.0),
                                   ScenarioPhase("b", 0.4, 10.0)))

    def test_phase_names_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            ScenarioConfig(phases=(ScenarioPhase("a", 0.5, 10.0),
                                   ScenarioPhase("a", 0.5, 20.0)))


# -- the controller ------------------------------------------------------------
class _StubRebalancer:
    def __init__(self) -> None:
        self.moves: list[tuple[str, int]] = []

    def move_database(self, database: str, shard_id: int) -> None:
        self.moves.append((database, shard_id))


class _StubCluster:
    def __init__(self) -> None:
        self.snapshot: dict = {}

    def stats(self) -> dict:
        return self.snapshot


def _snapshot(assignment, per_database, qps_window=50.0) -> dict:
    return {
        "qps_window": qps_window,
        "assignment": [list(shard) for shard in assignment],
        "routing_load": {"window_seconds": 60,
                         "total": sum(per_database.values()),
                         "per_database": dict(per_database),
                         "per_shard": []},
        "stages": {},
    }


class TestControllerConfig:
    def test_the_config_fields_are_pinned(self):
        """The escalation threshold is a boot-time constant: no controller
        knob retunes it, and a new knob must show up here as a reviewed diff."""
        assert {field.name for field in fields(ControllerConfig)} == {
            "hysteresis_seconds", "database_cooldown_seconds", "hot_factor",
            "cold_factor", "min_window_qps", "burn_severities", "max_actions"}
        assert "escalation" not in Controller(_StubCluster()).stats()

    @pytest.mark.parametrize("overrides, message", [
        ({"hysteresis_seconds": 0.0}, "hysteresis_seconds"),
        ({"database_cooldown_seconds": -1.0}, "database_cooldown_seconds"),
        ({"cold_factor": 2.0}, "deadband"),
        ({"cold_factor": 0.0}, "cold_factor must be positive"),
        ({"min_window_qps": -1.0}, "min_window_qps"),
        ({"max_actions": 0}, "max_actions"),
    ])
    def test_invalid_dynamics_are_refused(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ControllerConfig(**overrides)


class TestController:
    def _controller(self, clock, **overrides):
        cluster = _StubCluster()
        rebalancer = _StubRebalancer()
        config = ControllerConfig(hysteresis_seconds=60.0,
                                  database_cooldown_seconds=300.0,
                                  **overrides)
        controller = Controller(cluster, rebalancer=rebalancer,
                                config=config, clock=clock)
        return controller, cluster, rebalancer

    def test_hot_shard_split_moves_coldest_database(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        snapshot = _snapshot([["a", "b"], ["c"]], {"a": 90, "b": 10})
        outcome = controller.tick(snapshot=snapshot)
        assert outcome["action"]["kind"] == "split"
        assert rebalancer.moves == [("b", 1)]

    def test_without_a_rebalancer_a_hot_shard_is_not_split(self):
        """``rebalancer=None`` is the one rebalance off switch."""
        controller = Controller(_StubCluster(), clock=FakeClock())
        snapshot = _snapshot([["a", "b"], ["c"]], {"a": 90, "b": 10})
        assert controller.tick(snapshot=snapshot) == {"burn": None, "action": None}
        assert controller.tick_errors == 0

    def test_hysteresis_blocks_back_to_back_actions(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        snapshot = _snapshot([["a", "b"], ["c"]], {"a": 90, "b": 10})
        assert controller.tick(snapshot=snapshot)["action"] is not None
        clock.advance(30.0)
        assert controller.tick(snapshot=snapshot)["action"] is None
        clock.advance(31.0)
        assert controller.tick(snapshot=snapshot)["action"] is not None
        assert len(rebalancer.moves) == 2

    def test_database_cooldown_prevents_removing(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        snapshot = _snapshot([["a", "b"], ["c"]], {"a": 90, "b": 10})
        controller.tick(snapshot=snapshot)
        clock.advance(61.0)
        controller.tick(snapshot=snapshot)
        # "b" just moved; inside its cooldown the planner must pick another.
        assert [move[0] for move in rebalancer.moves] == ["b", "a"]

    def test_settled_assignment_takes_no_action(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        # After the split: shard 0 owns the hot db, shard 1 the cold ones.
        snapshot = _snapshot([["a"], ["b", "c"]], {"a": 90, "b": 10})
        assert controller.tick(snapshot=snapshot)["action"] is None
        assert rebalancer.moves == []

    def test_cold_shards_merge(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        snapshot = _snapshot([["a"], ["c"], ["d"], ["e"]],
                             {"a": 1, "c": 1, "d": 30, "e": 30})
        outcome = controller.tick(snapshot=snapshot)
        assert outcome["action"]["kind"] == "merge"
        assert rebalancer.moves == [("a", 1)]

    def test_idle_cluster_is_left_alone(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        snapshot = _snapshot([["a", "b"], ["c"]], {"a": 90, "b": 10},
                             qps_window=0.1)
        assert controller.tick(snapshot=snapshot)["action"] is None
        assert rebalancer.moves == []

    def test_single_database_shard_cannot_split(self):
        clock = FakeClock()
        controller, _, rebalancer = self._controller(clock)
        snapshot = _snapshot([["a"], ["c"]], {"a": 95, "c": 5})
        assert controller.tick(snapshot=snapshot)["action"] is None
        assert rebalancer.moves == []

    def test_burn_feeds_admission_for_page_severity_only(self):
        clock = FakeClock()
        admission = AdmissionController(AdmissionPolicy(), clock=clock)
        controller = Controller(_StubCluster(), admission=admission,
                                clock=clock)
        outcome = controller.tick(
            snapshot=_snapshot([], {}, qps_window=0.0),
            slo_status=[{"severity": "ticket", "fast_burn": 99.0},
                        {"severity": "page", "fast_burn": 3.0}])
        assert outcome["burn"] == pytest.approx(3.0)
        assert admission.shedding is True

    def test_tick_never_raises(self):
        clock = FakeClock()

        class ExplodingCluster:
            def stats(self):
                raise RuntimeError("boom")

        controller = Controller(ExplodingCluster(), clock=clock)
        outcome = controller.tick()
        assert outcome["action"] is None
        assert controller.tick_errors == 1
        assert "boom" in controller.last_error

    def test_stats_shape(self):
        clock = FakeClock()
        controller, _, _ = self._controller(clock)
        snapshot = _snapshot([["a", "b"], ["c"]], {"a": 90, "b": 10})
        controller.tick(snapshot=snapshot)
        stats = controller.stats()
        assert stats["ticks"] == 1
        assert stats["splits"] == 1 and stats["merges"] == 0
        assert stats["actions"][0]["status"] == "ok"
        import json
        json.dumps(stats)  # JSON-safe


# -- the monitor observer hook -------------------------------------------------
class _StubService:
    def stats(self) -> dict:
        return {"counters": {"requests": 100, "errors": 0},
                "latency": {"p95_ms": 1.0}, "stages": {}}

    def health(self, policy=None) -> HealthReport:
        return HealthReport(component="stub")


class TestMonitorObservers:
    def test_observer_sees_every_successful_tick(self):
        clock = FakeClock()
        monitor = Monitor(_StubService(), clock=clock, track_baselines=False)
        seen = []
        monitor.add_observer(seen.append)
        monitor.tick()
        monitor.tick()
        assert len(seen) == 2
        assert seen[0]["snapshot"]["counters"]["requests"] == 100
        assert "slo" in seen[0]
        assert monitor.summary()["observers"] == 1
        assert monitor.summary()["observer_errors"] == 0

    def test_observer_errors_are_counted_not_fatal(self):
        clock = FakeClock()
        monitor = Monitor(_StubService(), clock=clock, track_baselines=False)

        def explode(latest):
            raise RuntimeError("observer boom")

        monitor.add_observer(explode)
        assert monitor.tick() is not None
        assert monitor.tick_errors == 0
        assert monitor.observer_errors == 1
        assert "observer boom" in monitor.summary()["last_error"]

    def test_controller_rides_the_monitor(self):
        clock = FakeClock()
        service = _StubService()
        monitor = Monitor(service, clock=clock, track_baselines=False)
        controller = Controller(service, clock=clock).attach(monitor)
        monitor.tick()
        assert controller.ticks == 1


# -- routed-load windows on a live cluster -------------------------------------
class TestClusterRoutingLoad:
    def test_routing_load_and_window_qps_in_stats(self, trained_router):
        config = ClusterConfig(num_shards=2, enable_cache=False,
                               enable_tracing=False)
        with ClusterRoutingService.from_router(trained_router,
                                               config) as cluster:
            cluster.submit("How many singers are there?")
            cluster.submit_many(["List the names of all cities.",
                                 "How many concerts are there?"])
            stats = cluster.stats()
            load = stats["routing_load"]
            assert load["total"] == 3
            assert sum(load["per_database"].values()) == 3
            assert len(load["per_shard"]) == 2
            assert sum(load["per_shard"]) == 3
            policy = HealthPolicy()
            assert cluster.health(policy).status in ("ok", "degraded")

    def test_front_hits_count_and_the_window_expires(self, trained_router,
                                                      monkeypatch):
        # The routed-load window reads the front's metrics clock.
        clock = FakeClock()
        monkeypatch.setattr("repro.serving.service.MetricsRegistry",
                            functools.partial(MetricsRegistry, clock=clock))
        wave = ["How many singers are there?", "List the names of all cities.",
                "How many concerts are there?", "How many singers are there?"]
        config = ClusterConfig(num_shards=2, enable_tracing=False)
        with ClusterRoutingService.from_router(trained_router, config) as cluster:
            assert all(cluster.submit_many(wave))
            clock.advance(1.0)
            cluster.submit_many(wave)  # answered by front hits
            assert cluster.stats()["counters"]["cache_hits"] == len(wave)
            load = cluster.routing_load()
            assert load["total"] == sum(load["per_shard"]) == 2 * len(wave)
            clock.advance(QPS_WINDOW_SECONDS - 1.0)  # the first wave's second leaves
            assert cluster.routing_load()["total"] == len(wave)
            clock.advance(1.0)
            load = cluster.routing_load()
            assert load["per_database"] == {} and sum(load["per_shard"]) == 0
