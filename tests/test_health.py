"""Active monitoring: health probes, rollup precedence, SLO burn rates,
the monitor thread, and the ops HTTP endpoint.

The contracts:

* verdicts roll up bottom-up with fixed precedence — one failing child
  degrades the parent, only *all* children failing fails it;
* the SLO engine fires only when both burn windows agree, deduplicates
  repeat fires, and resolves once the fast window recovers — all on an
  injected clock, no sleeps;
* the monitor thread shuts down cleanly (no leaked threads) and a tick
  that raises is counted, never fatal;
* ``/healthz`` answers 200 exactly when the verdict is ``ok`` and flips to
  503 while a killed subprocess shard is down, recovering after respawn;
* ``/metrics`` serves parseable Prometheus text over a real socket.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from test_serving import QUESTIONS, SteppedTime, _serving_catalog

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
from repro.obs import health
from repro.obs.health import (
    HealthReport,
    cache_health,
    dispatcher_health,
    error_rate_health,
    queue_health,
    rollup,
    worst_status,
)
from repro.obs.httpd import OpsServer
from repro.obs.monitor import Monitor
from repro.obs.slo import (
    MAX_EVENTS,
    AlertJournal,
    EwmaBaselineTracker,
    SloEngine,
    SloSpec,
    default_slo_specs,
)
from repro.obs.export import parse_prometheus
from repro.serving import (
    LoadGenerator,
    RoutingService,
    ScenarioDriver,
    ServingConfig,
    WorkloadConfig,
    loadgen,
    named_scenario,
)


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


# -- verdicts and rollup precedence -------------------------------------------
class TestHealthReport:
    def test_worst_status_orders_verdicts(self):
        assert worst_status() == "ok"
        assert worst_status("ok", "degraded") == "degraded"
        assert worst_status("degraded", "failing", "ok") == "failing"

    def test_degrade_never_lowers(self):
        report = HealthReport(component="x")
        report.degrade("failing", "dead")
        report.degrade("degraded", "meh")
        assert report.status == "failing"
        assert report.reasons == ["dead", "meh"]

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError):
            HealthReport(component="x", status="on-fire")

    def test_to_dict_round_trips_as_json(self):
        report = rollup("parent", [HealthReport(component="child",
                                                status="degraded",
                                                reasons=["slow"])])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["status"] == "degraded"
        assert payload["children"][0]["component"] == "child"


class TestRollupPrecedence:
    def _children(self, *statuses: str) -> list[HealthReport]:
        return [HealthReport(component=f"shard-{index}", status=status)
                for index, status in enumerate(statuses)]

    def test_all_ok_stays_ok(self):
        assert rollup("c", self._children("ok", "ok", "ok")).status == "ok"

    def test_one_failing_child_degrades_the_parent(self):
        report = rollup("cluster", self._children("ok", "failing", "ok"))
        assert report.status == "degraded"
        assert any("shard-1" in reason for reason in report.reasons)

    def test_one_degraded_child_degrades_the_parent(self):
        assert rollup("c", self._children("degraded", "ok")).status == "degraded"

    def test_all_children_failing_fails_the_parent(self):
        report = rollup("c", self._children("failing", "failing"))
        assert report.status == "failing"

    def test_own_verdict_is_never_lowered_by_healthy_children(self):
        own = HealthReport(component="c")
        own.degrade("failing", "closed")
        assert rollup("c", self._children("ok", "ok"), own=own).status == "failing"

    def test_no_children_keeps_own_verdict(self):
        assert rollup("leaf", []).status == "ok"


# -- the stats-dict probes -----------------------------------------------------
class TestProbes:
    def test_error_rate_unjudged_below_min_requests(self):
        report = HealthReport(component="svc")
        error_rate_health(report, {"requests": 5, "errors": 5})
        assert report.status == "ok"

    def test_error_rate_bands(self):
        degraded = HealthReport(component="svc")
        error_rate_health(degraded, {"requests": 100, "errors": 2})
        assert degraded.status == "degraded"
        failing = HealthReport(component="svc")
        error_rate_health(failing, {"requests": 100, "errors": 20})
        assert failing.status == "failing"

    def test_cache_cold_is_unmeasured_not_unhealthy(self):
        report = cache_health({"hits": 0, "misses": 3, "invalidations": 0})
        assert report.status == "ok"
        assert report.details["lookups"] == 3

    def test_cache_hit_rate_floor(self):
        report = cache_health({"hits": 1, "misses": 99, "invalidations": 0})
        assert report.status == "degraded"
        assert "hit rate" in report.reasons[0]

    def test_cache_version_churn(self):
        report = cache_health({"hits": 80, "misses": 20, "invalidations": 60})
        assert report.status == "degraded"
        assert "churn" in report.reasons[0]

    def test_cache_disabled_reports_ok(self):
        report = cache_health(None)
        assert report.status == "ok"
        assert report.details == {"enabled": False}

    def test_queue_depth_thresholds(self):
        """The backlog is counted in questions: 16 queued is degraded, 64
        failing."""
        ok = HealthReport(component="svc")
        queue_health(ok, 15)
        assert ok.status == "ok"
        assert ok.details == {"queue_depth": 15}
        degraded = HealthReport(component="svc")
        queue_health(degraded, 16)
        assert degraded.status == "degraded"
        assert degraded.reasons == ["decode backlog 16 >= 16 questions"]
        failing = HealthReport(component="svc")
        queue_health(failing, 64)
        assert failing.status == "failing"

    def test_the_thresholds_keep_their_invariants(self):
        """The probes rely on ordered bands, non-negative floors and a
        respawn window that is a window; an edited constant must keep
        them."""
        assert 0.0 <= health.ERROR_RATE_DEGRADED <= health.ERROR_RATE_FAILING
        assert 0.0 <= health.TIMEOUT_RATE_DEGRADED <= health.TIMEOUT_RATE_FAILING
        assert health.QUEUE_DEPTH_DEGRADED <= health.QUEUE_DEPTH_FAILING
        assert health.MIN_REQUESTS >= 0 and health.CACHE_MIN_LOOKUPS >= 0
        assert health.RESPAWN_WINDOW_SECONDS > 0

    def test_dispatcher_timeout_and_escalation_rates(self):
        report = HealthReport(component="cluster")
        dispatcher_health(report, {"shards_timed_out": 5, "escalations": 90},
                          100)
        assert report.status == "degraded"
        assert any("timeout" in reason for reason in report.reasons)
        assert any("escalation" in reason for reason in report.reasons)


# -- layer health --------------------------------------------------------------
class TestServiceHealth:
    @pytest.fixture()
    def service(self, trained_router):
        service = RoutingService(trained_router,
                                 config=ServingConfig())
        yield service
        service.close()

    def test_fresh_service_is_ok_with_cache_child(self, service):
        report = service.health()
        assert report.status == "ok"
        assert [child.component for child in report.children] == ["route_cache"]

    def test_closed_service_is_failing(self, trained_router):
        service = RoutingService(trained_router,
                                 config=ServingConfig())
        service.close()
        report = service.health()
        assert report.status == "failing"
        assert "closed" in report.reasons[0]

    def test_submit_failure_increments_errors_counter(self, service, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("decode broke")

        monkeypatch.setattr(service.router, "route_batch", explode)
        with pytest.raises(RuntimeError):
            service.submit("never seen before question")
        assert service.metrics.counter("errors") == 1

    def test_error_rate_degrades_service_health(self, service):
        service.metrics.increment("requests", 100)
        service.metrics.increment("errors", 3)
        assert service.health().status == "degraded"


class TestClusterHealth:
    @pytest.fixture(scope="class")
    def cluster(self, trained_router):
        service = ClusterRoutingService.from_router(
            trained_router, ClusterConfig(num_shards=2))
        yield service
        service.close()

    def test_healthy_cluster_rolls_up_ok(self, cluster):
        report = cluster.health()
        assert report.status == "ok"
        assert [child.component for child in report.children] == \
            ["shard-0", "shard-1", "route_cache"]
        assert report.details["queue_depth"] == 0
        worker = report.children[0].children[0]
        assert (worker.component, worker.children) == ("shard-0-worker", [])

    def test_one_failing_shard_degrades_the_cluster_verdict(self, cluster):
        replica_set = cluster.shards[0]
        saved = [replica.quarantined_until
                 for replica in replica_set._replicas]
        try:
            for replica in replica_set._replicas:
                replica.quarantined_until = replica_set._clock() + 10_000.0
            report = cluster.health()
            assert report.children[0].status == "failing"
            assert report.status == "degraded"
            assert any("failing" in reason for reason in report.reasons)
        finally:
            for replica, value in zip(replica_set._replicas, saved):
                replica.quarantined_until = value
        assert cluster.health().status == "ok"

    def test_closed_cluster_is_failing(self, trained_router):
        service = ClusterRoutingService.from_router(
            trained_router, ClusterConfig(num_shards=2))
        service.close()
        assert service.health().status == "failing"


# -- SLO engine and alert journal ----------------------------------------------
def _snapshot(requests: int, errors: int = 0, p95_ms: float = 10.0,
              hits: int = 0, misses: int = 0) -> dict:
    return {"counters": {"requests": requests, "errors": errors},
            "latency": {"p95_ms": p95_ms, "p99_ms": p95_ms * 1.5},
            "cache": {"hits": hits, "misses": misses}}


class TestSloEngine:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", metric="nope", target=1.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", metric="error_rate", target=0.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", metric="error_rate", target=0.1,
                    fast_window_seconds=600.0, slow_window_seconds=60.0)

    def test_burn_direction(self):
        upper = SloSpec(name="lat", metric="latency_p95_ms", target=100.0)
        assert upper.burn(200.0) == 2.0
        lower = SloSpec(name="hit", metric="cache_hit_rate", target=0.8)
        assert lower.burn(0.4) == 2.0
        assert lower.burn(0.0) > 1_000.0  # capped, not inf

    def test_fire_dedupe_resolve_lifecycle(self):
        """The full burn-rate alert lifecycle on an injected clock."""
        clock = FakeClock()
        spec = SloSpec(name="error-rate", metric="error_rate", target=0.05,
                       fast_window_seconds=60.0, slow_window_seconds=300.0,
                       fast_burn=2.0, slow_burn=1.0, resolve_burn=1.0)
        engine = SloEngine([spec], clock=clock)
        # Ten healthy minutes: zero errors, no alert.
        requests = 0
        for _ in range(20):
            clock.advance(30.0)
            requests += 300
            assert engine.observe(_snapshot(requests)) == []
        assert engine.journal.stats()["fired"] == 0
        # Overload: 20% errors.  The fast window (60s) burns immediately,
        # but the alert must wait for the slow window (300s) to agree.
        errors = 0
        events = []
        steps_to_fire = 0
        for step in range(1, 11):
            clock.advance(30.0)
            requests += 300
            errors += 60
            events = engine.observe(_snapshot(requests, errors=errors))
            if events:
                steps_to_fire = step
                break
        assert events and events[0]["kind"] == "fire"
        assert events[0]["name"] == "error-rate"
        assert steps_to_fire > 1  # the slow window held the first spikes back
        assert engine.journal.is_active("error-rate")
        # Dedupe: still burning -> no new events, suppressed counts up.
        clock.advance(30.0)
        requests += 300
        errors += 60
        assert engine.observe(_snapshot(requests, errors=errors)) == []
        assert engine.journal.stats()["suppressed"] >= 1
        assert engine.journal.stats()["fired"] == 1
        # Recovery: errors stop; once the fast window is clean it resolves.
        resolved = []
        for _ in range(10):
            clock.advance(30.0)
            requests += 300
            resolved = engine.observe(_snapshot(requests, errors=errors))
            if resolved:
                break
        assert resolved and resolved[0]["kind"] == "resolve"
        assert not engine.journal.is_active("error-rate")
        stats = engine.journal.stats()
        assert stats["fired"] == 1 and stats["resolved"] == 1

    def test_latency_slo_fires_on_sustained_spike(self):
        clock = FakeClock()
        spec = SloSpec(name="p95", metric="latency_p95_ms", target=50.0,
                       fast_window_seconds=60.0, slow_window_seconds=300.0)
        engine = SloEngine([spec], clock=clock)
        requests = 0
        for _ in range(12):
            clock.advance(30.0)
            requests += 10
            engine.observe(_snapshot(requests, p95_ms=10.0))
        fired = []
        for _ in range(12):
            clock.advance(30.0)
            requests += 10
            fired += engine.observe(_snapshot(requests, p95_ms=400.0))
        assert any(event["kind"] == "fire" and event["name"] == "p95"
                   for event in fired)

    def test_no_traffic_is_no_violation(self):
        clock = FakeClock()
        engine = SloEngine([SloSpec(name="err", metric="error_rate",
                                    target=0.05)], clock=clock)
        clock.advance(30.0)
        engine.observe(_snapshot(0))
        status = engine.status()[0]
        assert status["fast_value"] is None
        assert status["fast_burn"] == 0.0

    def test_status_is_json_safe(self):
        clock = FakeClock()
        engine = SloEngine(default_slo_specs(), clock=clock)
        engine.observe(_snapshot(100, errors=1))
        json.dumps(engine.status())


class TestAlertJournal:
    def test_dedupe_and_bounds(self):
        clock = FakeClock()
        journal = AlertJournal(clock=clock)
        assert journal.fire("a") is not None
        assert journal.fire("a") is None  # active -> suppressed
        assert journal.stats()["suppressed"] == 1
        assert journal.resolve("missing") is None
        for index in range(MAX_EVENTS):
            journal.fire(f"alert-{index}")
        assert journal.stats()["events"] == MAX_EVENTS  # bounded deque
        assert journal.events()[0]["name"] == "alert-0"  # "a" was dropped

    def test_resolve_records_active_duration(self):
        clock = FakeClock()
        journal = AlertJournal(clock=clock)
        journal.fire("slo")
        clock.advance(120.0)
        event = journal.resolve("slo")
        assert event["active_seconds"] == pytest.approx(120.0)


class TestOverloadDrivesSloAlert:
    def test_burst_overload_fires_and_resolves_a_latency_slo(self, monkeypatch):
        """The acceptance scenario end to end, off the wall clock: a seeded
        burst scenario overloads a backend, the spike's schedule-relative
        latency burns a latency SLO until it fires, and the steady latency
        the backend returns to resolves it."""
        clock = SteppedTime()
        monkeypatch.setattr(loadgen, "time", clock)
        driver = ScenarioDriver([f"question {index}" for index in range(10)],
                                named_scenario("burst", num_requests=40,
                                               qps=20.0, seed=5))
        phases = iter([phase for phase, _ in driver.plan()])

        def overloadable_backend(question: str) -> list:
            # Saturated during the spike window: 25ms vs 0.2ms service time.
            clock.advance(0.025 if next(phases) == "burst" else 0.0002)
            return []

        report = driver.run(overloadable_backend)
        steady_p95 = report.phases["warmup"]["latency"]["p95_ms"]
        burst_p95 = report.phases["burst"]["latency"]["p95_ms"]
        assert steady_p95 == pytest.approx(0.2)
        assert burst_p95 > 5 * steady_p95  # the spike really overloaded it
        # the backlog drains early in the recovery phase
        assert report.phases["recover"]["latency"]["p50_ms"] == pytest.approx(0.2)

        # Replay the measured phases as monitor observations: steady
        # baseline, the overload window, then steady again.
        clock = FakeClock()
        spec = SloSpec(name="latency-p95", metric="latency_p95_ms", target=5.0,
                       fast_window_seconds=60.0, slow_window_seconds=300.0)
        engine = SloEngine([spec], clock=clock)
        requests = 0

        def observe(p95_ms: float) -> list[dict]:
            nonlocal requests
            clock.advance(30.0)
            requests += 100
            return engine.observe(_snapshot(requests, p95_ms=p95_ms))

        for _ in range(12):
            assert observe(steady_p95) == []
        fired = []
        for _ in range(12):
            fired = observe(burst_p95)
            if fired:
                break
        assert fired and fired[0]["kind"] == "fire"
        assert fired[0]["name"] == "latency-p95"
        resolved = []
        for _ in range(12):
            resolved = observe(steady_p95)
            if resolved:
                break
        assert resolved and resolved[0]["kind"] == "resolve"
        stats = engine.journal.stats()
        assert stats["fired"] == 1 and stats["resolved"] == 1
        assert stats["active"] == 0


class TestEwmaBaseline:
    def test_flags_step_change_after_warmup(self):
        tracker = EwmaBaselineTracker()
        for _ in range(8):
            assert tracker.observe({"decode": {"p95_ms": 10.0}}) == []
        regressions = tracker.observe({"decode": {"p95_ms": 500.0}})
        assert regressions and regressions[0]["stage"] == "decode"
        assert regressions[0]["baseline_ms"] == pytest.approx(10.0, abs=1.0)

    def test_quiet_during_warmup_and_on_noise(self):
        tracker = EwmaBaselineTracker()
        values = [10.0, 11.0, 9.5, 10.5, 10.0, 10.2, 9.8, 10.1]
        for value in values:
            assert tracker.observe({"encode": {"p95_ms": value}}) == []
        assert tracker.baselines()["encode"]["observations"] == len(values)


# -- the monitor ---------------------------------------------------------------
class _StubService:
    """A minimal stats()/health() target for monitor tests."""

    def __init__(self):
        self.snapshot = _snapshot(100)
        self.report = HealthReport(component="stub")
        self.raises = False

    def stats(self):
        if self.raises:
            raise RuntimeError("stats broke")
        return self.snapshot

    def health(self):
        return self.report


class TestMonitor:
    def test_tick_stores_latest_and_counts(self):
        clock = FakeClock()
        stub = _StubService()
        monitor = Monitor(stub, specs=[], clock=clock)
        assert monitor.latest() is None
        latest = monitor.tick()
        assert latest["health"]["status"] == "ok"
        assert monitor.latest()["at"] == clock.now
        assert monitor.summary()["ticks"] == 1

    def test_tick_errors_are_counted_never_fatal(self):
        stub = _StubService()
        monitor = Monitor(stub, specs=[], clock=FakeClock())
        stub.raises = True
        assert monitor.tick() is None
        stub.raises = False
        assert monitor.tick() is not None
        summary = monitor.summary()
        assert summary["ticks"] == 2 and summary["tick_errors"] == 1
        assert "stats broke" in summary["last_error"]

    def test_baseline_regressions_fire_and_resolve_as_warn_alerts(self):
        clock = FakeClock()
        stub = _StubService()
        monitor = Monitor(stub, specs=[], clock=clock)
        for _ in range(6):
            stub.snapshot = dict(_snapshot(100), stages={"decode": {"p95_ms": 10.0}})
            monitor.tick()
        stub.snapshot = dict(_snapshot(100), stages={"decode": {"p95_ms": 900.0}})
        latest = monitor.tick()
        assert any(event["name"] == "baseline:decode"
                   and event["severity"] == "warn"
                   for event in latest["events"])
        # back to normal (the EWMA absorbs the spike within a few readings)
        resolved = False
        for _ in range(10):
            stub.snapshot = dict(_snapshot(100), stages={"decode": {"p95_ms": 10.0}})
            latest = monitor.tick()
            if any(event["kind"] == "resolve" for event in latest["events"]):
                resolved = True
                break
        assert resolved
        assert not monitor.engine.journal.is_active("baseline:decode")

    def test_the_summary_shape_is_pinned(self):
        monitor = Monitor(_StubService(), specs=[], clock=FakeClock())
        before = monitor.summary()
        assert set(before) == {"running", "interval_seconds", "ticks",
                               "tick_errors", "last_error", "last_tick_at",
                               "alerts"}
        assert (before["ticks"], before["last_tick_at"]) == (0, None)
        monitor.tick()
        assert monitor.summary()["last_tick_at"] == FakeClock().now
        assert json.loads(json.dumps(monitor.summary())) == monitor.summary()

    def test_the_monitor_takes_only_what_the_ops_daemon_sets(self):
        """Specs, interval and clock are the monitor's settings; the
        thresholds, journal, history and baseline knobs are constants, and
        no shim takes the old arguments."""
        for knobs in ({"policy": None}, {"journal": None}, {"baseline": None},
                      {"track_baselines": False}):
            with pytest.raises(TypeError):
                Monitor(_StubService(), **knobs)
        with pytest.raises(TypeError):
            AlertJournal(max_events=4)
        with pytest.raises(TypeError):
            SloEngine([], max_points=4)
        with pytest.raises(TypeError):
            EwmaBaselineTracker(warmup=3)
        with pytest.raises(ImportError):
            from repro.obs.health import HealthPolicy  # noqa: F401

    @pytest.mark.parametrize("interval_seconds", [0.0, -1.0])
    def test_a_non_positive_interval_is_refused(self, interval_seconds):
        with pytest.raises(ValueError, match="interval_seconds"):
            Monitor(_StubService(), interval_seconds=interval_seconds)

    def test_check_now_reads_a_fresh_verdict_not_the_last_tick(self):
        stub = _StubService()
        monitor = Monitor(stub, specs=[], clock=FakeClock())
        monitor.tick()
        stub.report = HealthReport(component="stub", status="failing")
        assert monitor.check_now().status == "failing"
        assert monitor.latest()["health"]["status"] == "ok"

    def test_a_loaded_service_stays_ok_and_quiet(self, trained_router):
        """A repeating stream through a real service between ticks on the
        injected clock: the verdict stays ``ok``, no alert fires, every tick
        succeeds and no SLO is firing."""
        clock = FakeClock()
        generator = LoadGenerator(QUESTIONS, WorkloadConfig(
            num_requests=40, unique_fraction=0.2, seed=17, concurrency=2))
        with RoutingService(trained_router,
                            ServingConfig(enable_tracing=False)) as service:
            monitor = Monitor(service, clock=clock)
            for _ in range(8):
                assert generator.run(service.submit).errors == 0
                clock.advance(monitor.interval_seconds)
                latest = monitor.tick()
            health = monitor.check_now()
            summary = monitor.summary()
        assert health.status == "ok", health.reasons
        assert (summary["ticks"], summary["tick_errors"]) == (8, 0)
        assert summary["alerts"]["active"] == summary["alerts"]["fired"] == 0
        assert not any(status["firing"] for status in latest["slo"])

    def test_shutdown_leaves_no_live_threads(self):
        stub = _StubService()
        monitor = Monitor(stub, specs=[], interval_seconds=0.01)
        monitor.start()
        assert monitor.is_running()
        monitor.close()
        monitor.close()  # idempotent
        assert not monitor.is_running()
        assert not any(thread.name == "repro-obs-monitor" and thread.is_alive()
                       for thread in threading.enumerate())
        assert monitor.summary()["ticks"] >= 1


# -- the ops endpoint over a real socket ---------------------------------------
def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestOpsEndpoint:
    @pytest.fixture()
    def stack(self, trained_router):
        service = RoutingService(trained_router,
                                 config=ServingConfig())
        monitor = Monitor(service, interval_seconds=60.0)
        server = OpsServer(monitor).start()
        yield service, monitor, server
        server.close()
        monitor.close()
        service.close()

    def test_healthz_and_metrics_over_a_real_socket(self, stack):
        service, monitor, server = stack
        service.submit("Which databases mention concerts?")
        code, body = _get(f"{server.url}/healthz")
        assert code == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["children"][0]["component"] == "route_cache"
        code, body = _get(f"{server.url}/metrics")
        assert code == 200
        samples = {name: value
                   for name, _, value in parse_prometheus(body.decode())}
        assert samples["repro_counters_requests"] >= 1.0
        assert "# TYPE repro_counters_requests counter" in body.decode()
        assert any(name.startswith("repro_latency_seconds_bucket")
                   for name, _, _ in parse_prometheus(body.decode()))

    def test_slo_alerts_traces_stats_and_404(self, stack):
        service, monitor, server = stack
        monitor.tick()
        code, body = _get(f"{server.url}/slo")
        assert code == 200
        assert {spec["name"] for spec in json.loads(body)["specs"]} \
            == {"latency-p95", "error-rate"}
        code, body = _get(f"{server.url}/alerts")
        assert code == 200 and json.loads(body)["stats"]["fired"] == 0
        code, body = _get(f"{server.url}/traces")
        assert code == 200 and "stats" in json.loads(body)
        code, body = _get(f"{server.url}/stats")
        assert code == 200 and "counters" in json.loads(body)
        code, _ = _get(f"{server.url}/nope")
        assert code == 404
        code, body = _get(f"{server.url}/")
        assert code == 200 and "/healthz" in json.loads(body)["endpoints"]

    def test_healthz_flips_to_503_when_the_service_fails(self, stack):
        service, monitor, server = stack
        assert _get(f"{server.url}/healthz")[0] == 200
        service.close()
        code, body = _get(f"{server.url}/healthz")
        assert code == 503
        assert json.loads(body)["status"] == "failing"


class TestKilledShardHealthz:
    def test_healthz_flips_while_a_killed_shard_is_down(self, trained_router):
        """The acceptance scenario: kill a subprocess shard -> /healthz goes
        non-200 (cluster degraded, that shard failing); respawn -> 200."""
        cluster = ClusterRoutingService.from_router(
            trained_router, ClusterConfig(num_shards=2,
                                          worker_backend="subprocess"))
        monitor = Monitor(cluster, interval_seconds=60.0)
        server = OpsServer(monitor).start()
        try:
            code, body = _get(f"{server.url}/healthz")
            assert code == 200 and json.loads(body)["status"] == "ok"

            worker = cluster.shards[0].workers[0]
            worker.kill()
            code, body = _get(f"{server.url}/healthz")
            assert code == 503
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            shard0 = payload["children"][0]
            assert shard0["status"] == "failing"
            assert any("not running" in reason
                       for child in shard0["children"]
                       for reason in child["reasons"])

            worker.respawn()
            code, body = _get(f"{server.url}/healthz")
            assert code == 200 and json.loads(body)["status"] == "ok"
            # The cluster still answers after the round trip.
            routes = cluster.submit("Which databases mention concerts?")
            assert routes
        finally:
            server.close()
            monitor.close()
            cluster.close()
