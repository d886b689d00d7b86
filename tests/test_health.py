"""Health probes, rollup precedence, and the ops HTTP endpoint.

The contracts:

* verdicts roll up bottom-up with fixed precedence — one failing child
  degrades the parent, only *all* children failing fails it;
* ``/healthz`` answers 200 exactly when the verdict is ``ok`` and flips to
  503 while a killed subprocess shard is down, recovering after respawn;
* ``/metrics`` serves parseable Prometheus text over a real socket, and
  every series the shipped rules file reads is one it emits;
* a read that raises answers 500 and the server keeps serving;
* the server closes cleanly, started or not, and the daemon closes the
  service it booted when its port is taken.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_serving import QUESTIONS, _serving_catalog

from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
import repro.cluster
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
from repro.obs import httpd
from repro.obs.httpd import OpsServer
from repro.obs.export import parse_prometheus, to_prometheus
from repro.serving import (
    LoadGenerator,
    RoutingService,
    ServingConfig,
    WorkloadConfig,
)

RULES = Path(__file__).resolve().parents[1] / "examples" / "prometheus_rules.yml"


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
        with pytest.raises(ImportError):  # thresholds are constants, no policy
            from repro.obs.health import HealthPolicy  # noqa: F401

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

    def test_a_loaded_service_stays_ok(self, trained_router):
        """A repeating stream through a real service: every wave answers
        without error and the verdict stays ``ok`` between waves."""
        generator = LoadGenerator(QUESTIONS, WorkloadConfig(
            num_requests=40, unique_fraction=0.2, seed=17, concurrency=2))
        with RoutingService(trained_router,
                            ServingConfig(enable_tracing=False)) as service:
            for _ in range(8):
                assert generator.run(service.submit).errors == 0
                health = service.health()
                assert health.status == "ok", health.reasons


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
        server = OpsServer(service).start()
        yield service, server
        server.close()
        service.close()

    def test_healthz_and_metrics_over_a_real_socket(self, stack):
        service, server = stack
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
        _, server = stack
        code, body = _get(f"{server.url}/traces")
        assert code == 200 and "stats" in json.loads(body)
        code, body = _get(f"{server.url}/stats")
        assert code == 200 and "counters" in json.loads(body)
        for missing in ("nope", "slo", "alerts"):  # no alerting endpoints
            assert _get(f"{server.url}/{missing}")[0] == 404
        code, body = _get(f"{server.url}/")
        assert code == 200 and "/healthz" in json.loads(body)["endpoints"]

    def test_healthz_flips_to_503_when_the_service_fails(self, stack):
        service, server = stack
        assert _get(f"{server.url}/healthz")[0] == 200
        service.close()
        code, body = _get(f"{server.url}/healthz")
        assert code == 503
        assert json.loads(body)["status"] == "failing"

    def test_close_leaves_no_live_threads(self, stack):
        _, server = stack
        assert _get(f"{server.url}/healthz")[0] == 200
        server.close()
        server.close()  # idempotent
        assert not any(thread.name == "repro-obs-httpd" and thread.is_alive()
                       for thread in threading.enumerate())

    def test_closing_a_server_that_never_started_returns(self):
        """``shutdown()`` waits for a serve loop; one that never began must
        not hang ``close()``, and the listener must still be released."""
        server = OpsServer(object())  # the service is read only per request
        port = server.port
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))

    def test_the_daemon_closes_its_service_when_the_port_is_taken(
            self, monkeypatch):
        closed = []

        class _Service:
            def close(self) -> None:
                closed.append(True)

        monkeypatch.setattr(RoutingService, "from_checkpoint",
                            staticmethod(lambda path: _Service()))
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            with pytest.raises(OSError):
                httpd.main(["--checkpoint", "unused",
                            "--port", str(holder.getsockname()[1])])
        assert closed == [True]


    def test_the_daemon_closes_a_cluster_it_booted_when_the_port_is_taken(
            self, monkeypatch):
        closed = []

        class _Cluster:
            def close(self) -> None:
                closed.append(True)

        monkeypatch.setattr(repro.cluster, "load_cluster",
                            lambda path: _Cluster())
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            with pytest.raises(OSError):
                httpd.main(["--cluster-checkpoint", "unused",
                            "--port", str(holder.getsockname()[1])])
        assert closed == [True]

    @pytest.mark.parametrize("argv", [
        [],
        ["--checkpoint", "a", "--cluster-checkpoint", "b"],
        ["--checkpoint"],
        ["--checkpoint", "a", "--port", "http"],
    ], ids=["no-source", "two-sources", "no-dir", "port-not-int"])
    def test_the_daemon_refuses_a_bad_command_line(self, argv, monkeypatch):
        """Exactly one checkpoint source with its directory, and an integer
        port; argparse exits before any service boots."""
        booted = []
        monkeypatch.setattr(RoutingService, "from_checkpoint",
                            staticmethod(booted.append))
        with pytest.raises(SystemExit) as exit_info:
            httpd.main(argv)
        assert exit_info.value.code == 2
        assert booted == []


# -- the handler's contract, against a stub service ----------------------------
class _StubService:
    """The four reads the handler makes; each raises while ``raises`` is set."""

    def __init__(self) -> None:
        self.report = HealthReport(component="stub")
        self.raises = False
        self.tracer = SimpleNamespace(journal=SimpleNamespace(
            stats=lambda: self._read({"recorded": 0}),
            slowest=lambda: self._read([])))

    def _read(self, value):
        if self.raises:
            raise RuntimeError("stub broke")
        return value

    def health(self) -> HealthReport:
        return self._read(self.report)

    def stats(self) -> dict:
        return self._read({"counters": {"requests": 3, "errors": 1}})


def _request(url: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestOpsHandler:
    @pytest.fixture()
    def stub(self):
        service = _StubService()
        with OpsServer(service).start() as server:
            yield service, server

    @pytest.mark.parametrize("status,code", [
        ("ok", 200), ("degraded", 503), ("failing", 503)])
    def test_healthz_answers_200_only_for_ok(self, stub, status, code):
        service, server = stub
        service.report = HealthReport(component="stub", status=status,
                                      reasons=[f"it is {status}"])
        got, _, body = _request(f"{server.url}/healthz")
        assert got == code
        assert json.loads(body) == service.report.to_dict()

    @pytest.mark.parametrize("path", ["/healthz", "/metrics", "/traces",
                                      "/stats"])
    def test_a_raising_read_is_a_500_and_the_server_keeps_serving(
            self, stub, path):
        service, server = stub
        service.raises = True
        code, _, body = _request(f"{server.url}{path}")
        assert code == 500
        assert json.loads(body) == {"error": "RuntimeError: stub broke"}
        service.raises = False
        assert _request(f"{server.url}{path}")[0] == 200

    @pytest.mark.parametrize("path,content_type", [
        ("/", "application/json"),
        ("/healthz", "application/json"),
        ("/metrics", "text/plain; version=0.0.4"),
        ("/traces", "application/json"),
        ("/stats", "application/json"),
    ])
    def test_each_endpoint_declares_its_type_and_length(self, stub, path,
                                                        content_type):
        _, server = stub
        code, headers, body = _request(f"{server.url}{path}")
        assert code == 200
        assert headers["Content-Type"] == content_type
        assert int(headers["Content-Length"]) == len(body)

    @pytest.mark.parametrize("path", ["/healthz/", "/stats?pretty=1",
                                      "/traces/?since=0"])
    def test_a_query_or_trailing_slash_reaches_the_endpoint(self, stub,
                                                            path):
        _, server = stub
        code, _, body = _request(f"{server.url}{path}")
        assert code == 200 and json.loads(body)

    def test_the_prefix_names_every_metric(self):
        with OpsServer(_StubService(), prefix="dbc").start() as server:
            code, _, body = _request(f"{server.url}/metrics")
        assert code == 200
        samples = dict((name, value) for name, _, value
                       in parse_prometheus(body.decode()))
        assert samples == {"dbc_counters_requests": 3.0,
                           "dbc_counters_errors": 1.0}

    def test_a_second_start_runs_no_second_serve_thread(self, stub):
        _, server = stub
        assert server.start() is server
        assert sum(thread.name == "repro-obs-httpd" and thread.is_alive()
                   for thread in threading.enumerate()) == 1


# -- the shipped objectives read what the exporter emits -----------------------
@pytest.mark.parametrize("kind", ["monolith", "fleet"])
def test_every_rule_series_is_exported(trained_router, kind, monkeypatch):
    """Each ``repro_*`` series an ``expr:`` line of the rules file reads is
    one the exporter emits, once the service has answered a question and
    counted a failed submit (``repro_counters_errors`` appears only then)."""
    exprs = [line for line in RULES.read_text().splitlines()
             if line.strip().startswith("expr:")]
    read = {name for line in exprs for name in re.findall(r"\brepro_\w+", line)}
    assert len(exprs) == 2 and read

    if kind == "monolith":
        service = RoutingService(trained_router, config=ServingConfig())
    else:
        service = ClusterRoutingService.from_router(
            trained_router, ClusterConfig(num_shards=2))
    with service:
        service.submit("Which databases mention concerts?")

        def explode(*args, **kwargs):
            raise RuntimeError("decode broke")

        monkeypatch.setattr(getattr(service, "front", service).router,
                            "route_batch", explode)
        with pytest.raises(RuntimeError):
            service.submit("a question never seen before")
        stats = service.stats()
    assert stats["counters"]["errors"] == 1
    emitted = {name for name, _, _ in parse_prometheus(to_prometheus(stats))}
    assert read <= emitted, sorted(read - emitted)


@pytest.mark.parametrize("alert,objective", [
    ("ReproLatencyP95", "0.5"), ("ReproErrorRate", "0.05")])
def test_each_alert_burns_a_fast_and_a_slow_window(alert, objective):
    """Both objectives keep the burn-rate shape: the 1m window at 2x the
    objective and the 5m window at 1x, in the exporter's units (latency
    in seconds, matching ``repro_latency_seconds``)."""
    lines = RULES.read_text().splitlines()
    start = lines.index(f"      - alert: {alert}")
    expr = lines[start + 1].strip()
    assert expr.startswith("expr: ")
    fast, slow = expr.split(" and ")
    assert "[1m]" in fast and "[5m]" not in fast
    assert fast.endswith(f">= 2 * {objective}")
    assert "[5m]" in slow and "[1m]" not in slow
    assert slow.endswith(f">= 1 * {objective}")


class TestKilledShardHealthz:
    def test_healthz_flips_while_a_killed_shard_is_down(self, trained_router):
        """The acceptance scenario: kill a subprocess shard -> /healthz goes
        non-200 (cluster degraded, that shard failing); respawn -> 200."""
        cluster = ClusterRoutingService.from_router(
            trained_router, ClusterConfig(num_shards=2,
                                          worker_backend="subprocess"))
        server = OpsServer(cluster).start()
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
            cluster.close()
