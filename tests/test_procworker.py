"""Multi-process shard workers: spawn, serve, crash, respawn, agree.

Uses a real 2-shard cluster checkpoint (trained once per module) so the
subprocess workers boot exactly the artifact production would hand them: its
``master/`` router, projected onto one shard's databases.  The core
contracts:

* a subprocess worker answers **bit-identically** to an in-process worker
  projected from the same master (scores cross the wire as raw float64);
* the whole subprocess-backed cluster matches the inproc-backed cluster on a
  seeded workload (the >= 95%% acceptance bar -- deterministic decode actually
  makes it 100%%);
* a worker killed mid-batch is survived: the replica layer fails over, the
  proxy respawns the process from its checkpoint, and no request fails;
* a request that outlives its timeout kills the wedged process and surfaces
  as :class:`ShardTimeoutError`, counted in ``shards_timed_out``;
* a traced request comes back as ONE stitched trace: the worker's spans ride
  the ``route_response`` frame and splice under the dispatcher's ``wire``
  span;
* crashed or abandoned shard requests close their spans with an error status
  instead of leaking open traces.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from test_cluster import QUESTIONS, _cluster_catalog
from test_wire_lifecycle import FRAMES, Caller, ScriptedWorker

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterRoutingService,
    ProcShardWorker,
    ShardTimeoutError,
    ShardWorker,
    WorkerCrashedError,
    load_cluster,
    load_cluster_manifest,
    save_cluster,
)
import repro.cluster.procworker as procworker
from repro.cluster.procworker import SLOW_CAREFUL_ENV, serve, worker_main
from repro.cluster.transport import (
    BINARY_KEY,
    PROTOCOL_VERSION,
    VersionMismatchError,
    check_protocol,
    read_frame,
    route_lists_from_binary,
    write_frame,
)
from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    merge_route_lists,
    synthesize_training_data,
)
from repro.obs import Tracer, to_prometheus
from repro.obs.health import HEARTBEAT_MAX_AGE_SECONDS
from repro.serving.checkpoint import load_router


@pytest.fixture(scope="module")
def master_router() -> SchemaRouter:
    catalog = _cluster_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=23)
    sampler = SchemaSampler(graph, seed=23)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=300))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=8, beam_groups=4,
        seed=23))
    router.fit(report.examples)
    return router


@pytest.fixture(scope="module")
def cluster_checkpoint(master_router, tmp_path_factory):
    """A saved 2-shard cluster both backends boot from."""
    built = ClusterRoutingService.from_router(
        master_router, ClusterConfig(num_shards=2))
    path = save_cluster(built, tmp_path_factory.mktemp("procworker") / "cluster-ckpt")
    built.close()
    return path


def _databases(cluster_checkpoint, shard_id: int = 0) -> tuple[str, ...]:
    manifest = load_cluster_manifest(cluster_checkpoint)
    return tuple(manifest["assignment"]["shards"][shard_id])


def _proc_worker(cluster_checkpoint, **kwargs) -> ProcShardWorker:
    """Shard 0 of the saved cluster in a worker process."""
    return ProcShardWorker(0, cluster_checkpoint / "master",
                           _databases(cluster_checkpoint), num_shards=2, **kwargs)


def _local_worker(cluster_checkpoint, careful_tier: bool = False) -> ShardWorker:
    """The same shard projected in this process."""
    return ShardWorker(0, _databases(cluster_checkpoint),
                       load_router(cluster_checkpoint / "master"), 2, careful_tier)


def _signature(route_lists):
    return [[(route.database, route.tables, route.score) for route in routes]
            for routes in route_lists]


def _reply_routes(reply):
    return route_lists_from_binary(reply["routes_binary"], reply[BINARY_KEY])


class _SteppingClock:
    """A clock that advances by ``step`` every time it is read."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 100.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# -- one worker over the wire --------------------------------------------------
class TestProcShardWorker:
    def test_handshake_announces_the_shard(self, cluster_checkpoint):
        with _proc_worker(cluster_checkpoint) as worker:
            assert worker.is_alive()
            assert worker.pid is not None and worker.pid != os.getpid()
            assert len(worker.databases) > 0
            assert worker.databases == _databases(cluster_checkpoint)

    def test_routes_bit_identical_to_inproc_worker(self, cluster_checkpoint):
        local = _local_worker(cluster_checkpoint, careful_tier=True)
        with _proc_worker(cluster_checkpoint, careful_tier=True) as worker:
            questions = list(QUESTIONS)
            assert _signature(worker.route_batch(questions, max_candidates=3)) \
                == _signature(local.route_batch(questions, max_candidates=3))
            # The careful (escalation) tier crosses the wire too.
            assert _signature(worker.route_batch(questions, careful=True)) \
                == _signature(local.route_batch(questions, careful=True))
        local.close()

    def test_ping_and_stats(self, cluster_checkpoint):
        with _proc_worker(cluster_checkpoint) as worker:
            assert worker.ping() < 30.0
            worker.route_batch(list(QUESTIONS[:2]))
            stats = worker.stats()
            assert stats["shard_id"] == 0
            assert stats["databases"] == list(_databases(cluster_checkpoint))
            assert stats["traces"]["completed"] == 0
            assert stats["transport"]["alive"] is True
            assert stats["transport"]["backend"] == "subprocess"
            assert stats["transport"]["requests_sent"] == 3  # route, ping, stats

    def test_graceful_close_stops_the_process(self, cluster_checkpoint):
        worker = _proc_worker(cluster_checkpoint)
        process = worker.process
        worker.close()
        assert process.poll() is not None  # actually exited, not just orphaned
        assert not worker.is_alive()
        with pytest.raises(RuntimeError):
            worker.route_batch(["anything"])

    def test_crash_mid_request_raises_and_respawn_recovers(self, cluster_checkpoint):
        with _proc_worker(cluster_checkpoint) as worker:
            first_pid = worker.pid
            baseline = worker.route_batch(list(QUESTIONS[:2]))
            worker.crash()
            assert not worker.is_alive()
            # Nothing was in flight, so nobody read the EOF: the polls in
            # between see a dead worker but count nothing ...
            assert worker.health().status == "failing"
            assert "traces" not in worker.stats()  # the shell, not a reply
            assert worker.crashes == 0
            # ... and the next request counts the crash once, then respawns:
            # a fresh process from the same checkpoint answers identically.
            again = worker.route_batch(list(QUESTIONS[:2]))
            assert worker.crashes == 1
            assert worker.is_alive()
            assert worker.pid != first_pid
            assert worker.respawns == 1
            assert _signature(again) == _signature(baseline)

    def test_spawn_seconds_is_the_live_childs_boot_on_the_injected_clock(
            self, cluster_checkpoint):
        """``Popen`` -> ``hello_ack`` is two reads of the worker's clock: a
        clock that steps per read makes it exactly one step, and a respawn
        replaces the number with the new child's."""
        clock = _SteppingClock(step=0.25)
        with _proc_worker(cluster_checkpoint, clock=clock) as worker:
            assert worker.transport_stats()["spawn_seconds"] == 0.25
            assert worker.health().details["spawn_seconds"] == 0.25
            worker.crash()
            clock.step = 0.5
            worker.route_batch(list(QUESTIONS[:1]))  # auto-respawn
            stats = worker.transport_stats()
            assert stats["respawns"] == 1
            assert stats["spawn_seconds"] == 0.5
            assert worker.health().details["spawn_seconds"] == 0.5
            text = to_prometheus({"transport": stats})
            assert "# TYPE repro_transport_spawn_seconds gauge" in text
            assert "# TYPE repro_transport_respawns counter" in text

    def test_crash_without_auto_respawn_surfaces(self, cluster_checkpoint):
        with _proc_worker(cluster_checkpoint, auto_respawn=False) as worker:
            worker.crash()
            with pytest.raises(WorkerCrashedError):
                worker.route_batch(list(QUESTIONS[:1]))

    def test_request_timeout_kills_the_wedged_process(self, cluster_checkpoint):
        with _proc_worker(cluster_checkpoint, request_timeout_seconds=0.001) as worker:
            victim = worker.process
            os.kill(victim.pid, signal.SIGSTOP)  # wedged: cannot beat the clock
            with pytest.raises(ShardTimeoutError):
                worker.route_batch(list(QUESTIONS))
            assert worker.timeouts == 1
            assert victim.poll() is not None  # a wedged worker is killed
            # Relaxing the deadline and retrying respawns and succeeds.
            worker.request_timeout_seconds = None
            assert len(worker.route_batch(list(QUESTIONS[:1]))) == 1

    def test_missing_checkpoint_fails_spawn(self, tmp_path):
        with pytest.raises(WorkerCrashedError):
            ProcShardWorker(0, tmp_path / "no-such-checkpoint", ("world_atlas",),
                            spawn_timeout_seconds=30.0)

    def test_close_waits_for_the_shutdown_ack_without_polling(self, monkeypatch):
        """The ack's deadline edge: ``close()`` sends ``shutdown`` behind the
        in-flight frames at once and waits for the ack like any caller --
        reading or sleeping on the worker's condition, never in a
        sleep-and-poll loop.  Nobody answers the scripted child's
        three frames, so no ack comes, the wait runs to its deadline and the
        stop escalates to a kill that fails every one of them."""
        def no_sleep(seconds: float) -> None:
            raise AssertionError(f"close() polled with time.sleep({seconds})")

        worker = ScriptedWorker()
        callers = [Caller(worker, "route", f"question-{frame}") for frame in FRAMES]
        monkeypatch.setattr(procworker, "time", SimpleNamespace(
            monotonic=time.monotonic, sleep=no_sleep))
        worker.close(shutdown_timeout_seconds=0.2)
        assert [frame["type"] for frame in worker.children[0].frames[-4:]] \
            == ["route_batch_request"] * 3 + ["shutdown"]
        assert all(isinstance(caller.settle(), WorkerCrashedError)
                   for caller in callers)
        assert worker.in_flight == 0
        assert worker.children[0].process.kills == 1

    def test_set_databases_is_refused_over_the_wire(self, cluster_checkpoint,
                                                    master_router):
        with _proc_worker(cluster_checkpoint) as worker:
            with pytest.raises(Exception, match="re-projected"):
                worker.set_databases(("world_atlas",), master_router)


class TestRetiredFastBackend:
    def test_fast_manifests_boot_the_exact_kernel_in_both_backends(
            self, cluster_checkpoint, tmp_path):
        """A cluster saved before ``decode_backend="fast"`` was retired: its
        master manifest says ``"fast"``.  It boots inproc and as a
        2-worker subprocess fleet, on the exact kernel, and both answer like
        the unedited inproc fleet to the last bit of every score."""
        edited = shutil.copytree(cluster_checkpoint, tmp_path / "fast-ckpt")
        for manifest_path in edited.glob("*/manifest.json"):
            manifest = json.loads(manifest_path.read_text())
            manifest["router_config"]["decode_backend"] = "fast"
            manifest_path.write_text(json.dumps(manifest))
        questions = list(QUESTIONS)

        def hex_signature(cluster):
            return [[(route.database, route.tables, route.score.hex())
                     for route in routes] for routes in cluster.submit_many(questions)]

        with load_cluster(cluster_checkpoint) as unedited:
            expected = hex_signature(unedited)
        with load_cluster(edited) as inproc:
            assert inproc.master_router.config.decode_backend == "vectorized"
            assert inproc.wave_engine is not None
            assert hex_signature(inproc) == expected
        with load_cluster(edited, config=ClusterConfig(
                worker_backend="subprocess")) as fleet:
            assert len(fleet.shards) == 2
            assert hex_signature(fleet) == expected


@pytest.mark.parametrize("flag", [["--no-cache"], ["--cache-size", "7"],
                                  ["--cache-ttl-seconds", "1.0"],
                                  ["--num-beams", "2"],
                                  ["--escalation-num-beams", "2"]])
def test_a_worker_takes_no_cache_flag(tmp_path, flag):
    """A worker holds no route cache, so its command line sizes none, and
    takes the rule's inputs, never a beam budget: the retired flags are a
    usage error before anything loads."""
    with pytest.raises(SystemExit) as exit_info:
        worker_main(["--master", str(tmp_path), "--databases", "a", *flag])
    assert exit_info.value.code == 2


# -- the serve loop, driven in-process ----------------------------------------
class TestServeLoop:
    @pytest.fixture(autouse=True)
    def _close_pipes(self):
        """Every pipe end a test opened is closed after it, pass or fail."""
        self._files = []
        yield
        for pipe in self._files:
            pipe.close()

    def _pipes(self):
        to_worker_read, to_worker_write = os.pipe()
        from_worker_read, from_worker_write = os.pipe()
        self._files = [os.fdopen(to_worker_read, "rb", buffering=0),
                       os.fdopen(to_worker_write, "wb", buffering=0),
                       os.fdopen(from_worker_read, "rb", buffering=0),
                       os.fdopen(from_worker_write, "wb", buffering=0)]
        return tuple(self._files)

    def _start(self, cluster_checkpoint, careful_tier: bool = False, **serve_kwargs):
        worker = _local_worker(cluster_checkpoint, careful_tier)
        worker_in, to_worker, from_worker, worker_out = self._pipes()
        self._worker_ends = (worker_in, worker_out)
        thread = threading.Thread(target=serve, args=(worker, worker_in, worker_out),
                                  kwargs=serve_kwargs, daemon=True)
        thread.start()
        hello = read_frame(from_worker)
        assert hello["type"] == "hello"
        check_protocol(hello)
        write_frame(to_worker, {"type": "hello_ack",
                                "protocol": PROTOCOL_VERSION})
        return worker, thread, to_worker, from_worker

    def _stop(self, worker, thread, to_worker, from_worker):
        write_frame(to_worker, {"type": "shutdown", "id": 99})
        assert read_frame(from_worker)["type"] == "shutdown_ack"
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        worker.close()

    def test_request_scoped_errors_keep_the_worker_serving(self, cluster_checkpoint):
        worker, thread, to_worker, from_worker = self._start(cluster_checkpoint)
        try:
            # "pong" is a valid frame but not something a worker handles: the
            # reply is an error frame, not a dead worker.
            write_frame(to_worker, {"type": "pong", "id": 1})
            reply = read_frame(from_worker)
            assert reply["type"] == "error" and reply["id"] == 1
            # a malformed batch (questions not a list) is request-scoped too
            write_frame(to_worker, {"type": "route_batch_request", "id": 2,
                                    "questions": None})
            assert read_frame(from_worker)["type"] == "error"
            # ...and the worker still answers real requests afterwards
            write_frame(to_worker, {"type": "route_batch_request", "id": 3,
                                    "questions": [QUESTIONS[0]]})
            reply = read_frame(from_worker)
            assert reply["type"] == "route_response" and reply["id"] == 3
            assert len(_reply_routes(reply)) == 1
            assert "spans" not in reply  # a traceless request ships no spans
        finally:
            self._stop(worker, thread, to_worker, from_worker)

    def test_serve_refuses_an_ack_at_another_version(self, cluster_checkpoint):
        worker = _local_worker(cluster_checkpoint)
        worker_in, to_worker, from_worker, worker_out = self._pipes()
        write_frame(to_worker, {"type": "hello_ack",
                                "protocol": PROTOCOL_VERSION - 1})
        with pytest.raises(VersionMismatchError):
            serve(worker, worker_in, worker_out)
        assert read_frame(from_worker)["protocol"] == PROTOCOL_VERSION
        worker.close()

    def test_closing_the_pipe_shuts_the_worker_down(self, cluster_checkpoint):
        worker, thread, to_worker, from_worker = self._start(cluster_checkpoint)
        to_worker.close()  # dispatcher vanishes; EOF is treated as shutdown
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        # a worker process exits here, which closes its ends of the pipes
        for end in self._worker_ends:
            end.close()
        assert read_frame(from_worker) is None
        worker.close()

    def test_replies_leave_in_arrival_order(self, cluster_checkpoint):
        """One serve loop answers frames in the order they arrive: a slow
        careful frame sent first answers first, the fast frames pipelined
        behind it follow in send order, and a ``ping`` behind them all is
        answered last.  The correlation ids still name every reply."""
        worker, thread, to_worker, from_worker = self._start(
            cluster_checkpoint, careful_tier=True,
            slow_careful_seconds=0.2)
        try:
            rng = random.Random(7)
            for round_ in range(2):
                ids = rng.sample(range(10, 100), 5)
                careful_id, fast_ids = ids[0], ids[1:]
                write_frame(to_worker, {"type": "route_batch_request",
                                        "id": careful_id, "careful": True,
                                        "questions": [QUESTIONS[0]]})
                for fast_id in fast_ids:
                    write_frame(to_worker, {
                        "type": "route_batch_request", "id": fast_id,
                        "questions": [QUESTIONS[fast_id % len(QUESTIONS)]]})
                write_frame(to_worker, {"type": "ping", "id": round_})
                replies = [read_frame(from_worker) for _ in range(len(ids) + 1)]
                assert [(reply["type"], reply["id"]) for reply in replies] == \
                    [("route_response", request_id) for request_id in ids] \
                    + [("pong", round_)]
                assert all(len(_reply_routes(reply)) == 1 for reply in replies[:-1])
        finally:
            self._stop(worker, thread, to_worker, from_worker)

    def test_serve_runs_on_one_thread(self, cluster_checkpoint):
        """The loop decodes on the thread that read the frame: every decode,
        fast and careful, runs on the serve thread, serving starts no other
        thread, and a ``shutdown`` sent right behind three route frames is
        acked after all three replies."""
        before = set(threading.enumerate())
        worker, thread, to_worker, from_worker = self._start(
            cluster_checkpoint, careful_tier=True)
        decoded_on = []
        route_batch = worker.route_batch
        release = threading.Event()

        def spy(*args, **kwargs):
            decoded_on.append(threading.current_thread())
            if len(decoded_on) == 3:
                assert release.wait(10.0)  # hold the loop mid-serve
            return route_batch(*args, **kwargs)

        worker.route_batch = spy
        for request_id, careful in ((1, True), (2, False), (3, True)):
            write_frame(to_worker, {"type": "route_batch_request", "id": request_id,
                                    "careful": careful,
                                    "questions": [QUESTIONS[request_id]]})
        write_frame(to_worker, {"type": "shutdown", "id": 4})
        replies = [read_frame(from_worker) for _ in range(2)]
        # the loop is serving (held in the third decode): one thread, its own
        assert set(threading.enumerate()) - before == {thread}
        assert threading.active_count() == len(before) + 1
        release.set()
        replies += [read_frame(from_worker) for _ in range(2)]
        assert [(reply["type"], reply["id"]) for reply in replies] == [
            ("route_response", 1), ("route_response", 2), ("route_response", 3),
            ("shutdown_ack", 4)]
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert decoded_on == [thread] * 3
        worker.close()

    def test_shutdown_drains_in_flight_decodes_first(self, cluster_checkpoint):
        """Graceful drain: a shutdown pipelined behind a slow request is read
        only after that decode has answered, so the ack comes second."""
        worker, thread, to_worker, from_worker = self._start(
            cluster_checkpoint, careful_tier=True,
            slow_careful_seconds=0.5)
        write_frame(to_worker, {"type": "route_batch_request", "id": 5,
                                "careful": True, "questions": [QUESTIONS[0]]})
        write_frame(to_worker, {"type": "shutdown", "id": 9})
        first = read_frame(from_worker)
        assert first["type"] == "route_response" and first["id"] == 5
        ack = read_frame(from_worker)
        assert ack["type"] == "shutdown_ack" and ack["id"] == 9
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        worker.close()

    def test_trace_field_comes_back_as_adopted_spans(self, cluster_checkpoint):
        """The child-side wire contract: a ``trace`` payload on the request
        frame makes the worker adopt that trace id and ship its span tree
        back in ``route_response.spans`` as positional rows -- ``[parent
        row, name, started, ended, status, error, attributes]``, no ids, no
        trace id, no duration, no remote flag."""
        worker, thread, to_worker, from_worker = self._start(cluster_checkpoint)
        try:
            write_frame(to_worker, {
                "type": "route_batch_request", "id": 1,
                "questions": [QUESTIONS[0], QUESTIONS[1]],
                "trace": {"trace_id": "t" * 16, "parent_span_id": "p" * 16},
            })
            reply = read_frame(from_worker)
            assert reply["type"] == "route_response"
            rows = reply["spans"]
            assert all(isinstance(row, list) and len(row) == 7 for row in rows)
            names = [row[1] for row in rows]
            assert names == ["worker", "encode", "decode", "parse"]
            worker_row, *stages = rows
            # the adopted root's parent is the wire span: not in these rows
            assert worker_row[0] is None
            assert worker_row[6]["shard"] == 0
            for parent, name, started, ended, status, error, _ in stages:
                assert parent == 0  # under the worker row
                assert (status, error) == ("ok", None)
                assert worker_row[2] <= started <= ended <= worker_row[3]
            assert rows[2][6]["steps"] >= 1
        finally:
            write_frame(to_worker, {"type": "shutdown", "id": 99})
            assert read_frame(from_worker)["type"] == "shutdown_ack"
            thread.join(timeout=10.0)
            worker.close()


# -- the multiplexing client, end to end ----------------------------------------
class TestMultiplexedTransport:
    def test_frames_pipeline_on_the_wire_and_decode_in_order(self, cluster_checkpoint,
                                                              monkeypatch):
        """The parent still pipelines: a fast frame goes out while a careful
        one (injected 1 s stall) is in flight on the same worker.  The
        child decodes them in arrival order, so the careful reply lands
        first -- by the time the fast wave returns, nothing is in flight."""
        monkeypatch.setenv(SLOW_CAREFUL_ENV, "1.0")
        with _proc_worker(cluster_checkpoint, careful_tier=True) as worker:
            careful = worker.send_route_batch([QUESTIONS[0]], careful=True)
            fast = worker.send_route_batch(list(QUESTIONS[:2]))
            assert worker.in_flight == 2
            fast_routes = fast()
            # the receiver demuxes in arrival order: the careful reply was
            # settled before the fast one
            assert worker.in_flight == 0
            assert len(fast_routes) == 2 and all(fast_routes)
            assert careful()[0]
            stats = worker.transport_stats()
            assert stats["max_in_flight"] >= 2
            assert stats["pipelined_frames"] >= 1

    def test_health_fails_a_worker_wedged_past_the_ping_deadline(
            self, cluster_checkpoint, monkeypatch):
        """The probe's ping queues behind the frames ahead of it: with a
        careful decode wedged for 3 s and a 0.5 s control deadline, a stale
        heartbeat's ping goes unanswered, so the worker is reported
        ``failing`` and killed by the ping's deadline; the careful caller
        fails with it and the next request boots a fresh child."""
        now = [0.0]
        monkeypatch.setenv(SLOW_CAREFUL_ENV, "3.0")
        with _proc_worker(cluster_checkpoint, careful_tier=True,
                          control_timeout_seconds=0.5,
                          clock=lambda: now[0]) as worker:
            careful = worker.send_route_batch([QUESTIONS[0]], careful=True)
            now[0] = HEARTBEAT_MAX_AGE_SECONDS + 1.0  # the heartbeat is stale
            report = worker.health()
            assert report.status == "failing"
            assert report.details["in_flight"] == 1
            assert worker.timeouts == 1
            with pytest.raises(WorkerCrashedError):
                careful()
            monkeypatch.delenv(SLOW_CAREFUL_ENV)
            assert len(worker.route_batch([QUESTIONS[0]])) == 1
            assert worker.respawns == 1

    def test_crash_mid_wave_fails_all_in_flight_then_respawns_clean(
            self, cluster_checkpoint, monkeypatch):
        monkeypatch.setenv(SLOW_CAREFUL_ENV, "5.0")
        with _proc_worker(cluster_checkpoint, careful_tier=True) as worker:
            waits = [worker.send_route_batch([QUESTIONS[0]], careful=True)
                     for _ in range(3)]
            assert worker.in_flight == 3
            worker.crash()
            # every in-flight frame failed loudly -- none hung, none vanished
            for wait in waits:
                with pytest.raises(WorkerCrashedError):
                    wait()
            assert worker.crashes == 1
            assert worker.in_flight == 0
            # the respawned child must not inherit the stall
            monkeypatch.delenv(SLOW_CAREFUL_ENV)
            again = worker.route_batch(list(QUESTIONS[:2]))
            assert len(again) == 2 and worker.respawns == 1

    def test_timeout_mid_wave_kills_the_worker_and_fails_peers(
            self, cluster_checkpoint, monkeypatch):
        monkeypatch.setenv(SLOW_CAREFUL_ENV, "5.0")
        with _proc_worker(cluster_checkpoint, careful_tier=True,
                          request_timeout_seconds=0.5) as worker:
            victim = worker.process
            errors = []

            def run_careful():
                try:
                    worker.route_batch([QUESTIONS[0]], careful=True)
                except Exception as error:  # noqa: BLE001 - collected for asserts
                    errors.append(error)

            threads = [threading.Thread(target=run_careful, daemon=True)
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            # the first deadline to fire kills the wedged process; its peers
            # fail as either their own timeout or the induced crash -- but
            # every one of them fails, and the kill is counted
            assert len(errors) == 3
            assert all(isinstance(error, (ShardTimeoutError, WorkerCrashedError))
                       for error in errors)
            assert any(isinstance(error, ShardTimeoutError) for error in errors)
            assert worker.timeouts >= 1
            assert victim.poll() is not None
            monkeypatch.delenv(SLOW_CAREFUL_ENV)
            worker.request_timeout_seconds = None
            assert len(worker.route_batch([QUESTIONS[0]])) == 1
            assert worker.respawns >= 1

# -- tracing across the process boundary ---------------------------------------
class TestTracingOverTheWire:
    def test_single_request_produces_one_stitched_trace(self, cluster_checkpoint):
        """The acceptance path: one seeded request through a subprocess-backed
        cluster yields one complete trace -- per-shard scatter and wire spans,
        the workers' own encode/decode/parse spans stitched in from across the
        process boundary, the merge, and (threshold 1.0 forces it) the
        escalation pass -- all under a single trace id."""
        sub = load_cluster(cluster_checkpoint,
                           config=ClusterConfig(worker_backend="subprocess"))
        try:
            # the escalation threshold rides the checkpoint (it is a decode
            # -shape knob); raise it on the live dispatcher so the cascade is
            # guaranteed to fire (merged top-1 softmax weight is always < 1)
            sub.dispatcher.escalation_threshold = 1.0
            routes = sub.submit(QUESTIONS[0], max_candidates=2)
            assert routes and routes[0].database
            journal = sub.tracer.journal
            assert journal.open_trace_count() == 0
            assert journal.open_span_count() == 0
            (record,) = journal.slowest()
            assert record["status"] == "ok"
            spans = record["spans"]
            assert {span["trace_id"] for span in spans} == {record["trace_id"]}
            assert all(span["ended"] is not None for span in spans)
            by_name: dict[str, list[dict]] = {}
            for span in spans:
                by_name.setdefault(span["name"], []).append(span)

            (root,) = by_name["request_wave"]
            (escalation,) = by_name["escalation"]
            # each tier merges its own gather: one under the root, one under
            # the escalation span
            assert {span["parent_id"] for span in by_name["merge"]} \
                == {root["span_id"], escalation["span_id"]}
            # both tiers scatter to both shards: 2 fast + 2 careful arms
            assert len(by_name["scatter"]) == 4
            assert len(by_name["wire"]) == 4
            assert {span["parent_id"] for span in by_name["scatter"]} \
                == {root["span_id"], escalation["span_id"]}
            scatter_ids = {span["span_id"] for span in by_name["scatter"]}
            assert all(span["parent_id"] in scatter_ids
                       for span in by_name["wire"])
            # every wire span reports how deep its worker's pipeline was when
            # the frame went out (>= 1: at least this request was in flight)
            assert all(span["attributes"]["in_flight"] >= 1
                       for span in by_name["wire"])

            # the workers' spans crossed the wire: remote, rebased, and
            # parented under their wire anchors
            workers = by_name["worker"]
            assert len(workers) == 4 and all(s["remote"] for s in workers)
            wire_ids = {span["span_id"] for span in by_name["wire"]}
            assert all(span["parent_id"] in wire_ids for span in workers)
            assert {span["attributes"]["shard"] for span in workers} == {0, 1}
            worker_ids = {span["span_id"] for span in workers}
            for stage in ("encode", "decode", "parse"):
                assert len(by_name[stage]) == 4
                assert all(span["remote"] for span in by_name[stage])
                assert all(span["parent_id"] in worker_ids
                           for span in by_name[stage])
            decode = by_name["decode"][0]
            assert decode["attributes"]["steps"] >= 1
            assert "mask_cache_hits" in decode["attributes"]
            assert "mask_cache_misses" in decode["attributes"]

            # locally-recorded spans feed the cluster's stage breakdown;
            # the journal summary rides the stats snapshot
            stats = sub.stats()
            assert {"request_wave", "scatter", "wire", "merge", "escalation"} \
                <= set(stats["stages"])
            assert stats["traces"]["completed"] == 1
            assert stats["traces"]["slowest"][0]["trace_id"] == record["trace_id"]
            # (remote spans are never double-counted locally)
            assert "decode" not in stats["stages"]
        finally:
            sub.close()

    #: The tree of one traced cold wave with every question escalated: each
    #: span as (its names from the root, remote) -> how many.  Pinned from
    #: the protocol-5 span dicts; the rows must rebuild exactly this.
    GOLDEN_TREE = {
        **{(prefix, False): count for prefix, count in (
            (("request_wave",), 1),
            (("request_wave", "merge"), 1),
            (("request_wave", "escalation"), 1),
            (("request_wave", "escalation", "merge"), 1))},
        **{(tier + leg, False): 2 for tier in (
            ("request_wave",), ("request_wave", "escalation"))
           for leg in (("scatter",), ("scatter", "wire"))},
        **{(tier + ("scatter", "wire", "worker") + stage, True): 2
           for tier in (("request_wave",), ("request_wave", "escalation"))
           for stage in ((), ("encode",), ("decode",), ("parse",))},
    }
    #: What the ``decode`` span of a worker reports.
    DECODE_KEYS = {"backend", "questions", "mask_cache_hits", "mask_cache_misses",
                   "constraint_states", "steps", "beam_rows", "live_beams",
                   "ranked_tokens", "questions_compacted"}

    @staticmethod
    def _tree(spans: list[dict]) -> dict:
        by_id = {span["span_id"]: span for span in spans}

        def path(span):
            parent = by_id.get(span["parent_id"])
            return (path(parent) if parent is not None else ()) + (span["name"],)

        tree: dict = {}
        for span in spans:
            key = (path(span), span["remote"])
            tree[key] = tree.get(key, 0) + 1
        return tree

    def test_a_traced_cold_wave_keeps_its_tree(self, cluster_checkpoint):
        """Golden: the names, parent links, remote flags and decode counters
        of a traced subprocess wave, every remote window inside its wire."""
        sub = load_cluster(cluster_checkpoint,
                           config=ClusterConfig(worker_backend="subprocess"))
        try:
            sub.dispatcher.escalation_threshold = 1.0
            sub.submit_many(QUESTIONS)
            (record,) = sub.tracer.journal.slowest()
        finally:
            sub.close()
        spans = record["spans"]
        assert self._tree(spans) == self.GOLDEN_TREE
        assert {span["trace_id"] for span in spans} == {record["trace_id"]}
        assert all(span["status"] == "ok" and span["error"] is None
                   for span in spans)
        for span in spans:
            if span["name"] == "decode":
                assert set(span["attributes"]) == self.DECODE_KEYS
                assert span["attributes"]["questions"] == len(QUESTIONS)
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if not span["remote"]:
                continue
            wire = span
            while wire["name"] != "wire":
                wire = by_id[wire["parent_id"]]
            assert wire["started"] <= span["started"] <= span["ended"] \
                <= wire["ended"]

    def test_tracing_does_not_move_an_answer(self, cluster_checkpoint):
        """The same questions answer ``float.hex``-identically traced and
        untraced, through the same workers."""
        sub = load_cluster(cluster_checkpoint, config=ClusterConfig(
            worker_backend="subprocess", enable_cache=False))
        try:
            answers = {}
            for enabled in (True, False, True):
                sub.tracer.enabled = enabled
                answers.setdefault(enabled, []).append(
                    [[(route.database, route.tables, route.score.hex())
                      for route in routes] for routes in sub.submit_many(QUESTIONS)])
            assert sub.tracer.journal.completed == 2
        finally:
            sub.close()
        assert answers[True][0] == answers[False][0] == answers[True][1]

    def test_stage_metrics_count_every_local_span_once(self, cluster_checkpoint):
        """Conservation: each stage's count is the number of *local* spans of
        that name over the finished traces; remote spans count toward none."""
        sub = load_cluster(cluster_checkpoint, config=ClusterConfig(
            worker_backend="subprocess", enable_cache=False))
        try:
            sub.tracer.journal.max_slow_traces = 64  # retain every trace
            for start in range(0, len(QUESTIONS), 3):
                sub.submit_many(QUESTIONS[start:start + 3])
            records = sub.tracer.journal.slowest()
            stages = sub.stats()["stages"]
        finally:
            sub.close()
        assert len(records) == 3
        local: dict[str, int] = {}
        remote: set[str] = set()
        for record in records:
            for span in record["spans"]:
                if span["remote"]:
                    remote.add(span["name"])
                else:
                    local[span["name"]] = local.get(span["name"], 0) + 1
        assert remote == {"worker", "encode", "decode", "parse"}
        assert {name: stage["count"] for name, stage in stages.items()} == local

    def test_an_adopted_trace_lands_in_the_workers_journal(self, cluster_checkpoint):
        """The worker adopts a wire trace through its service's one tracer,
        so the journal ``stats()["traces"]`` reports is the one that saw it."""
        tracer = Tracer()
        with _proc_worker(cluster_checkpoint) as worker:
            assert worker.stats()["traces"]["completed"] == 0
            trace = tracer.start_trace("request")
            worker.route_batch([QUESTIONS[0]], trace=trace)
            trace.finish()
            traces = worker.stats()["traces"]
        assert traces["completed"] == 1
        assert traces["open_traces"] == 0
        assert traces["slowest"][0]["trace_id"] == trace.trace_id

    def test_crashed_shard_request_closes_its_span_as_an_error(self, cluster_checkpoint):
        """The leak guard at the proxy: a worker that dies mid-request ends
        the ``wire`` span with an error status, and finishing the trace
        leaves nothing open in the journal."""
        tracer = Tracer()
        with _proc_worker(cluster_checkpoint, auto_respawn=False) as worker:
            worker.crash()
            trace = tracer.start_trace("request")
            with pytest.raises(WorkerCrashedError):
                worker.route_batch([QUESTIONS[0]], trace=trace)
            trace.finish()
        (wire,) = trace.find_spans("wire")
        assert wire.status == "error"
        assert "WorkerCrashedError" in wire.error
        assert trace.root.status == "ok"  # the trace completed, fully closed
        assert tracer.journal.open_trace_count() == 0
        assert tracer.journal.open_span_count() == 0
        assert tracer.journal.completed == 1


# -- the whole cluster over subprocesses ---------------------------------------
class TestSubprocessCluster:
    def test_backend_agreement_on_seeded_workload(self, cluster_checkpoint):
        """Acceptance bar: >= 95% top-1 agreement between backends on a
        seeded 200-question workload (deterministic decode makes it exact)."""
        from repro.serving import LoadGenerator, WorkloadConfig

        inproc = load_cluster(cluster_checkpoint)
        sub = load_cluster(cluster_checkpoint,
                           config=ClusterConfig(worker_backend="subprocess"))
        try:
            workload = LoadGenerator(list(QUESTIONS), WorkloadConfig(
                num_requests=200, distribution="zipf", skew=1.0, seed=29)).workload()
            distinct = list(dict.fromkeys(workload))
            inproc_answers = dict(zip(distinct, inproc.submit_many(distinct,
                                                                   max_candidates=1)))
            sub_answers = dict(zip(distinct, sub.submit_many(distinct,
                                                             max_candidates=1)))
            agreements = sum(
                1 for question in workload
                if inproc_answers[question] and sub_answers[question]
                and inproc_answers[question][0].database
                == sub_answers[question][0].database
            )
            assert agreements / len(workload) >= 0.95
            # Scores travel as raw float64, so the match is in fact bit-exact
            # -- between the inproc fleet's stacked wave decode and the
            # subprocess workers' per-shard scatter.
            assert {q: _signature([r]) for q, r in sub_answers.items()} \
                == {q: _signature([r]) for q, r in inproc_answers.items()}
            assert inproc.wave_engine is not None
            assert sub.wave_engine is None
            stats = sub.stats()
            assert stats["worker_backend"] == "subprocess"
            assert stats["dispatcher"]["shard_failures"] == 0
            transports = [worker["transport"]
                          for shard in stats["shards"] for worker in shard["workers"]]
            assert all(t["alive"] for t in transports)
            assert len({t["pid"] for t in transports}) == len(transports)
            # the cluster-level rollup aggregates every worker's transport
            rollup = stats["transport"]
            assert rollup["workers"] == len(transports)
            # one batched scatter frame per worker (plus the stats poll)
            assert rollup["requests_sent"] >= len(transports)
            assert rollup["bytes_sent"] > 0 and rollup["bytes_received"] > 0
            assert rollup["crashes"] == 0 and rollup["timeouts"] == 0
        finally:
            inproc.close()
            sub.close()

    def test_worker_killed_mid_batch_fails_over_and_respawns(self, cluster_checkpoint):
        """The crash-respawn acceptance path: kill one worker mid-batch; the
        replica set fails over (no failed requests), and the killed worker is
        respawned from its checkpoint on the next attempt."""
        # No route cache: every wave must reach the workers.
        sub = load_cluster(cluster_checkpoint, config=ClusterConfig(
            worker_backend="subprocess", replicas=2, quarantine_seconds=0.0,
            enable_cache=False))
        try:
            baseline = sub.submit_many(list(QUESTIONS))
            victim = sub.shards[0].workers[0]
            victim.crash()  # dies mid-request, like an OOM kill would
            assert not victim.is_alive()
            survived = sub.submit_many(list(QUESTIONS))
            assert _signature(survived) == _signature(baseline)  # nothing failed
            # quarantine_seconds=0 means the crashed replica is retried on a
            # later wave, which transparently respawns it.
            for _ in range(3):
                sub.submit_many(list(QUESTIONS[:2]))
            assert victim.is_alive()
            assert victim.respawns >= 1
            stats = sub.stats()
            assert stats["dispatcher"]["shard_failures"] == 0
            # the chaos left no trace half-open: every span of every wave --
            # including any failed-over shard attempt -- was closed
            assert stats["traces"]["open_traces"] == 0
            assert stats["traces"]["open_spans"] == 0
            assert stats["traces"]["completed"] >= 5
        finally:
            sub.close()

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_a_failed_send_still_settles_every_sent_frame(self, cluster_checkpoint,
                                                          allow_partial):
        """Shard 1's send raises (a dead worker that may not respawn) after
        shard 0's frame is on the pipe: the scatter still awaits shard 0's
        reply before it fails or merges, counts exactly one failure, and
        leaves no frame in flight and no span open."""
        with load_cluster(cluster_checkpoint, config=ClusterConfig(
                worker_backend="subprocess", allow_partial=allow_partial)) as sub:
            alive, dead = (replica_set.workers[0] for replica_set in sub.shards)
            dead.auto_respawn = False
            dead.kill()
            sub.dispatcher.escalation_threshold = None  # one scatter per wave
            trace = Tracer().start_trace("request_wave")
            if allow_partial:
                merged = sub.dispatcher.route_batch(list(QUESTIONS), traces=[trace])
                assert sub.dispatcher.partial_gathers == 1
            else:
                with pytest.raises(ClusterError) as outcome:
                    sub.dispatcher.route_batch(list(QUESTIONS), traces=[trace])
                assert isinstance(outcome.value.__cause__.__cause__, WorkerCrashedError)
            trace.finish()
            assert sub.dispatcher.shard_failures == 1
            assert [alive.in_flight, dead.in_flight] == [0, 0]
            wires = {span.attributes["shard"]: span for span in trace.find_spans("wire")}
            scatters = {span.attributes["shard"]: span
                        for span in trace.find_spans("scatter")}
            for spans in (wires, scatters):
                assert all(span.ended is not None for span in spans.values())
                assert [spans[0].status, spans[1].status] == ["ok", "error"]
            if allow_partial:
                # shard 0's answer alone, merged: shard 1 only dropped out
                limit = sub.dispatcher.default_max_candidates
                alone = alive.route_batch(list(QUESTIONS))
                assert [_signature([routes]) for routes in merged] == \
                    [_signature([merge_route_lists([routes], max_candidates=limit)])
                     for routes in alone]

    def test_from_router_builds_and_owns_a_temp_checkpoint(self, master_router):
        service = ClusterRoutingService.from_router(
            master_router, ClusterConfig(num_shards=2, worker_backend="subprocess"))
        owned = service._owned_checkpoint_dir
        try:
            assert owned is not None and owned.is_dir()
            routes = service.submit(QUESTIONS[0], max_candidates=2)
            assert routes and routes[0].database
        finally:
            service.close()
        assert not owned.exists()  # the temp checkpoint is cleaned up

    def test_shard_timeouts_are_counted(self, cluster_checkpoint):
        from repro.cluster import ClusterError

        sub = load_cluster(cluster_checkpoint, config=ClusterConfig(
            worker_backend="subprocess", allow_partial=True,
            shard_timeout_seconds=1e-6))
        children = [worker.process for replica_set in sub.shards
                    for worker in replica_set.workers]
        try:
            # Both children stopped: no reply is on any pipe at the deadline,
            # so every shard misses, and each miss must be *counted as a
            # timeout*, never silently folded into the gather.
            for child in children:
                os.kill(child.pid, signal.SIGSTOP)
            with pytest.raises(ClusterError):
                sub.submit_many(list(QUESTIONS))
            dispatcher = sub.stats()["dispatcher"]
            assert dispatcher["shards_timed_out"] == dispatcher["shard_failures"] == 2
        finally:
            sub.close()
        assert all(child.returncode is not None for child in children)
