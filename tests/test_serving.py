"""Tests for the serving subsystem: checkpoints, cache, service, loadgen."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest

from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
from repro.nn.tokenizer import Vocabulary
from repro.obs.health import QUEUE_DEPTH_DEGRADED, QUEUE_DEPTH_FAILING
from repro.schema import Catalog, Column, ColumnType, Database, ForeignKey, Table
from repro.serving import (
    CheckpointError,
    LoadGenerator,
    RouteCache,
    RoutingService,
    ScenarioConfig,
    ScenarioDriver,
    ScenarioPhase,
    ServingConfig,
    WorkloadConfig,
    named_scenario,
    load_manifest,
    load_router,
    normalize_question,
    save_router,
)
from repro.serving import loadgen
from repro.serving.checkpoint import catalog_from_payload, catalog_to_payload
from repro.serving.metrics import LatencyRecorder, MetricsRegistry, WindowedCounter
from repro.serving.service import BatchResultCountError


def _serving_catalog() -> Catalog:
    """A private copy of the conftest ``small_catalog`` (module-scope training)."""
    concert = Database(name="concert_singer", tables=[
        Table("singer", [
            Column("singer_id", ColumnType.INTEGER, is_primary_key=True),
            Column("name"), Column("country"), Column("age", ColumnType.INTEGER),
        ]),
        Table("concert", [
            Column("concert_id", ColumnType.INTEGER, is_primary_key=True),
            Column("venue"), Column("year", ColumnType.INTEGER),
        ]),
        Table("singer_in_concert", [
            Column("singer_id", ColumnType.INTEGER),
            Column("concert_id", ColumnType.INTEGER),
        ]),
    ], foreign_keys=[
        ForeignKey("singer_in_concert", "singer_id", "singer", "singer_id"),
        ForeignKey("singer_in_concert", "concert_id", "concert", "concert_id"),
    ])
    world = Database(name="world", tables=[
        Table("country", [
            Column("country_id", ColumnType.INTEGER, is_primary_key=True),
            Column("name"), Column("continent"), Column("population", ColumnType.INTEGER),
        ]),
        Table("city", [
            Column("city_id", ColumnType.INTEGER, is_primary_key=True),
            Column("name"), Column("population", ColumnType.INTEGER),
            Column("country_id", ColumnType.INTEGER),
        ]),
    ], foreign_keys=[ForeignKey("city", "country_id", "country", "country_id")])
    return Catalog(name="serving_small", databases=[concert, world])


QUESTIONS = [
    "how many cities are there in each country",
    "which singers performed in a concert",
    "list the venues of all concerts",
    "what is the average population per continent",
    "show the name and age of every singer",
]


@pytest.fixture(scope="module")
def trained_router() -> SchemaRouter:
    catalog = _serving_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=11)
    sampler = SchemaSampler(graph, seed=11)
    report = synthesize_training_data(sampler, questioner, SynthesisConfig(num_samples=250))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=4, beam_groups=2, seed=11))
    router.fit(report.examples)
    return router


def _route_signature(routes) -> list[tuple[str, tuple[str, ...], float]]:
    return [(route.database, route.tables, route.score) for route in routes]


def _spy_route_batch(monkeypatch, router) -> list[tuple[int, list[str]]]:
    """Record ``(thread id, questions)`` for every ``router.route_batch`` call."""
    calls: list[tuple[int, list[str]]] = []
    route_batch = router.route_batch

    def spy(questions, *args, **kwargs):
        calls.append((threading.get_ident(), list(questions)))
        return route_batch(questions, *args, **kwargs)

    monkeypatch.setattr(router, "route_batch", spy)
    return calls


def _wait_until(predicate, seconds: float = 30.0) -> None:
    """Spin (no sleep) until ``predicate()`` holds; fail after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"


class _HeldDecoder:
    """Stands in for a service's decoder: every ``route_batch`` waits for
    ``release`` before it decodes, so a running decode stays running."""

    def __init__(self, decoder) -> None:
        self.decoder = decoder
        self.release = threading.Event()

    def route_batch(self, *args, **kwargs):
        self.release.wait()
        return self.decoder.route_batch(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self.decoder, name)


@contextmanager
def _contended(service: RoutingService, calls):
    """Run each one-question call on its own thread, with the decode held:
    the first leads a decode that waits inside the decoder, every later one
    queues its ticket behind it, in order.  The block runs with all of them
    queued; leaving it releases the decode.  Yields ``outcomes`` (call index
    -> result or raised exception), complete once the block has exited."""
    outcomes: dict[int, object] = {}

    def run(index: int, call) -> None:
        try:
            outcomes[index] = call()
        except BaseException as error:  # noqa: BLE001 - inspected by the test
            outcomes[index] = error

    threads = [threading.Thread(target=run, args=(index, call))
               for index, call in enumerate(calls)]
    held = service.router = _HeldDecoder(service.router)
    try:
        threads[0].start()
        _wait_until(lambda: service._leading)
        for queued, thread in enumerate(threads[1:], start=1):
            thread.start()
            _wait_until(lambda: service.queue_depth() == queued)
        yield outcomes
    finally:
        held.release.set()
        for thread in threads:
            thread.join(timeout=60)
        service.router = held.decoder
    assert not any(thread.is_alive() for thread in threads)


def _numbered(count: int) -> list[str]:
    """``count`` distinct questions (no two share a cache entry)."""
    return [f"{QUESTIONS[index % len(QUESTIONS)]} number {index}"
            for index in range(count)]


# -- checkpoint ----------------------------------------------------------------
class TestCheckpoint:
    def test_round_trip_identical_routes(self, trained_router, tmp_path):
        path = save_router(trained_router, tmp_path / "ckpt")
        reloaded = SchemaRouter.from_checkpoint(path)
        assert reloaded.is_trained
        assert reloaded.config == trained_router.config
        assert reloaded.num_parameters() == trained_router.num_parameters()
        for question in QUESTIONS:
            assert _route_signature(reloaded.route(question)) == \
                _route_signature(trained_router.route(question))

    def test_manifest_contents(self, trained_router, tmp_path):
        path = save_router(trained_router, tmp_path / "ckpt")
        manifest = load_manifest(path)
        assert manifest["format"] == "repro-router-checkpoint"
        assert manifest["version"] == 1
        assert manifest["weights"]["num_parameters"] == trained_router.num_parameters()
        # The manifest is plain JSON (round-trips through dumps/loads).
        assert json.loads(json.dumps(manifest)) == manifest

    def test_graph_reconstruction_preserves_edges(self, trained_router, tmp_path):
        path = save_router(trained_router, tmp_path / "ckpt")
        reloaded = load_router(path)
        original, rebuilt = trained_router.graph, reloaded.graph
        assert rebuilt.num_nodes() == original.num_nodes()
        assert rebuilt.num_edges() == original.num_edges()
        assert sorted(rebuilt.databases()) == sorted(original.databases())
        for database in original.databases():
            for table in original.tables_of(database):
                assert sorted(rebuilt.table_neighbors(database, table)) == \
                    sorted(original.table_neighbors(database, table))

    def test_catalog_payload_round_trip(self, trained_router):
        payload = catalog_to_payload(trained_router.graph.catalog)
        rebuilt = catalog_from_payload(json.loads(json.dumps(payload)))
        original = trained_router.graph.catalog
        assert rebuilt.database_names == original.database_names
        for database in original:
            twin = rebuilt.database(database.name)
            assert twin.table_names == database.table_names
            assert twin.foreign_keys == database.foreign_keys
            for table in database.tables:
                assert twin.table(table.name).column_names == table.column_names

    def test_corrupt_weights_rejected(self, trained_router, tmp_path):
        path = save_router(trained_router, tmp_path / "ckpt")
        weights = path / "weights.npz"
        original = weights.read_bytes()
        weights.write_bytes(bytes([original[0] ^ 0xFF]) + original[1:])
        with pytest.raises(CheckpointError, match="checksum"):
            load_router(path)

    def test_loading_builds_the_model_from_the_archive_alone(self, trained_router,
                                                             tmp_path, monkeypatch):
        """Every loaded parameter is the archive's array, bit for bit, and no
        init stream is seeded on the way: ``default_rng`` raises throughout."""
        path = save_router(trained_router, tmp_path / "ckpt")

        def no_init(*args, **kwargs):
            raise AssertionError("load_router seeded an init stream")

        monkeypatch.setattr(np.random, "default_rng", no_init)
        reloaded = load_router(path)
        monkeypatch.undo()
        with np.load(path / "weights.npz") as archive:
            parameters = dict(reloaded.model.named_parameters())
            assert sorted(parameters) == sorted(archive.files)
            for name in archive.files:
                stored, loaded = archive[name], parameters[name].data
                assert loaded.dtype == stored.dtype and loaded.shape == stored.shape
                assert loaded.tobytes() == stored.tobytes(), name

    @pytest.mark.parametrize("defect", ["missing", "extra", "wrong shape"])
    def test_archive_not_matching_the_model_is_refused(self, trained_router, tmp_path,
                                                       defect):
        """A checksummed archive whose arrays are not the model's is a
        :class:`CheckpointError`, before any router is built."""
        path = save_router(trained_router, tmp_path / "ckpt")
        weights = path / "weights.npz"
        with np.load(weights) as archive:
            state = {name: archive[name] for name in archive.files}
        if defect == "missing":
            del state["state_init.bias"]
        elif defect == "extra":
            state["state_init.scale"] = np.ones(3)
        else:
            state["output_projection.bias"] = state["output_projection.bias"][:-1]
        np.savez_compressed(weights, **state)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["weights"]["sha256"] = hashlib.sha256(weights.read_bytes()).hexdigest()
        (path / "manifest.json").write_text(json.dumps(manifest))
        match = {"missing": r"missing=\['state_init.bias'\]",
                 "extra": r"unexpected=\['state_init.scale'\]",
                 "wrong shape": "shape mismatch for output_projection.bias"}[defect]
        with pytest.raises(CheckpointError, match=match):
            load_router(path)

    def test_missing_and_invalid_checkpoints(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_router(tmp_path / "nowhere")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a router checkpoint"):
            load_router(bad)

    def test_untrained_router_rejected(self, trained_router, tmp_path):
        untrained = SchemaRouter(graph=trained_router.graph)
        with pytest.raises(CheckpointError, match="untrained"):
            save_router(untrained, tmp_path / "ckpt")

    def test_save_state_npz_normalizes_suffix(self, trained_router, tmp_path):
        written = trained_router.model.save_state_npz(tmp_path / "weights")
        assert written == tmp_path / "weights.npz"
        assert written.is_file()

    def test_vocabulary_payload_round_trip(self):
        vocabulary = Vocabulary()
        vocabulary.add_text("how many cities are there")
        vocabulary.add("singer_in_concert")
        rebuilt = Vocabulary.from_payload(vocabulary.to_payload())
        assert rebuilt.tokens() == vocabulary.tokens()
        for token in vocabulary.tokens():
            assert rebuilt.id_of(token) == vocabulary.id_of(token)


# -- batched inference ---------------------------------------------------------
class TestRouteBatch:
    def test_matches_single_question_route(self, trained_router):
        batched = trained_router.route_batch(QUESTIONS)
        for question, routes in zip(QUESTIONS, batched):
            single = trained_router.route(question)
            assert [(r.database, r.tables) for r in routes] == \
                [(r.database, r.tables) for r in single]
            for left, right in zip(routes, single):
                assert left.score == pytest.approx(right.score, abs=1e-9)

    def test_empty_batch(self, trained_router):
        assert trained_router.route_batch([]) == []

    @pytest.mark.parametrize("budget", [0, -1])
    def test_a_budget_below_one_is_refused_before_any_decode(self, trained_router,
                                                             budget, monkeypatch):
        def decode(*args, **kwargs):
            raise AssertionError("decoded a refused wave")

        parses = len(trained_router._parse_cache)
        monkeypatch.setattr("repro.core.router.decode_wave", decode)
        with pytest.raises(ValueError, match="max_candidates"):
            trained_router.route_batch(QUESTIONS[:2], max_candidates=budget)
        with pytest.raises(ValueError, match="max_candidates"):
            trained_router.route(QUESTIONS[0], max_candidates=budget)
        assert len(trained_router._parse_cache) == parses

    def test_untrained_raises(self, trained_router):
        router = SchemaRouter(graph=trained_router.graph)
        with pytest.raises(RuntimeError):
            router.route_batch(["anything"])


# -- cache ---------------------------------------------------------------------
class TestRouteCache:
    def test_lru_eviction_order(self):
        cache = RouteCache(max_size=2)
        cache.put("first question", 1)
        cache.put("second question", 2)
        assert cache.get("first question") == 1     # refresh "first"
        cache.put("third question", 3)              # evicts "second"
        assert cache.get("second question") is None
        assert cache.get("first question") == 1
        assert cache.get("third question") == 3
        assert cache.evictions == 1

    def test_key_normalization(self):
        cache = RouteCache(max_size=4)
        cache.put("How many Cities?", "routes")
        assert cache.get("how   many cities") == "routes"
        assert normalize_question("How many Cities?") == "how many cities"

    def test_catalog_version_invalidation(self):
        cache = RouteCache(max_size=4)
        cache.put("question", "routes")
        assert cache.get("question") == "routes"
        cache.bump_version()
        assert cache.get("question") is None
        assert cache.invalidations == 1
        cache.put("question", "routes-v2")        # re-cached under new version
        assert cache.get("question") == "routes-v2"

    def test_stats_and_hit_rate(self):
        cache = RouteCache(max_size=4)
        cache.put("a b", 1)
        cache.get("a b")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert len(cache) == 1 and cache.keys() == ["a b"]

    def test_get_many_matches_per_question_gets(self):
        """The batched probe returns the same values, with the same hit/miss
        and invalidation accounting, as one ``get`` per question."""
        cache = RouteCache(max_size=8)
        cache.put("stale question", "old")
        cache.bump_version()  # "stale question" is stale; insert the rest
        cache.put("alpha question", "a")
        cache.put("beta question", "b")
        values = cache.get_many(["alpha question", "missing question",
                                 "stale question", "beta question",
                                 "ALPHA   Question"])
        assert values == ["a", None, None, "b", "a"]
        assert cache.hits == 3 and cache.misses == 2
        assert cache.invalidations == 1
        # LRU order was refreshed by the batched probe, like get() would
        assert cache.keys()[-1] == normalize_question("ALPHA Question")

    def test_stats_is_one_snapshot_under_concurrent_probes(self):
        class YieldingCache(RouteCache):
            """Gives up the GIL on every ``hits`` / ``misses`` read, so a read
            made outside the lock is overtaken by the probers."""

            def _read(self, name):
                time.sleep(0)
                return self.__dict__[name]

            hits = property(lambda self: self._read("_hits"),
                            lambda self, value: self.__dict__.update(_hits=value))
            misses = property(lambda self: self._read("_misses"),
                              lambda self, value: self.__dict__.update(_misses=value))

        cache = YieldingCache(max_size=8)
        cache.put("hot question", "routes")
        wave = ["hot question", "cold question", "hot question"]
        stop = threading.Event()

        def probe():
            while not stop.is_set():
                cache.get_many(wave)

        probers = [threading.Thread(target=probe) for _ in range(3)]
        for thread in probers:
            thread.start()
        try:
            snapshots = [cache.stats() for _ in range(300)]
        finally:
            stop.set()
            for thread in probers:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in probers)
        assert snapshots[-1]["hits"] > 0 and snapshots[-1]["misses"] > 0
        for stats in snapshots:
            lookups = stats["hits"] + stats["misses"]
            assert stats["hit_rate"] == (round(stats["hits"] / lookups, 4)
                                         if lookups else 0.0), stats

    def test_get_many_respects_the_variant_qualifier(self):
        cache = RouteCache(max_size=4)
        cache.put("question", "top1", variant=1)
        assert cache.get_many(["question"], variant=1) == ["top1"]
        assert cache.get_many(["question"], variant=5) == [None]


# -- metrics -------------------------------------------------------------------
class TestMetrics:
    def test_latency_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(value / 1000.0)
        assert recorder.percentile(50) == pytest.approx(0.050)
        assert recorder.percentile(95) == pytest.approx(0.095)
        assert recorder.percentile(99) == pytest.approx(0.099)
        summary = recorder.summary()
        assert summary["count"] == 100
        assert summary["p95_ms"] == pytest.approx(95.0)

    def test_empty_window_yields_zeros(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(50) == 0.0
        assert recorder.percentile(99) == 0.0
        summary = recorder.summary()
        buckets = summary.pop("buckets")
        assert all(count == 0 for count in buckets.values())
        assert buckets["+Inf"] == 0
        assert summary == {"count": 0, "total_seconds": 0.0, "mean_ms": 0.0,
                           "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                           "max_ms": 0.0}
        empty_registry_snapshot = MetricsRegistry().snapshot()
        assert empty_registry_snapshot["qps"] == 0.0
        assert empty_registry_snapshot["mean_batch_size"] == 0.0

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.increment("requests", 10)
        registry.observe_batch(4)
        registry.observe_batch(4)
        registry.observe_batch(2)
        registry.observe_latency(0.002)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 10
        # String keys: the snapshot crosses the cluster wire protocol as JSON
        # and must be identical before and after the round-trip.
        assert snapshot["batch_size_histogram"] == {"2": 1, "4": 2}
        assert snapshot["mean_batch_size"] == pytest.approx(10 / 3, rel=1e-2)
        assert snapshot["qps"] > 0

    def test_weighted_record_counts_every_item(self):
        """``record(seconds, count)`` lands ``count`` observations in every
        field of the summary; a non-positive count records nothing."""
        recorder = LatencyRecorder()
        recorder.record(0.004, count=3)
        recorder.record(0.020)
        recorder.record(0.5, count=0)
        summary = recorder.summary()
        assert summary["count"] == 4
        assert summary["total_seconds"] == pytest.approx(0.032)
        assert summary["mean_ms"] == pytest.approx(8.0)
        assert summary["p50_ms"] == pytest.approx(4.0)
        assert summary["p99_ms"] == summary["max_ms"] == pytest.approx(20.0)
        assert summary["buckets"]["0.0025"] == 0
        assert summary["buckets"]["0.005"] == 3
        assert summary["buckets"]["0.025"] == summary["buckets"]["+Inf"] == 4

    def test_snapshot_shape_survives_the_wire(self):
        """The snapshot crosses the cluster wire as JSON: its keys are fixed
        and it round-trips unchanged."""
        registry = MetricsRegistry()
        registry.increment("requests", 3)
        registry.observe_batch(3)
        registry.observe_latency(0.01, count=3)
        registry.observe_stages([("decode", 0.004)])
        snapshot = registry.snapshot()
        assert set(snapshot) == {"uptime_seconds", "counters", "qps", "qps_window",
                                 "qps_window_seconds", "latency",
                                 "batch_size_histogram", "mean_batch_size", "stages"}
        assert set(snapshot["stages"]) == {"decode"}
        assert set(snapshot["latency"]) == set(snapshot["stages"]["decode"]) == {
            "count", "total_seconds", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
            "max_ms", "buckets"}
        assert json.loads(json.dumps(snapshot)) == snapshot

    @pytest.mark.parametrize("seconds, bucket", [
        (0.001, "0.001"),       # a bound is inclusive: le="0.001"
        (0.0010001, "0.0025"),
        (10.0, "10.0"),
        (10.5, "+Inf"),         # above the last bound: only the implicit one
    ])
    def test_an_observation_lands_in_the_first_bucket_that_holds_it(
            self, seconds, bucket):
        recorder = LatencyRecorder()
        recorder.record(seconds)
        buckets = recorder.summary()["buckets"]
        names = list(buckets)
        first = names.index(bucket)
        assert all(buckets[name] == 0 for name in names[:first])
        assert all(buckets[name] == 1 for name in names[first:])

    def test_the_reservoir_keeps_the_latest_samples_and_counts_them_all(self):
        recorder = LatencyRecorder(max_samples=3)
        for value in (0.9, 0.8, 0.001, 0.002, 0.003):
            recorder.record(value)
        summary = recorder.summary()
        # percentiles read the three latest samples; count, max and the
        # buckets remember every observation
        assert summary["p99_ms"] == pytest.approx(3.0)
        assert summary["p50_ms"] == pytest.approx(2.0)
        assert summary["count"] == summary["buckets"]["+Inf"] == 5
        assert summary["max_ms"] == pytest.approx(900.0)

    def test_an_empty_reservoir_is_refused(self):
        with pytest.raises(ValueError, match="max_samples"):
            LatencyRecorder(max_samples=0)

    def test_increment_many_moves_every_counter_in_one_call(self):
        clock = SteppedTime()
        registry = MetricsRegistry(clock=clock.monotonic)
        registry.increment_many({"requests": 4, "cache_hits": 3})
        registry.increment_many({"routed": 1})
        assert registry.counters() == {"requests": 4, "cache_hits": 3, "routed": 1}
        # a young registry's window divides by its one-second floor
        assert registry.window_qps() == pytest.approx(4.0)


# -- the service façade --------------------------------------------------------
class TestRoutingService:
    def test_submit_matches_router(self, trained_router):
        with RoutingService(trained_router) as service:
            for question in QUESTIONS:
                assert _route_signature(service.submit(question)) == \
                    _route_signature(trained_router.route(question))

    def test_checkpoint_boot_matches_in_memory(self, trained_router, tmp_path):
        path = save_router(trained_router, tmp_path / "ckpt")
        with RoutingService.from_checkpoint(path) as service:
            for question in QUESTIONS:
                assert _route_signature(service.submit(question)) == \
                    _route_signature(trained_router.route(question))

    def test_repeated_question_hits_cache(self, trained_router):
        with RoutingService(trained_router) as service:
            first = service.submit(QUESTIONS[0])
            second = service.submit(QUESTIONS[0])
            assert _route_signature(first) == _route_signature(second)
            stats = service.stats()
            assert stats["counters"]["cache_hits"] == 1
            assert stats["counters"]["routed"] == 1
            assert stats["cache_hit_rate"] == pytest.approx(0.5)

    def test_submit_many_and_duplicates(self, trained_router, monkeypatch):
        calls = _spy_route_batch(monkeypatch, trained_router)
        with RoutingService(trained_router) as service:
            questions = [QUESTIONS[0], QUESTIONS[1], QUESTIONS[0], QUESTIONS[2]]
            results = service.submit_many(questions)
            assert len(results) == 4
            assert _route_signature(results[0]) == _route_signature(results[2])
            # Only three distinct questions were actually decoded, in one
            # call; all four misses were answered by routing.
            assert [decoded for _, decoded in calls] == [QUESTIONS[:3]]
            assert service.stats()["counters"]["routed"] == 4

    def test_a_wave_decodes_once_on_the_calling_thread(self, trained_router,
                                                        monkeypatch):
        """An uncontended wave is one ``route_batch`` call on the caller's
        thread, however large: there is no batch cap and no wait."""
        wave = _numbered(11)
        expected = [_route_signature(routes)
                    for routes in trained_router.route_batch(wave)]
        calls = _spy_route_batch(monkeypatch, trained_router)
        with RoutingService(trained_router) as service:
            results = service.submit_many(wave)
            assert calls == [(threading.get_ident(), wave)]
            assert [_route_signature(routes) for routes in results] == expected
            stats = service.stats()
            assert "batcher" not in stats
            assert stats["batch_size_histogram"] == {"11": 1}
            assert stats["counters"]["routed"] == len(wave)

    def test_construction_starts_no_thread(self, trained_router):
        before = set(threading.enumerate())
        with RoutingService(trained_router) as service:
            assert set(threading.enumerate()) <= before
            service.submit(QUESTIONS[0])
            service.submit_many(QUESTIONS[1:3])
            assert set(threading.enumerate()) <= before

    def test_a_traced_wave_has_no_queue_wait(self, trained_router):
        """An uncontended wave or ``submit`` leads its own decode: its trace
        holds the decode stages and no ``queue_wait``."""
        with RoutingService(trained_router) as service:
            service.submit_many(QUESTIONS[:3])
            service.submit(QUESTIONS[3])
            records = service.tracer.journal.slowest()
            assert "queue_wait" not in service.stats()["stages"]
        assert len(records) == 2
        for record in records:
            stages = {span["name"] for span in record["spans"]}
            assert {"encode", "decode", "parse"} <= stages
            assert "queue_wait" not in stages

    def test_concurrent_submits_coalesce(self, trained_router, monkeypatch):
        """Callers that arrive while a decode runs share the next one: with
        the decode held, one ``submit`` leads (and blocks) and five queue
        behind it; on release the router sees ``[q0]`` then ``[q1..q5]``, and
        only the five waiters recorded a ``queue_wait``."""
        questions = _numbered(6)
        expected = [_route_signature(routes)
                    for routes in trained_router.route_batch(questions)]
        calls = _spy_route_batch(monkeypatch, trained_router)
        config = ServingConfig(enable_cache=False)
        with RoutingService(trained_router, config) as service:
            with _contended(service, [functools.partial(service.submit, question)
                                      for question in questions]) as outcomes:
                assert service.queue_depth() == 5
                assert calls == []
            assert [decoded for _, decoded in calls] == [questions[:1], questions[1:]]
            assert [_route_signature(outcomes[index])
                    for index in range(len(questions))] == expected
            stats = service.stats()
            records = service.tracer.journal.slowest()
        assert stats["batch_size_histogram"] == {"1": 1, "5": 1}
        assert stats["stages"]["queue_wait"]["count"] == 5
        waited = sorted("queue_wait" in {span["name"] for span in record["spans"]}
                        for record in records)
        assert waited == [False] + [True] * 5
        assert stats["counters"]["requests"] == stats["counters"]["routed"] == 6

    def test_coalesced_tickets_decode_once_per_max_candidates(self, trained_router,
                                                              monkeypatch):
        """Tickets sharing a decode are grouped by ``max_candidates``: one
        ``route_batch`` per group, in arrival order, and every caller gets
        the answer it asked for."""
        questions = _numbered(4)
        limits = [None, 1, None, 1]
        expected = [_route_signature(trained_router.route(question, max_candidates=limit))
                    for question, limit in zip(questions, limits)]
        calls: list[tuple[list[str], int | None]] = []
        route_batch = trained_router.route_batch

        def spy(batch, max_candidates=None, **kwargs):
            calls.append((list(batch), max_candidates))
            return route_batch(batch, max_candidates, **kwargs)

        monkeypatch.setattr(trained_router, "route_batch", spy)
        with RoutingService(trained_router, ServingConfig(enable_cache=False)) as service:
            with _contended(service, [functools.partial(service.submit, question, limit)
                                      for question, limit in zip(questions, limits)]
                            ) as outcomes:
                pass
        assert calls == [([questions[0]], None),
                         ([questions[1], questions[3]], 1),
                         ([questions[2]], None)]
        assert [_route_signature(outcomes[index])
                for index in range(len(questions))] == expected

    @pytest.mark.parametrize("failure", ["too_few_results", "raises", "interrupted"])
    def test_a_failed_decode_fails_every_waiter(self, trained_router, monkeypatch,
                                                failure):
        """A decode that answers too few results (or raises) settles every
        ticket of its group with the error; an interrupt unwinds its leader
        and settles the leader's waiters with a ``RuntimeError``.  No caller
        is left waiting, the counters conserve, and the next caller leads a
        fresh decode."""
        def broken(questions, *args, **kwargs):
            if failure == "raises":
                raise ValueError("decode exploded")
            if failure == "interrupted":
                raise KeyboardInterrupt
            return []

        monkeypatch.setattr(trained_router, "route_batch", broken)
        errors = {"too_few_results": [BatchResultCountError] * 6,
                  "raises": [ValueError] * 6,
                  # q0 leads alone, then one of the five waiters leads them
                  "interrupted": [KeyboardInterrupt] * 2 + [RuntimeError] * 4}[failure]
        questions = _numbered(6)
        with RoutingService(trained_router, ServingConfig(enable_cache=False)) as service:
            with _contended(service, [functools.partial(service.submit, question)
                                      for question in questions]) as outcomes:
                pass
            assert sorted(outcomes) == list(range(len(questions)))
            assert type(outcomes[0]) is errors[0]
            assert sorted(type(outcome).__name__ for outcome in outcomes.values()) \
                == sorted(error.__name__ for error in errors)
            if failure == "too_few_results":
                assert "0 results for 5 questions" in str(outcomes[5])
            counters = service.metrics.counters()
            assert counters["requests"] == counters["errors"] == len(questions)
            assert counters.get("cache_hits", 0) + counters.get("routed", 0) == 0
            assert service.queue_depth() == 0
            monkeypatch.undo()
            assert service.submit(questions[0])
            assert service.metrics.counter("routed") == 1

    def test_the_backlog_feeds_health(self, trained_router):
        """The backlog is the questions queued behind the running decode,
        and ``health()`` judges it: 16 queued is degraded, 64 failing."""
        config = ServingConfig(enable_cache=False)
        with RoutingService(trained_router, config) as service:
            for queued, status in ((QUEUE_DEPTH_DEGRADED, "degraded"),
                                   (QUEUE_DEPTH_FAILING, "failing")):
                calls = [functools.partial(service.submit, question)
                         for question in _numbered(1 + queued)]
                with _contended(service, calls) as outcomes:
                    report = service.health()
                    assert report.status == status
                    assert report.details["queue_depth"] == queued
                assert all(isinstance(outcome, list)
                           for outcome in outcomes.values())
                assert service.health().status == "ok"

    def test_submit_after_close_rejected(self, trained_router):
        service = RoutingService(trained_router)
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(QUESTIONS[0])
        with pytest.raises(RuntimeError, match="closed"):
            service.submit_many(QUESTIONS[:2])

    def test_a_closed_service_is_freed_by_reference_counting(self, trained_router):
        """Nothing a service owns points back at it: closed and dropped, the
        service and its router are freed without the cycle collector."""
        router = SchemaRouter(graph=trained_router.graph, config=trained_router.config)
        router.restore(trained_router.model, trained_router.source_vocabulary,
                       trained_router.target_vocabulary)
        service = RoutingService(router)
        service.submit(QUESTIONS[0])
        service.submit_many(QUESTIONS[:3])
        service.close()
        references = [weakref.ref(service), weakref.ref(router)]
        gc.disable()
        try:
            del service, router
            assert [reference() for reference in references] == [None, None]
        finally:
            gc.enable()

    def test_concurrent_waves_and_submits_take_turns(self, trained_router):
        """Wave and ``submit`` callers on many threads share one router and
        coalesce into each other's decodes: every answer equals the router's
        own and every request is counted once."""
        expected = {question: _route_signature(trained_router.route(question))
                    for question in QUESTIONS}
        config = ServingConfig(enable_cache=False)
        failures: list[BaseException] = []

        def caller(service: RoutingService, slot: int) -> None:
            try:
                for turn in range(5):
                    if slot % 2:
                        answers = zip(QUESTIONS, service.submit_many(QUESTIONS))
                    else:
                        question = QUESTIONS[(slot + turn) % len(QUESTIONS)]
                        answers = [(question, service.submit(question))]
                    for question, routes in answers:
                        assert _route_signature(routes) == expected[question]
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the callers finely
        try:
            with RoutingService(trained_router, config) as service:
                threads = [threading.Thread(target=caller, args=(service, slot))
                           for slot in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                counters = service.metrics.counters()
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert counters["requests"] == counters["routed"] == 3 * 5 * (len(QUESTIONS) + 1)

    def test_cache_does_not_alias_max_candidates(self, trained_router):
        # An ambiguous question ("name" exists in both databases) so the
        # router emits multiple candidates and truncation is observable.
        question = "what are the names"
        full = trained_router.route(question)
        assert len(full) >= 2
        with RoutingService(trained_router) as service:
            assert len(service.submit(question, max_candidates=1)) == 1
            # The truncated answer must not be served for the default request.
            assert len(service.submit(question)) == len(full)
            assert len(service.submit(question, max_candidates=1)) == 1

    def test_the_default_answer_size_asked_for_is_a_cache_hit(self, trained_router,
                                                              monkeypatch):
        """Naming the router's own default answer size asks for the answer a
        request without one gets: one cache entry under the bare question,
        one decode, and the explicit request is a hit either way round."""
        default_size = trained_router.default_max_candidates
        calls = _spy_route_batch(monkeypatch, trained_router)
        with RoutingService(trained_router) as service:
            default = service.submit(QUESTIONS[0])
            assert service.submit(QUESTIONS[0], max_candidates=default_size) == default
            explicit = service.submit(QUESTIONS[1], max_candidates=default_size)
            assert service.submit(QUESTIONS[1]) == explicit
            assert service.metrics.counters() == {
                "requests": 4, "routed": 2, "cache_hits": 2}
            assert service.cache.keys() == [normalize_question(question)
                                            for question in QUESTIONS[:2]]
        assert len(calls) == 2

    def test_the_config_fields_are_pinned(self):
        """A new knob must show up here as a reviewed diff."""
        assert {field.name for field in fields(ServingConfig)} == {
            "enable_cache", "cache_size", "enable_tracing"}

    @pytest.mark.parametrize("budget", [0, -1])
    def test_a_budget_below_one_is_refused_before_the_cache(self, trained_router,
                                                            budget, monkeypatch):
        with RoutingService(trained_router) as service:
            default = service.submit(QUESTIONS[0])
            counters, cache = service.metrics.counters(), service.cache.stats()
            calls = _spy_route_batch(monkeypatch, trained_router)
            with pytest.raises(ValueError, match="max_candidates"):
                service.submit(QUESTIONS[0], max_candidates=budget)
            with pytest.raises(ValueError, match="max_candidates"):
                service.submit_many(QUESTIONS[:2], max_candidates=budget)
            assert calls == []
            assert service.metrics.counters() == counters
            assert service.cache.stats() == cache
            assert service.submit(QUESTIONS[0], max_candidates=None) == default

    def test_catalog_change_invalidates_cache(self, trained_router):
        with RoutingService(trained_router) as service:
            service.submit(QUESTIONS[0])
            service.notify_catalog_changed()
            service.submit(QUESTIONS[0])
            stats = service.stats()
            assert stats["counters"].get("cache_hits", 0) == 0
            assert stats["cache"]["invalidations"] == 1

    def test_an_answer_decoded_across_a_catalog_change_is_not_cached(
            self, trained_router, monkeypatch):
        """The catalog changes after a wave's decode and before its commit:
        the answer is served, but the next caller decodes again instead of
        hitting it."""
        with RoutingService(trained_router) as service:
            decode = trained_router.route_batch
            decoded: list[list[str]] = []

            def decode_then_change(questions, *args, **kwargs):
                answers = decode(questions, *args, **kwargs)
                decoded.append(list(questions))
                if len(decoded) == 1:
                    service.notify_catalog_changed()
                return answers

            monkeypatch.setattr(trained_router, "route_batch", decode_then_change)
            first = service.submit(QUESTIONS[0])
            second = service.submit(QUESTIONS[0])
            assert decoded == [QUESTIONS[:1]] * 2
            assert _route_signature(service.submit(QUESTIONS[0])) == \
                _route_signature(second) == _route_signature(first)
            assert len(decoded) == 2

    def test_served_lists_are_the_callers_own(self, trained_router):
        """Neither a within-wave repeat nor a cache hit shares a list with
        another caller or with the cache."""
        with RoutingService(trained_router) as service:
            first, repeat = service.submit_many(QUESTIONS[:1] * 2)
            assert first is not repeat and first == repeat
            expected = list(first)
            first.clear()
            repeat.clear()
            hit = service.submit(QUESTIONS[0])
            assert hit == expected
            hit.clear()
            assert service.submit(QUESTIONS[0]) == expected

    def test_uncached_mode(self, trained_router):
        config = ServingConfig(enable_cache=False)
        with RoutingService(trained_router, config) as service:
            routes = service.submit(QUESTIONS[0])
            assert _route_signature(routes) == _route_signature(trained_router.route(QUESTIONS[0]))
            stats = service.stats()
            assert stats["cache"] is None and "batcher" not in stats

    def test_untrained_router_rejected(self, trained_router):
        with pytest.raises(ValueError, match="trained"):
            RoutingService(SchemaRouter(graph=trained_router.graph))


# -- load generation -----------------------------------------------------------
class SteppedTime:
    """Stands in for a module's ``time``: ``monotonic`` reads a counter that
    only ``sleep`` and ``advance`` move, so a load driver runs off the wall
    clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    advance = sleep


def _digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


class TestStreamsArePinned:
    """Every seed draws the stream it drew before the two drivers shared one
    planner, so benches, examples and tests keep their questions."""

    BENCH_POOL = [f"question {index}" for index in range(40)]
    EXAMPLE_POOL = [f"question {index}" for index in range(30)]

    @pytest.mark.parametrize("pool, config, digest", [
        # bench_serving_throughput
        (BENCH_POOL, WorkloadConfig(num_requests=150, unique_fraction=0.1,
                                    skew=1.0, seed=17, concurrency=4),
         "909a336699d68dfd"),
        # bench_cluster_scaling, test_procworker
        (BENCH_POOL, WorkloadConfig(num_requests=200, distribution="zipf",
                                    skew=1.0, seed=29), "da8898e5ab799214"),
        # examples/serving_quickstart.py
        (EXAMPLE_POOL, WorkloadConfig(num_requests=120, unique_fraction=0.15,
                                      seed=7, concurrency=4), "a8608e91e768d889"),
        # examples/cluster_quickstart.py, examples/procworker_quickstart.py
        (EXAMPLE_POOL, WorkloadConfig(num_requests=120, distribution="zipf",
                                      skew=1.0, seed=7), "a04ea1d25a25fdf9"),
    ], ids=["serving_bench", "zipf_seed_29", "serving_quickstart", "zipf_seed_7"])
    def test_workload_stream(self, pool, config, digest):
        assert _digest(LoadGenerator(pool, config).workload()) == digest

    @pytest.mark.parametrize("name, digest", [
        ("steady", "433c4b3be9fa2ce4"),
        ("burst", "0140e68ef8564830"),
        ("shift_hot_set", "526dcf4bb6d436dd"),
    ])
    def test_scenario_plan(self, name, digest):
        pool = [f"question {index}" for index in range(128)]
        plan = ScenarioDriver(pool, named_scenario(name, seed=23)).plan()
        assert _digest(f"{phase}\t{question}" for phase, question in plan) == digest


class TestLoadGenerator:
    def test_workload_is_deterministic(self):
        config = WorkloadConfig(num_requests=50, unique_fraction=0.2, seed=9)
        first = LoadGenerator(QUESTIONS, config).workload()
        second = LoadGenerator(QUESTIONS, config).workload()
        assert first == second
        assert len(first) == 50
        assert set(first) <= set(QUESTIONS)

    def test_unique_fraction_bounds_pool(self):
        config = WorkloadConfig(num_requests=100, unique_fraction=0.02, seed=1)
        workload = LoadGenerator(QUESTIONS, config).workload()
        assert len(set(workload)) <= 2

    def test_run_closed_loop_against_service(self, trained_router):
        with RoutingService(trained_router) as service:
            generator = LoadGenerator(QUESTIONS, WorkloadConfig(
                num_requests=20, unique_fraction=0.2, seed=4, concurrency=2))
            report = generator.run(service.submit)
        assert report.num_requests == 20
        assert report.errors == 0
        assert report.throughput_rps > 0
        assert report.latency["count"] == 20
        assert json.loads(json.dumps(report.to_json())) == report.to_json()

    def test_zipf_distribution_spans_the_whole_pool(self):
        config = WorkloadConfig(num_requests=400, distribution="zipf", skew=1.0,
                                seed=3)
        workload = LoadGenerator(QUESTIONS, config).workload()
        counts = {question: workload.count(question) for question in QUESTIONS}
        # Rank-weighted: the head question dominates, but the tail (which the
        # "head" distribution would truncate away entirely) still appears.
        assert counts[QUESTIONS[0]] == max(counts.values())
        assert all(count > 0 for count in counts.values())
        assert LoadGenerator(QUESTIONS, config).workload() == workload

    def test_run_batched_drives_submit_many_targets(self):
        waves: list[list[str]] = []

        def submit_many(questions):
            waves.append(list(questions))
            return [[] for _ in questions]

        generator = LoadGenerator(QUESTIONS, WorkloadConfig(
            num_requests=20, unique_fraction=0.25, seed=6))
        report = generator.run_batched(submit_many, batch_size=8)
        assert [len(wave) for wave in waves] == [8, 8, 4]
        assert report.num_requests == 20
        assert report.errors == 0
        assert report.latency["count"] == 20

    def test_closed_loop_counts_errors_apart_from_answers(self, monkeypatch):
        clock = SteppedTime()
        monkeypatch.setattr(loadgen, "time", clock)
        calls = [0]

        def submit(question):
            calls[0] += 1
            clock.advance(0.002)
            if calls[0] % 3 == 0:
                raise RuntimeError("boom")

        report = LoadGenerator(QUESTIONS, WorkloadConfig(
            num_requests=12, seed=2)).run(submit)
        assert (report.answered, report.errors) == (8, 4)
        # answered requests per second, each lagging its own service time
        assert report.duration_seconds == pytest.approx(0.024)
        assert report.throughput_rps == pytest.approx(8 / 0.024)
        assert report.latency["count"] == 8
        assert report.latency["p99_ms"] == pytest.approx(2.0)
        assert list(report.phases) == ["closed"]
        assert report.phases["closed"]["errors"] == 4
        assert report.to_json()["answered"] == 8

    def test_concurrent_clients_lose_no_count(self):
        # more clients than cores, switching often: a lost update in the
        # shared tally breaks the totals
        config = WorkloadConfig(num_requests=2000, seed=8, concurrency=8)
        generator = LoadGenerator(QUESTIONS, config)
        failing_question = generator.workload()[0]

        def submit(question):
            if question == failing_question:
                raise RuntimeError("boom")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = generator.run(submit)
        finally:
            sys.setswitchinterval(interval)
        expected_errors = generator.workload().count(failing_question)
        assert (report.num_requests, report.errors) == (2000, expected_errors)
        assert report.answered == report.latency["count"] == 2000 - expected_errors

    def test_a_wave_request_lags_its_whole_wave(self, monkeypatch):
        clock = SteppedTime()
        monkeypatch.setattr(loadgen, "time", clock)
        waves = [0]

        def submit_many(questions):
            waves[0] += 1
            clock.advance(0.010)
            if waves[0] == 2:
                raise RuntimeError("boom")

        report = LoadGenerator(QUESTIONS, WorkloadConfig(
            num_requests=20, seed=6)).run_batched(submit_many, batch_size=8)
        assert (report.answered, report.errors) == (12, 8)
        assert report.latency["count"] == 12
        assert report.latency["p50_ms"] == pytest.approx(10.0)
        assert report.max_lag_seconds == pytest.approx(0.010)
        assert report.throughput_rps == pytest.approx(12 / 0.030)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_requests=0)
        with pytest.raises(ValueError):
            WorkloadConfig(concurrency=0)
        with pytest.raises(ValueError):
            WorkloadConfig(distribution="bursty")
        with pytest.raises(ValueError):
            WorkloadConfig(skew=-0.5)
        with pytest.raises(ValueError):
            LoadGenerator([], WorkloadConfig())
        with pytest.raises(ValueError):
            LoadGenerator(QUESTIONS).run_batched(lambda wave: wave, batch_size=0)

    @pytest.mark.parametrize("unique_fraction", [0.0, -0.25, 1.5])
    def test_a_unique_fraction_outside_the_unit_interval_is_refused(
            self, unique_fraction):
        with pytest.raises(ValueError, match="unique_fraction"):
            WorkloadConfig(unique_fraction=unique_fraction)

    def test_the_report_shape_is_pinned(self):
        report = LoadGenerator(QUESTIONS, WorkloadConfig(
            num_requests=4, seed=1)).run(lambda question: [])
        payload = report.to_json()
        assert set(payload) == {"scenario", "num_requests", "answered", "errors",
                                "duration_seconds", "throughput_rps",
                                "max_lag_seconds", "latency", "phases"}
        assert set(payload["phases"]["closed"]) == {"requests", "answered",
                                                   "errors", "latency"}
        assert (payload["num_requests"], payload["answered"]) == (4, 4)

    def test_the_report_agrees_with_the_service_counters(self, trained_router):
        config = ServingConfig(enable_cache=False)
        with RoutingService(trained_router, config=config) as service:
            generator = LoadGenerator(QUESTIONS, WorkloadConfig(
                num_requests=24, unique_fraction=0.25, seed=12, concurrency=3))
            report = generator.run(service.submit)
            counters = service.stats()["counters"]
        assert (report.num_requests, report.answered, report.errors) == (24, 24, 0)
        assert counters["requests"] == counters["routed"] == 24
        assert counters.get("errors", 0) == 0


class TestWindowedCounter:
    def test_expires_outside_the_window(self):
        clock = SteppedTime()
        counter = WindowedCounter(window_seconds=60, clock=clock.monotonic)
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

    def test_a_bucket_leaves_exactly_one_window_after_its_second(self):
        clock = SteppedTime()
        clock.advance(100.0)
        counter = WindowedCounter(window_seconds=10, clock=clock.monotonic)
        counter.note(3)
        clock.advance(9.5)
        assert counter.total() == 3
        clock.advance(0.5)  # second 110: the second-100 bucket is 10s old
        assert counter.total() == 0

    def test_notes_within_one_second_share_a_bucket(self):
        clock = SteppedTime()
        counter = WindowedCounter(window_seconds=2, clock=clock.monotonic)
        counter.note(1)
        clock.advance(0.4)
        counter.note(2, labels={"a": 2})
        clock.advance(0.5)
        counter.note(4, labels={"a": 1, "b": 3})
        assert counter.total() == 7
        assert counter.label_totals() == {"a": 3, "b": 3}
        clock.advance(1.1)  # second 2: the one bucket of second 0 expires whole
        assert counter.total() == 0
        assert counter.label_totals() == {}

    def test_a_label_leaves_with_its_last_bucket(self):
        clock = SteppedTime()
        counter = WindowedCounter(window_seconds=60, clock=clock.monotonic)
        counter.note(2, labels={"concert_singer": 2})
        clock.advance(30)
        counter.note(3, labels={"concert_singer": 1, "world": 2})
        assert counter.label_totals() == {"concert_singer": 3, "world": 2}
        clock.advance(31)
        assert counter.label_totals() == {"concert_singer": 1, "world": 2}
        clock.advance(30)
        assert "world" not in counter.label_totals()
        assert counter.label_totals() == {}

    def test_labels_count_apart_from_the_amount(self):
        clock = SteppedTime()
        counter = WindowedCounter(window_seconds=60, clock=clock.monotonic)
        counter.note(0, labels={"world": 5})
        counter.note(2)
        assert counter.total() == 2
        assert counter.label_totals() == {"world": 5}


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

    @pytest.mark.parametrize("overrides, message", [
        ({"name": ""}, "name"),
        ({"fraction": 0.0}, "fraction"),
        ({"fraction": 1.5}, "fraction"),
        ({"qps": 0.0}, "qps"),
        ({"qps": -5.0}, "qps"),
        ({"hot_offset": -1}, "hot_offset"),
        ({"distribution": "bursty"}, "distribution"),
        ({"unique_fraction": 0.0}, "unique_fraction"),
    ])
    def test_an_invalid_phase_is_refused(self, overrides, message):
        arguments = {"name": "steady", "fraction": 1.0, "qps": 10.0, **overrides}
        with pytest.raises(ValueError, match=message):
            ScenarioPhase(**arguments)

    @pytest.mark.parametrize("overrides, message", [
        ({"num_requests": 0}, "num_requests"),
        ({"qps": 0.0}, "qps"),
        ({"burst_factor": 1.0}, "burst_factor"),
    ])
    def test_a_named_scenario_refuses_a_bad_envelope(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            named_scenario("burst", **overrides)

    def test_a_scenario_needs_a_phase_and_a_request_per_phase(self):
        with pytest.raises(ValueError, match="at least one phase"):
            ScenarioConfig(phases=())
        with pytest.raises(ValueError, match="one request per phase"):
            ScenarioConfig(phases=(ScenarioPhase("a", 0.5, 10.0),
                                   ScenarioPhase("b", 0.5, 10.0)),
                           num_requests=1)

    def test_an_empty_pool_is_refused(self):
        with pytest.raises(ValueError, match="empty"):
            ScenarioDriver([], named_scenario("steady"))

    @pytest.mark.parametrize("name", loadgen.SCENARIO_NAMES)
    def test_every_stock_scenario_plays_exactly_its_budget(self, name):
        for num_requests in (3, 7, 100, 301):
            config = named_scenario(name, num_requests=num_requests, qps=20.0)
            lengths = config.phase_lengths()
            assert sum(lengths) == num_requests
            assert min(lengths) >= 1
            driver = ScenarioDriver(self.QUESTIONS, config)
            plan = driver.plan()
            assert len(plan) == len(driver.schedule()) == num_requests
            assert [phase for phase, _ in plan] == [
                phase.name for phase, length in zip(config.phases, lengths)
                for _ in range(length)]

    def test_the_burst_phase_is_spaced_by_the_burst_factor(self):
        config = named_scenario("burst", num_requests=10, qps=10.0,
                                burst_factor=4.0)
        assert config.phase_lengths() == [3, 4, 3]
        offsets = ScenarioDriver(self.QUESTIONS, config).schedule()
        assert offsets == pytest.approx([0.0, 0.1, 0.2,
                                         0.3, 0.325, 0.35, 0.375,
                                         0.4, 0.5, 0.6])

    def test_an_open_loop_releases_each_request_on_its_schedule(self, monkeypatch):
        clock = SteppedTime()
        monkeypatch.setattr(loadgen, "time", clock)
        releases = []
        config = ScenarioConfig(phases=(ScenarioPhase("steady", 1.0, 4.0),),
                                num_requests=4)
        report = ScenarioDriver(self.QUESTIONS, config).run(
            lambda question: releases.append(clock.now))
        assert releases == [0.0, 0.25, 0.5, 0.75]
        assert (report.answered, report.errors) == (4, 0)
        assert report.max_lag_seconds == 0.0
        assert report.duration_seconds == pytest.approx(0.75)

    def test_lag_is_measured_from_the_scheduled_release(self, monkeypatch):
        """A service slower than the schedule builds a backlog, and each
        request's lag carries it: the open loop does not hide the wait."""
        clock = SteppedTime()
        monkeypatch.setattr(loadgen, "time", clock)
        config = ScenarioConfig(phases=(ScenarioPhase("steady", 1.0, 100.0),),
                                num_requests=5)
        report = ScenarioDriver(self.QUESTIONS, config).run(
            lambda question: clock.advance(0.05))
        # request k is released at 0.01k and answered at 0.05(k + 1)
        assert report.max_lag_seconds == pytest.approx(0.21)
        assert report.latency["count"] == 5
        assert report.latency["p50_ms"] == pytest.approx(130.0)
        assert report.latency["max_ms"] == pytest.approx(210.0)
        assert report.throughput_rps == pytest.approx(5 / 0.25)

    def test_errors_are_counted_apart_from_answers_per_phase(self, monkeypatch):
        clock = SteppedTime()
        monkeypatch.setattr(loadgen, "time", clock)
        config = named_scenario("burst", num_requests=20, qps=1000.0)
        assert config.phase_lengths() == [6, 8, 6]
        calls = [0]

        def submit(question):
            calls[0] += 1
            if 6 < calls[0] <= 14:  # every request of the burst phase
                raise RuntimeError("boom")

        report = ScenarioDriver(self.QUESTIONS, config).run(submit)
        assert (report.num_requests, report.answered, report.errors) == (20, 12, 8)
        assert report.latency["count"] == 12
        assert {name: (phase["requests"], phase["answered"], phase["errors"])
                for name, phase in report.phases.items()} == {
            "warmup": (6, 6, 0), "burst": (8, 0, 8), "recover": (6, 6, 0)}
        assert report.phases["burst"]["latency"]["count"] == 0
        assert report.to_json()["phases"]["recover"]["answered"] == 6
