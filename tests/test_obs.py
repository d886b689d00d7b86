"""Observability layer: tracer/span/journal, stage metrics, and the exporters.

Everything here runs on injectable fake clocks -- no sleeps, no wall-clock
flakiness.  The contracts:

* spans nest under the trace root (or an explicit parent), close exactly
  once, and feed per-stage metrics when their trace finishes;
* ``finish()`` force-closes abandoned child spans with an error status, so
  the journal never leaks open traces (the kill-mid-batch guarantee);
* remote span rows rebase onto the ``wire`` anchor span and stitch in
  under the parent trace id;
* the journal retains only the N slowest traces, slowest first;
* counters never expire and ``qps`` is the lifetime rate: a trailing rate
  is the difference of two snapshots;
* Prometheus text and JSON lines both parse back to the exact flattened
  sample list -- the two export paths provably carry the same numbers.
"""

from __future__ import annotations

import gc
import json
import weakref

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
from repro.obs import (
    TraceJournal,
    Tracer,
    distinct_traces,
    flatten_snapshot,
    maybe_span,
    parse_json_lines,
    parse_prometheus,
    stage_spans,
    to_json_lines,
    to_prometheus,
)
from repro.obs.export import main as export_main
from repro.obs.trace import stitch_span_rows
from repro.serving.metrics import STAGE_BACKLOG, MetricsRegistry


@pytest.fixture(scope="module")
def trained_router() -> SchemaRouter:
    catalog = _serving_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=11)
    sampler = SchemaSampler(graph, seed=11)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=250))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=4, beam_groups=2,
        seed=11))
    router.fit(report.examples)
    return router


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- spans and contexts --------------------------------------------------------
class TestTraceContext:
    def test_spans_nest_under_the_root_and_time_with_the_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        trace = tracer.start_trace("request", question_chars=17)
        clock.advance(0.5)
        with trace.span("encode", questions=2) as encode:
            clock.advance(0.25)
        child = trace.start_span("decode", parent=encode)
        clock.advance(1.0)
        child.end()
        trace.finish()

        assert trace.root.name == "request"
        assert trace.root.attributes == {"question_chars": 17}
        assert encode.parent_id == trace.root.span_id
        assert child.parent_id == encode.span_id
        assert encode.duration_seconds == pytest.approx(0.25)
        assert child.duration_seconds == pytest.approx(1.0)
        assert trace.duration_seconds() == pytest.approx(1.75)
        assert all(span.trace_id == trace.trace_id for span in trace.spans())

    def test_span_end_is_idempotent_and_exceptions_mark_errors(self):
        clock = FakeClock()
        trace = Tracer(clock=clock).start_trace()
        with pytest.raises(RuntimeError):
            with trace.span("decode"):
                raise RuntimeError("kernel divergence")
        (span,) = trace.find_spans("decode")
        assert span.status == "error"
        assert "kernel divergence" in span.error
        first_end = span.ended
        clock.advance(5.0)
        span.end()  # second close must not move the clock or clear the error
        assert span.ended == first_end
        assert span.status == "error"

    def test_finish_force_closes_abandoned_spans_as_errors(self):
        """The leak guard: a scatter arm whose worker died mid-batch never
        calls ``end()``; finish() closes it with an error so the journal
        shows zero open traces."""
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        abandoned = trace.start_span("scatter", shard=0)
        trace.finish()

        assert abandoned.ended is not None
        assert abandoned.status == "error"
        assert abandoned.error == "abandoned"
        assert trace.root.status == "ok"  # the request itself succeeded
        assert trace.open_span_count() == 0
        assert tracer.journal.open_trace_count() == 0
        assert tracer.journal.open_span_count() == 0

    def test_spans_started_after_finish_are_detached(self):
        """A timed-out runner thread that wakes up late must not corrupt the
        completed record."""
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        trace.finish()
        late = trace.start_span("scatter", shard=1)
        late.end()
        assert late not in trace.spans()
        assert trace.open_span_count() == 0

    def test_a_finished_trace_is_freed_without_the_cycle_collector(self):
        """``finish()`` releases each span's hold on its context, so a trace
        nobody keeps is freed by reference counting: no span <-> context
        cycle is left for the cyclic collector."""
        tracer = Tracer(clock=FakeClock(), max_slow_traces=0)
        trace = tracer.start_trace()
        with trace.span("encode"):
            pass
        trace.start_span("scatter")  # abandoned: force-closed by the finish
        trace.finish()
        freed = weakref.ref(trace)
        gc.disable()
        try:
            del trace
            assert freed() is None
        finally:
            gc.enable()

    def test_scoped_view_parents_spans_under_its_anchor(self):
        trace = Tracer(clock=FakeClock()).start_trace()
        with trace.span("escalation") as anchor:
            scope = trace.scoped(anchor)
            assert scope.trace_id == trace.trace_id
            with scope.span("scatter", shard=0) as nested:
                pass
        assert nested.parent_id == anchor.span_id
        assert scope.wire_context()["parent_span_id"] == anchor.span_id

    def test_disabled_tracer_returns_none_and_helpers_noop(self):
        tracer = Tracer(enabled=False, clock=FakeClock())
        assert tracer.start_trace() is None
        with maybe_span(None, "encode") as span:
            assert span is None
        assert distinct_traces(None) == []
        assert distinct_traces([None, None]) == []

    def test_distinct_traces_collapses_repeats_by_identity(self):
        tracer = Tracer(clock=FakeClock())
        a = tracer.start_trace()
        b = tracer.start_trace()
        assert distinct_traces([a, a, None, b, a]) == [a, b]
        with stage_spans([a, b], "decode", backend="vectorized") as spans:
            assert [span.name for span in spans] == ["decode", "decode"]
        assert all(span.ended is not None for span in spans)
        a.finish()
        b.finish()


class TestRemoteStitching:
    def test_remote_spans_rebase_into_the_wire_window(self):
        """A child on a wildly different monotonic epoch stitches in centered
        inside the parent's wire span, keeping its own internal layout."""
        clock = FakeClock(start=1000.0)
        tracer = Tracer(clock=clock)
        trace = tracer.start_trace()
        wire = trace.start_span("wire", shard=0)
        clock.advance(4.0)
        wire.end()

        # the worker's clock shares no epoch with ours.  Rows are [parent
        # row, name, started, ended, status, error, attributes], times in
        # integer nanoseconds since the worker's root started.
        worker_rows = [
            [None, "worker", 0, 2_000_000_000, "ok", None, {"shard": 0}],
            [0, "decode", 500_000_000, 1_500_000_000, "ok", None, {"steps": 12}],
        ]
        assert trace.add_remote_spans(worker_rows, anchor=wire) is None
        trace.finish()

        worker, decode = added = trace.spans()[-2:]
        assert all(span.remote for span in added)
        assert worker.parent_id == wire.span_id  # parentless hangs off anchor
        assert decode.parent_id == worker.span_id
        # rebased midpoint of the remote window == midpoint of the wire span
        assert (worker.started + worker.ended) / 2 == pytest.approx(1002.0)
        assert worker.duration_seconds == pytest.approx(2.0)  # layout kept
        assert decode.started - worker.started == pytest.approx(0.5)
        assert decode.attributes == {"steps": 12}
        assert decode.status == "ok" and decode.error is None
        assert {span.trace_id for span in trace.spans()} == {trace.trace_id}
        assert trace.spans()[-2:] == added  # built once, on the first read
        # the journal record carries the derived fields the rows left out
        (record,) = tracer.journal.slowest()
        by_name = {span["name"]: span for span in record["spans"]}
        assert by_name["decode"]["remote"] is True
        assert by_name["decode"]["duration_ms"] == pytest.approx(1000.0)
        assert by_name["decode"]["parent_id"] == by_name["worker"]["span_id"]

    def test_span_rows_round_trip_a_tree(self):
        """What a worker ships is what the parent stitches: the tree, names,
        statuses, errors and attributes of the adopted trace survive
        ``span_rows`` -> JSON -> ``add_remote_spans``."""
        clock = FakeClock(start=5.0)
        child = Tracer(enabled=False, clock=clock).adopt(
            "t" * 16, "p" * 16, name="worker", shard=1)
        with child.span("encode", questions=2) as encode:
            clock.advance(0.25)
        failed = child.start_span("decode", parent=encode)
        clock.advance(0.5)
        failed.end(status="error", error="ValueError: boom")
        child.finish()
        rows = json.loads(json.dumps(child.span_rows()))
        assert rows[0][0] is None  # the adopted root: parent not in the trace
        assert [row[2:4] for row in rows] == [
            [0, 750_000_000], [0, 250_000_000], [250_000_000, 750_000_000]]
        assert [row[1] for row in rows] == ["worker", "encode", "decode"]

        trace = Tracer(clock=FakeClock()).start_trace()
        wire = trace.start_span("wire")
        wire.end()
        trace.add_remote_spans(rows, anchor=wire)
        worker, stitched_encode, decode = trace.spans()[2:]
        assert worker.parent_id == wire.span_id
        assert stitched_encode.parent_id == worker.span_id
        assert decode.parent_id == stitched_encode.span_id
        assert worker.attributes == {"shard": 1}
        assert stitched_encode.attributes == {"questions": 2}
        assert (decode.status, decode.error) == ("error", "ValueError: boom")
        assert decode.duration_seconds == pytest.approx(0.5)
        trace.finish()

    def test_adopt_joins_a_trace_even_when_disabled(self):
        """A wire frame carrying a trace id *is* the instruction to trace --
        the child-side tracer's enabled flag is irrelevant."""
        tracer = Tracer(enabled=False, clock=FakeClock())
        context = tracer.adopt("abc123", "parentspan", name="worker", shard=1)
        assert context.trace_id == "abc123"
        assert context.root.parent_id == "parentspan"
        context.finish()
        assert tracer.journal.completed == 1

    def test_garbage_remote_payloads_are_ignored(self):
        """Rows of any other shape are dropped whole, without raising --
        including the span dicts protocol 5 shipped -- and a trace holding
        them reads as if they never came."""
        trace = Tracer(clock=FakeClock()).start_trace()
        wire = trace.start_span("wire")
        wire.end()
        garbage = (
            [],
            [None, "junk"],
            [[None, "worker", 0, 2, "ok", None, {}], [None, "short"]],
            [[1, "worker", 0, 2, "ok", None, {}]],  # a parent row not earlier
            [{"span_id": "w" * 16, "parent_id": None, "name": "worker",
              "started": 7.0, "ended": 9.0, "status": "ok", "error": None,
              "attributes": {}}],
        )
        for rows in garbage:
            assert stitch_span_rows(rows, wire, wire.ended) == []
            trace.add_remote_spans(rows, anchor=wire)
        trace.finish()
        assert [span.name for span in trace.spans()] == ["request", "wire"]

    def test_rows_arriving_after_the_finish_are_dropped(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        wire = trace.start_span("wire")
        trace.finish()
        trace.add_remote_spans([[None, "worker", 0, 1, "ok", None, {}]],
                               anchor=wire)
        assert [span.name for span in trace.spans()] == ["request", "wire"]


class TestTraceJournal:
    def test_retains_only_the_slowest_traces(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, max_slow_traces=2)
        for duration in (0.1, 0.9, 0.3, 0.7):
            trace = tracer.start_trace("request", ms=duration)
            clock.advance(duration)
            trace.finish()
        journal = tracer.journal
        assert journal.completed == 4
        retained = journal.slowest()
        assert [record["duration_ms"] for record in retained] == [900.0, 700.0]
        assert all(record["spans"] for record in retained)
        assert journal.find(retained[0]["trace_id"]) is retained[0] \
            or journal.find(retained[0]["trace_id"])["trace_id"] \
            == retained[0]["trace_id"]
        assert journal.find("no-such-trace") is None

    def test_stats_counts_errors_and_round_trips_as_json(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        ok = tracer.start_trace()
        clock.advance(0.2)
        ok.finish()
        bad = tracer.start_trace()
        bad.finish(status="error", error="boom")
        open_trace = tracer.start_trace()
        open_trace.start_span("scatter")

        stats = tracer.journal.stats()
        assert stats["open_traces"] == 1
        assert stats["open_spans"] == 2  # the open root + its scatter child
        assert stats["completed"] == 2
        assert stats["errors"] == 1
        assert stats["retained"] == 2
        assert stats == json.loads(json.dumps(stats))
        open_trace.finish()

    def test_zero_retention_is_allowed(self):
        tracer = Tracer(clock=FakeClock(), max_slow_traces=0)
        trace = tracer.start_trace()
        trace.finish()
        assert tracer.journal.slowest() == []
        assert tracer.journal.stats()["retained"] == 0
        with pytest.raises(ValueError):
            TraceJournal(max_slow_traces=-1)


class TestStageMetrics:
    def test_closed_spans_feed_stage_recorders(self):
        clock = FakeClock()
        metrics = MetricsRegistry(clock=clock)
        tracer = Tracer(metrics=metrics, clock=clock)
        trace = tracer.start_trace()
        with trace.span("encode"):
            clock.advance(0.010)
        with trace.span("decode"):
            clock.advance(0.040)
        trace.finish()

        stages = metrics.snapshot()["stages"]
        assert set(stages) == {"encode", "decode", "request"}
        assert stages["encode"]["count"] == 1
        assert stages["encode"]["p50_ms"] == pytest.approx(10.0)
        assert stages["decode"]["p50_ms"] == pytest.approx(40.0)
        assert stages["request"]["p50_ms"] == pytest.approx(50.0)

    def test_stage_observations_are_filed_in_bulk_and_on_read(self):
        """A finished trace's stages wait in a bounded backlog: a full
        backlog is filed without any read, and a read files the rest, so the
        counts are exact either way."""
        metrics = MetricsRegistry(clock=FakeClock())
        metrics.observe_stages([("wire", 0.001)] * (STAGE_BACKLOG - 1))
        assert len(metrics._stage_backlog) == STAGE_BACKLOG - 1
        metrics.observe_stages([("merge", 0.002), ("wire", 0.001)])
        assert metrics._stage_backlog == []  # filed at the bound
        metrics.observe_stages([("merge", 0.004)])
        stages = metrics.stage_summaries()
        assert {name: stage["count"] for name, stage in stages.items()} \
            == {"wire": STAGE_BACKLOG, "merge": 2}
        assert stages["merge"]["max_ms"] == pytest.approx(4.0)

    def test_remote_spans_do_not_feed_local_stage_metrics(self):
        """The worker already recorded its stages against its own registry;
        double-counting them here would skew the parent's percentiles."""
        clock = FakeClock()
        metrics = MetricsRegistry(clock=clock)
        trace = Tracer(metrics=metrics, clock=clock).start_trace()
        wire = trace.start_span("wire")
        clock.advance(1.0)
        wire.end()
        trace.add_remote_spans(
            [[None, "decode", 0, 1_000_000_000, "ok", None, {}]], anchor=wire)
        trace.finish()
        assert "decode" not in metrics.stage_summaries()
        assert "wire" in metrics.stage_summaries()


# -- lifetime rates ------------------------------------------------------------
class TestLifetimeRates:
    """Counters are cumulative from the registry's birth and ``qps`` is the
    lifetime rate; a trailing rate is the difference of two snapshots."""

    def test_lifetime_qps_is_diluted_by_a_long_idle_stretch(self):
        clock = FakeClock(start=0.0)
        metrics = MetricsRegistry(clock=clock)
        for _ in range(100):
            metrics.increment("requests")
        clock.advance(3600.0)  # an hour of silence
        for _ in range(120):
            metrics.increment("requests")
        snapshot = metrics.snapshot()
        assert snapshot["uptime_seconds"] == 3600.0
        assert snapshot["qps"] == pytest.approx(220 / 3600.0, abs=0.01)

    def test_uptime_and_qps_read_the_injected_clock(self):
        clock = FakeClock(start=50.0)
        metrics = MetricsRegistry(clock=clock)
        clock.advance(12.5)
        metrics.increment("requests", amount=25)
        assert metrics.uptime_seconds() == pytest.approx(12.5)
        snapshot = metrics.snapshot()
        assert snapshot["uptime_seconds"] == 12.5
        assert snapshot["qps"] == 2.0

    def test_counters_never_expire(self):
        clock = FakeClock(start=0.0)
        metrics = MetricsRegistry(clock=clock)
        metrics.increment("requests", amount=30)
        clock.advance(86400.0)
        metrics.increment("requests")
        assert metrics.counter("requests") == 31
        assert metrics.snapshot()["counters"] == {"requests": 31}

    def test_only_requests_feed_qps(self):
        clock = FakeClock(start=0.0)
        metrics = MetricsRegistry(clock=clock)
        clock.advance(10.0)
        metrics.increment("cache_hits", amount=50)
        metrics.increment("errors")
        assert metrics.snapshot()["qps"] == 0.0
        metrics.increment("requests", amount=6)
        metrics.increment("requests")
        assert metrics.snapshot()["qps"] == 0.7
        assert metrics.counters() == {"cache_hits": 50, "errors": 1, "requests": 7}

    def test_a_trailing_rate_is_two_snapshots_difference(self):
        clock = FakeClock(start=0.0)
        metrics = MetricsRegistry(clock=clock)
        metrics.increment("requests", amount=100)
        clock.advance(3600.0)
        before = metrics.snapshot()
        metrics.increment("requests", amount=120)
        clock.advance(60.0)
        after = metrics.snapshot()
        served = after["counters"]["requests"] - before["counters"]["requests"]
        elapsed = after["uptime_seconds"] - before["uptime_seconds"]
        assert served / elapsed == pytest.approx(2.0)
        assert after["qps"] < 0.1  # the lifetime rate stays diluted

    def test_the_export_carries_the_lifetime_rate(self):
        clock = FakeClock(start=0.0)
        metrics = MetricsRegistry(clock=clock)
        clock.advance(4.0)
        metrics.increment("requests", amount=10)
        samples = {name: value
                   for name, labels, value in flatten_snapshot(metrics.snapshot())
                   if not labels}
        assert samples["repro_qps"] == 2.5
        assert samples["repro_counters_requests"] == 10.0
        assert samples["repro_uptime_seconds"] == 4.0
        assert not any("window" in name for name in samples)


# -- the exporters -------------------------------------------------------------
SNAPSHOT = {
    "uptime_seconds": 12.5,
    "qps": 3.25,
    "counters": {"requests": 40, "cache_hits": 10},
    "latency": {"count": 40, "p50_ms": 1.5, "p99_ms": 9.75},
    "batch_size_histogram": {"1": 12, "8": 3},  # digit keys become labels
    "batching": {"enabled": True},
    "stages": {"decode": {"count": 40, "p50_ms": 1.25}},
    "shards": [{"shard_id": 0, "databases": 3}, {"shard_id": 1, "databases": 2}],
    "worker_backend": "subprocess",  # strings carry no numeric value
    "checkpoint": None,
}


class TestExporters:
    def test_flatten_produces_numeric_samples_with_labels(self):
        samples = flatten_snapshot(SNAPSHOT)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["repro_uptime_seconds"] == [({}, 12.5)]
        assert by_name["repro_counters_requests"] == [({}, 40.0)]
        assert by_name["repro_batching_enabled"] == [({}, 1.0)]  # bool -> 1.0
        assert by_name["repro_stages_decode_p50_ms"] == [({}, 1.25)]
        # digit-leading histogram keys become labels on the enclosing field
        assert sorted(by_name["repro_batch_size_histogram"],
                      key=lambda sample: sorted(sample[0].items())) == [
            ({"batch_size_histogram": "1"}, 12.0),
            ({"batch_size_histogram": "8"}, 3.0),
        ]
        # list items are labelled by index
        assert sorted(by_name["repro_shards_shard_id"],
                      key=lambda sample: sorted(sample[0].items())) == [
            ({"shards_index": "0"}, 0.0), ({"shards_index": "1"}, 1.0)]
        # strings and None never become samples
        assert "repro_worker_backend" not in by_name
        assert "repro_checkpoint" not in by_name

    def test_prometheus_and_jsonl_round_trip_identically(self):
        """The acceptance contract: both renderings parse back to the exact
        flattened sample list, so the two export paths carry the same
        numbers (including awkward floats)."""
        snapshot = dict(SNAPSHOT, awkward=0.1 + 0.2)  # not exactly 0.3
        expected = [(name, {str(k): str(v) for k, v in labels.items()}, value)
                    for name, labels, value in flatten_snapshot(snapshot)]
        assert parse_prometheus(to_prometheus(snapshot)) == expected
        assert parse_json_lines(to_json_lines(snapshot)) == expected

    def test_prometheus_text_shape(self):
        text = to_prometheus({"qps": 2.0, "cache": {"hits": 3}}, prefix="svc")
        lines = text.splitlines()
        assert "# TYPE svc_qps gauge" in lines
        assert "svc_qps 2.0" in lines
        assert "svc_cache_hits 3.0" in lines
        assert text.endswith("\n")
        with pytest.raises(ValueError):
            parse_prometheus("{not a series}")

    def test_counter_and_histogram_type_lines(self):
        snapshot = {
            "counters": {"requests": 40, "errors": 2},
            "cache": {"hits": 5, "misses": 2, "hit_rate": 0.71},
            "dispatcher": {"escalations": 7, "questions": 12},
            "front_cache": {"hits": 5, "misses": 2, "size": 2},
            "latency": {"count": 2, "total_seconds": 0.3, "p95_ms": 200.0,
                        "buckets": {"0.1": 1, "0.25": 2, "+Inf": 2}},
        }
        text = to_prometheus(snapshot)
        lines = text.splitlines()
        # monotonic counters are typed honestly, ratios stay gauges
        assert "# TYPE repro_counters_requests counter" in lines
        assert "# TYPE repro_cache_hits counter" in lines
        assert "# TYPE repro_cache_hit_rate gauge" in lines
        assert "# TYPE repro_dispatcher_escalations counter" in lines
        assert "# TYPE repro_dispatcher_questions counter" in lines
        assert "# TYPE repro_front_cache_hits counter" in lines
        assert "# TYPE repro_front_cache_size gauge" in lines
        # the recorder summary yields one histogram family, typed once...
        assert lines.count("# TYPE repro_latency_seconds histogram") == 1
        assert not any(line.startswith("# TYPE repro_latency_seconds_bucket")
                       for line in lines)
        # ...with cumulative le-labelled buckets plus _sum/_count series
        assert 'repro_latency_seconds_bucket{le="0.1"} 1.0' in lines
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2.0' in lines
        assert "repro_latency_seconds_sum 0.3" in lines
        assert "repro_latency_seconds_count 2.0" in lines
        # typing never broke the round-trip contract
        assert parse_prometheus(text) == [
            (name, {str(key): str(val) for key, val in labels.items()}, value)
            for name, labels, value in flatten_snapshot(snapshot)]

    def test_live_latency_summary_exports_histogram_series(self, trained_router):
        from repro.serving import RoutingService, ServingConfig

        service = RoutingService(trained_router,
                                 config=ServingConfig())
        try:
            service.submit("Which databases mention concerts?")
            text = to_prometheus(service.stats())
        finally:
            service.close()
        samples = parse_prometheus(text)
        bucket_counts = [value for name, labels, value in samples
                         if name == "repro_latency_seconds_bucket"]
        assert bucket_counts == sorted(bucket_counts)  # cumulative
        assert bucket_counts[-1] == 1.0  # +Inf bucket counts every request
        assert ("repro_latency_seconds_count", {}, 1.0) in samples

    def test_label_escaping_round_trips(self):
        # a digit-leading key cannot extend the metric name, so it becomes a
        # label -- whose value needs quote/backslash/newline escaping
        snapshot = {"weird": {'9"x\\y\nz': 1.0}}
        samples = parse_prometheus(to_prometheus(snapshot))
        assert samples == [("repro_weird", {"weird": '9"x\\y\nz'}, 1.0)]

    def test_live_service_snapshot_exports_cleanly(self, trained_router):
        """A real ``stats()`` dict (traces, stages, cache and all) flattens
        and round-trips without special-casing."""
        from repro.serving import RoutingService, ServingConfig

        service = RoutingService(trained_router,
                                 config=ServingConfig())
        try:
            service.submit("Which databases mention concerts?")
            snapshot = service.stats()
        finally:
            service.close()
        samples = flatten_snapshot(snapshot)
        assert any(name == "repro_counters_requests" for name, _, _ in samples)
        assert any(name.startswith("repro_stages_") for name, _, _ in samples)
        assert any(name == "repro_traces_completed" for name, _, _ in samples)
        expected = [(name, {str(k): str(v) for k, v in labels.items()}, value)
                    for name, labels, value in samples]
        assert parse_prometheus(to_prometheus(snapshot)) == expected
        assert parse_json_lines(to_json_lines(snapshot)) == expected


class TestExportCli:
    def test_input_file_to_prometheus(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps({"qps": 4.5, "counters": {"requests": 9}}))
        assert export_main(["--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert parse_prometheus(out) == [("repro_qps", {}, 4.5),
                                         ("repro_counters_requests", {}, 9.0)]

    def test_input_file_to_jsonl_with_prefix(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps({"qps": 4.5}))
        assert export_main(["--input", str(path), "--format", "jsonl",
                            "--prefix", "router"]) == 0
        assert parse_json_lines(capsys.readouterr().out) \
            == [("router_qps", {}, 4.5)]

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"qps": 1.0})))
        assert export_main(["--input", "-"]) == 0
        assert parse_prometheus(capsys.readouterr().out) \
            == [("repro_qps", {}, 1.0)]

    def test_probe_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit):
            export_main(["--input", "x.json", "--probe", "q"])

    def test_checkpoint_boot_and_probe(self, trained_router, tmp_path, capsys):
        from repro.serving import save_router

        ckpt = save_router(trained_router, tmp_path / "ckpt")
        assert export_main(["--checkpoint", str(ckpt), "--probe",
                            "Which databases mention concerts?"]) == 0
        samples = dict(((name, tuple(sorted(labels.items()))), value)
                       for name, labels, value in
                       parse_prometheus(capsys.readouterr().out))
        assert samples[("repro_counters_requests", ())] >= 1.0
