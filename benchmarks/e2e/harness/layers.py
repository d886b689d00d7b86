"""The traced pass: where a wave's time goes, layer by layer.

``--trace 1`` replays the first quarter of the workload's stream twice on one
booted service: once untouched, once with a harness span around every call
into a layer's public functions (the ``PATCH_POINTS`` below, wrapped from
outside -- the program is not edited).  The second pass yields the per-layer
numbers; the difference between the two is the tracing overhead.  End-to-end
numbers never come from here.

Three sources feed the metrics:

* harness spans (``harness.spans``) -- everything reachable in this process;
* the program's own request traces, read as each one finishes -- the only
  view into subprocess workers (their spans ride the reply frames), the
  ``parse`` stage (no public function bounds it), and the decode engine's
  counters;
* ``stats()`` / ``transport_stats()`` deltas and ``/proc`` -- cache verdicts,
  wire bytes, escalations, worker CPU and memory.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

from harness import CACHE_ROOT
from harness.fixture import Fixture
from harness.measure import (
    SpeedProbe,
    process_cpu_seconds,
    process_status_mb,
    run_phase,
    split_blocks,
)
from harness.session import RunConfig, phase_calls, set_up, stream_total
from harness.spans import SpanRecorder, covered_seconds, self_seconds_by_name
from harness.workloads import build_stream

SPAN_ROOT = CACHE_ROOT / "e2e-spans"

#: (module, attribute path, span name): wrapped while the traced pass runs.
#: A point that no longer exists is skipped and listed under
#: ``unpatched`` in the report, so a refactor degrades one metric to 0
#: instead of breaking the instrument.
PATCH_POINTS = (
    ("repro.nn.tokenizer", "WordTokenizer.encode_text", "core.tokenize"),
    ("repro.nn.seq2seq", "Seq2SeqModel.encode_numpy_batch", "nn.encode"),
    ("repro.core.router", "diverse_beam_search_batch", "nn.decode"),
    ("repro.core.router", "SchemaRouter.route_batch", "core.route_batch"),
    ("repro.cluster.dispatcher", "merge_route_lists", "core.merge"),
    ("repro.serving.cache", "RouteCache.get", "serving.cache_probe"),
    ("repro.serving.cache", "RouteCache.get_many", "serving.cache_probe"),
    ("repro.serving.cache", "RouteCache.put", "serving.cache_put"),
    ("repro.serving.service", "RoutingService.submit", "serving.submit"),
    ("repro.serving.service", "RoutingService.submit_many", "serving.submit"),
    ("repro.cluster.service", "ClusterRoutingService.submit_many", "cluster.submit"),
    ("repro.llm.pipeline", "SchemaAgnosticNL2SQL.answer", "llm.answer"),
    ("repro.llm.client", "build_best_schema_prompt", "llm.prompt"),
    ("repro.llm.sqlgen", "HeuristicSqlGenerator.generate", "llm.generate"),
    ("repro.llm.pipeline", "parse_sql", "sql.parse"),
    ("repro.sql.executor", "parse_sql", "sql.parse"),
    ("repro.sql.executor", "SqlExecutor.execute_sql", "engine.execute"),
    ("repro.llm.pipeline", "results_equivalent", "engine.compare"),
)
#: Spans that only pass a call along: their self time is overhead no stage
#: below them accounts for, so they do not count towards coverage.
FACADES = frozenset({"wave", "serving.submit", "cluster.submit", "cluster.leg",
                     "llm.answer", "llm.call"})
DECODE_COUNTERS = ("steps", "beam_rows", "mask_cache_hits", "mask_cache_misses")
#: Printed beside the per-layer numbers: how to read them.
INTERACTIONS = (
    "one caller, nothing contends: a faster layer saves at most its self-time "
    "share of the wave",
    "a cluster wave waits for its slowest leg, and an escalated wave scatters "
    "twice: leg_imbalance and escalation_frac move tail latency before they "
    "move questions_per_s",
    "work moved into load (mask precompute, trunk sharing) must show in "
    "setup_s and peak_rss_mb",
    "end-to-end numbers come from the untraced run only",
)
PINGS_PER_WORKER = 30


class Instrumentation:
    """Installs the wrappers, collects what they see, removes them again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.unpatched: set[str] = set()
        #: stage name -> seconds, summed over the program's own trace spans.
        self.program_seconds: dict[str, float] = defaultdict(float)
        self.decode_counters: dict[str, float] = defaultdict(float)
        self.prompt_tokens = 0
        self.llm_calls = 0
        #: Route lists each subprocess worker returned, for the codec replay.
        self.wire_replies: list = []
        self._undo: list = []

    def _find(self, module: str, path: str):
        """(owner, attribute name) of a patch point, or None (and a note in
        ``unpatched``) when the program no longer has it."""
        try:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            getattr(owner, name)
        except (ImportError, AttributeError):
            self.unpatched.add(f"{module}.{path}")
            return None
        return owner, name

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap_point(self, module: str, path: str, span_name: str, **options) -> None:
        found = self._find(module, path)
        if found is not None:
            owner, name = found
            self._patch(owner, name, self.recorder.wrap(getattr(owner, name),
                                                        span_name, **options))

    def install(self, service) -> None:
        for module, path, span_name in PATCH_POINTS:
            self._wrap_point(module, path, span_name)
        self._wrap_point("repro.llm.client", "SimulatedLLM.generate_sql",
                         "llm.call", on_result=self._note_llm_call)
        self._wrap_point("repro.cluster.procworker", "ProcShardWorker.route_batch",
                         "cluster.wire", on_result=self.wire_replies.append)
        # The dispatcher bound its shard targets at construction, so a
        # class-level wrapper would never be called: wrap the bound entries.
        dispatcher = getattr(service, "dispatcher", None)
        for tier, attribute in (("fast", "targets"), ("careful", "careful_targets")):
            targets = getattr(dispatcher, attribute, None)
            if targets:
                self._patch(dispatcher, attribute,
                            [self.recorder.wrap(target, "cluster.leg", tag=tier)
                             for target in targets])
        self._observe_program_traces()

    def _note_llm_call(self, result) -> None:
        self.llm_calls += 1
        self.prompt_tokens += result[1].prompt_tokens

    def _observe_program_traces(self) -> None:
        found = self._find("repro.obs.trace", "TraceContext.finish")
        if found is None:
            return
        owner, name = found
        original = getattr(owner, name)
        instrumentation = self

        def finish(context, *args, **kwargs):
            already = context.finished
            result = original(context, *args, **kwargs)
            if not already:
                for span in context.spans():
                    if span.ended is None:
                        continue
                    instrumentation.program_seconds[span.name] += span.ended - span.started
                    if span.name == "decode":
                        for key in DECODE_COUNTERS:
                            instrumentation.decode_counters[key] += \
                                span.attributes.get(key, 0)
            return result

        self._patch(owner, name, finish)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# -- counters read from the program --------------------------------------------
def counter_snapshot(booted) -> dict[str, float]:
    stats = booted.service.stats()
    counters = stats.get("counters", {})
    cache = stats.get("cache") or {}
    transport = stats.get("transport") or {}
    return {
        "requests": counters.get("requests", 0),
        "front_cache_hits": counters.get("cache_hits", 0),
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "escalations": stats.get("dispatcher", {}).get("escalations", 0),
        "wire_bytes": transport.get("bytes_sent", 0) + transport.get("bytes_received", 0),
        "max_in_flight": transport.get("max_in_flight", 0),
        "worker_cpu": sum(process_cpu_seconds(pid) for pid in booted.worker_pids),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def wire_codec_seconds(replies: list) -> float:
    """Seconds, at reference speed, to encode and decode every recorded
    worker reply once."""
    if not replies:
        return 0.0
    from repro.cluster.transport import (
        BINARY_KEY,
        FRAME_HEADER,
        decode_payload,
        encode_frame,
        route_lists_from_binary,
        route_lists_to_binary,
    )

    probe = SpeedProbe()
    busy = 0.0
    for route_lists in replies:
        started = time.perf_counter()
        descriptor, segment = route_lists_to_binary(route_lists)
        frame = encode_frame({"type": "route_response", "id": 1,
                              "routes_binary": descriptor}, binary=segment)
        message = decode_payload(frame[:FRAME_HEADER.size], frame[FRAME_HEADER.size:])
        route_lists_from_binary(message["routes_binary"], message[BINARY_KEY])
        took = time.perf_counter() - started
        busy += took
        probe.after(took)
    return busy / probe.factor()[0]


def wire_rtt_ms(workers: list) -> float:
    """Median ping round trip, at reference speed."""
    probe = SpeedProbe()
    pings = []
    for worker in workers:
        for _ in range(PINGS_PER_WORKER):
            pings.append(worker.ping())
            probe.after(pings[-1])
    return 1000.0 * statistics.median(pings) / probe.factor()[0] if pings else 0.0


# -- span arithmetic -----------------------------------------------------------
def coverage_fraction(spans: list) -> float:
    """Share of the waves' wall during which some stage span was open."""
    roots = {}
    stages = defaultdict(list)
    for span in spans:
        if span.name == "wave":
            roots[span.wave] = span
        elif span.name not in FACADES:
            stages[span.wave].append(span)
    covered = wall = 0.0
    for wave, root in roots.items():
        wall += root.seconds
        covered += covered_seconds(
            (max(span.start, root.start), min(span.end, root.end))
            for span in stages[wave]
            if span.end > root.start and span.start < root.end)
    return _ratio(covered, wall)


def leg_metrics(spans: list, waves: int, slowdown: float = 1.0) -> dict[str, float]:
    """Scatter legs per wave; a wave with an escalation scatters twice, and
    each scatter waits for its own slowest leg."""
    scatters = defaultdict(list)
    for span in spans:
        if span.name == "cluster.leg":
            scatters[(span.wave, span.tag)].append(span.seconds)
    slowest = sum(max(legs) for legs in scatters.values())
    everything = sum(sum(legs) for legs in scatters.values())
    imbalance = [max(legs) / statistics.fmean(legs) for legs in scatters.values()]
    return {
        "cluster.leg_ms_per_wave.max": 1000.0 * _ratio(slowest / slowdown, waves),
        "cluster.leg_ms_per_wave.sum": 1000.0 * _ratio(everything / slowdown, waves),
        "cluster.leg_imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
    }


# -- the traced run ------------------------------------------------------------
def run_traced(config: RunConfig, fixture: Fixture,
               report: dict) -> tuple[dict, int, int]:
    """(per-layer metrics, questions attempted, questions failed)."""
    stream = build_stream(config.workload, fixture, config.seed,
                          stream_total(config, fixture))
    stream = stream[:max(1, len(stream) // 4)]
    booted, checker, _ = set_up(config, fixture, boots=1)
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    delta: dict[str, float] = defaultdict(float)
    overheads = []
    questions = failed = 0
    untraced_busy = traced_busy = traced_busy_raw = 0.0
    try:
        call, check, driver = phase_calls(config, fixture, booted, checker)
        pids = booted.worker_pids
        wave_ids = iter(range(len(stream)))

        def traced_call(item):
            with recorder.wave(next(wave_ids)):
                return call(item)

        def replay(block, block_call):
            if config.workload.stream == "cold":
                # Both replays of a block must decode it.
                booted.service.notify_catalog_changed()
            return run_phase(block, block_call, check, pids, blocks=1,
                             speed_sensitivity=config.workload.speed_sensitivity)

        def replay_traced(block):
            before = counter_snapshot(booted)
            instrumentation.install(booted.service)
            try:
                result = replay(block, traced_call)
            finally:
                instrumentation.uninstall()
            after = counter_snapshot(booted)
            for key in after:
                delta[key] += after[key] - before[key]
            delta["max_in_flight"] = after["max_in_flight"]
            return result

        # Block by block, alternating which replay goes first: drift over the
        # seconds a whole pass takes, and the memos the first replay of a
        # block leaves warm for the second, are both larger than the
        # overhead being measured.
        for index, block in enumerate(split_blocks(stream)):
            if index % 2:
                traced = replay_traced(block)
                plain = replay(block, call)
            else:
                plain = replay(block, call)
                traced = replay_traced(block)
            overheads.append(traced.busy_seconds / plain.busy_seconds - 1.0)
            questions += traced.questions
            failed += plain.failed + traced.failed
            untraced_busy += plain.busy_seconds
            traced_busy += traced.busy_seconds
            traced_busy_raw += traced.busy_seconds_raw
        rtt_ms = wire_rtt_ms(booted.proc_workers)
        worker_rss = sum(process_status_mb(pid, "VmRSS") for pid in pids)
    finally:
        booted.service.close()

    waves = len(stream)
    spans = recorder.spans
    own = defaultdict(float, self_seconds_by_name(spans))
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.seconds
        count[span.name] += 1
    program = instrumentation.program_seconds
    decode = instrumentation.decode_counters
    is_mono = config.workload.topology == "mono"

    # Span times are divided by how much slower than nominal the machine ran
    # during the traced replays (see ``harness.measure``).
    slowdown = traced_busy_raw / traced_busy

    def ms_per_q(seconds: float) -> float:
        return 1000.0 * seconds / slowdown / questions

    metrics = {
        # In-process decode is seen by harness spans; inside subprocess
        # workers only by the spans their replies carry.
        "nn.encode_ms_per_q": ms_per_q(total["nn.encode"] or program["encode"]),
        "nn.decode_ms_per_q": ms_per_q(total["nn.decode"] or program["decode"]),
        "nn.decode_steps_per_q": decode["steps"] / questions,
        "nn.beam_rows_per_q": decode["beam_rows"] / questions,
        "core.tokenize_ms_per_q": ms_per_q(total["core.tokenize"]),
        "core.parse_ms_per_q": ms_per_q(program["parse"]),
        "core.mask_cache_hit_frac": _ratio(
            decode["mask_cache_hits"],
            decode["mask_cache_hits"] + decode["mask_cache_misses"]),
        "core.route_batch_ms_per_q": ms_per_q(own["core.route_batch"]),
        "core.merge_ms_per_q": ms_per_q(total["core.merge"]),
        "serving.load_s": booted.load_seconds / booted.slowdown if is_mono else 0.0,
        "serving.cache_hit_frac": _ratio(delta["front_cache_hits"], delta["requests"])
        if is_mono else 0.0,
        "serving.cache_probe_us_per_q": 1000.0 * ms_per_q(total["serving.cache_probe"]),
        "serving.cache_put_us_per_q": 1000.0 * ms_per_q(total["serving.cache_put"]),
        "serving.overhead_ms_per_q": ms_per_q(own["serving.submit"]),
        "cluster.load_s": 0.0 if is_mono else booted.load_seconds / booted.slowdown,
        **leg_metrics(spans, waves, slowdown),
        "cluster.scatter_overhead_ms_per_wave":
            1000.0 * own["cluster.submit"] / slowdown / waves,
        "cluster.escalation_frac": delta["escalations"] / questions,
        "cluster.shard_cache_hit_frac": 0.0 if is_mono else _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "cluster.worker_cpu_ms_per_q": ms_per_q(delta["worker_cpu"]),
        "cluster.worker_rss_mb": worker_rss,
        "cluster.wire_bytes_per_q": delta["wire_bytes"] / questions,
        "cluster.wire_codec_us_per_q": 1000.0 * ms_per_q(
            wire_codec_seconds(instrumentation.wire_replies)),
        "cluster.wire_rtt_ms": rtt_ms,
        "cluster.max_in_flight": float(delta["max_in_flight"]),
        "llm.prompt_ms_per_q": ms_per_q(total["llm.prompt"]),
        "llm.generate_ms_per_q": ms_per_q(total["llm.generate"]),
        "llm.prompt_tokens_per_q": instrumentation.prompt_tokens / questions,
        "llm.calls_per_q": instrumentation.llm_calls / questions,
        "sql.parse_ms_per_q": ms_per_q(total["sql.parse"]),
        "engine.execute_ms_per_q": ms_per_q(own["engine.execute"]),
        "engine.compare_ms_per_q": ms_per_q(total["engine.compare"]),
        "engine.exec_fail_frac": _ratio(
            sum(result.error != "" for result in driver.results.values()),
            len(driver.results)) if driver is not None else 0.0,
        "harness.coverage_frac": coverage_fraction(spans),
        "harness.trace_overhead_frac": statistics.median(overheads),
    }
    span_file = SPAN_ROOT / f"{config.workload.name}-seed{config.seed}.jsonl"
    recorder.write(span_file)
    report["traced"] = {
        "questions": questions, "waves": waves, "spans": len(spans),
        "span_file": str(span_file.relative_to(CACHE_ROOT.parent)),
        "span_counts": dict(sorted(count.items())),
        "self_ms_per_q": {name: ms_per_q(seconds)
                          for name, seconds in sorted(own.items())},
        "program_stage_ms_per_q": {name: ms_per_q(seconds)
                                   for name, seconds in sorted(program.items())},
        "untraced_busy_s": untraced_busy,
        "traced_busy_s": traced_busy,
        "speed_factor": slowdown,
        "unpatched": sorted(instrumentation.unpatched),
        "how_layers_interact": list(INTERACTIONS),
    }
    return metrics, 2 * questions, failed
