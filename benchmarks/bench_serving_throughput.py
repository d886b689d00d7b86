"""Serving throughput: batched + cached service vs naive per-question routing.

The workload repeats questions (Zipf-skewed, as real user traffic does), so
the route cache absorbs the head of the distribution and concurrent misses
share decodes (group commit) to amortize encoding.  The benchmark prints the usual
result table plus a one-line JSON summary (``SERVING_SUMMARY ...``) with
routes/sec, the speedup over naive routing, cache hit rate, and p95 latency.

``test_tracing_overhead`` runs the same workload with request tracing on and
off (interleaved rounds, each side's best round) and prints the overhead in
``OBS_SUMMARY ...`` beside the stage-breakdown percentiles; it asserts the
trace bookkeeping: one completed trace per cache miss, none left open.
``test_monitor_overhead`` does the same with a background
:class:`repro.obs.Monitor` ticking far faster than production would, prints
``HEALTH_SUMMARY ...``, and asserts a healthy, alert-free steady state.
No ratio between the twins is gated: speed is the end-to-end benchmark's
(``benchmarks/e2e``) to measure.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs import Monitor
from repro.serving import LoadGenerator, RoutingService, ServingConfig, WorkloadConfig
from repro.utils.tables import ResultTable

#: Shared workload shape: many repeats over a small distinct-question head.
#: ``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke lanes.
WORKLOAD = WorkloadConfig(
    num_requests=int(os.environ.get("REPRO_BENCH_REQUESTS", "150")),
    unique_fraction=0.1, skew=1.0, seed=17, concurrency=4)


def test_serving_throughput(benchmark, spider_context, spider_serving):
    router = spider_context.copilot.router
    questions = [example.question for example in spider_context.test_examples()[:40]]
    generator = LoadGenerator(questions, WORKLOAD)
    workload = generator.workload()

    # Naive baseline: one synchronous route() call per request, no reuse.
    started = time.perf_counter()
    for question in workload:
        router.route(question)
    naive_elapsed = max(time.perf_counter() - started, 1e-9)
    naive_rps = len(workload) / naive_elapsed

    # The service: checkpoint-loaded router behind cache + group commit.
    report = benchmark.pedantic(lambda: generator.run(spider_serving.submit),
                                rounds=1, iterations=1)
    stats = spider_serving.stats()

    table = ResultTable(
        title="Serving throughput: batched + cached vs naive routing",
        columns=["mode", "routes_per_sec", "p95_ms", "cache_hit_rate"],
    )
    table.add_row("naive_route", round(naive_rps, 1),
                  round(naive_elapsed / len(workload) * 1000.0, 3), "-")
    table.add_row("serving", round(report.throughput_rps, 1),
                  report.latency["p95_ms"], stats["cache_hit_rate"])
    print()
    print(table.render())

    summary = {
        "workload_requests": report.num_requests,
        "naive_routes_per_sec": round(naive_rps, 1),
        "serving_routes_per_sec": round(report.throughput_rps, 1),
        "speedup": round(report.throughput_rps / naive_rps, 2),
        "cache_hit_rate": stats["cache_hit_rate"],
        "p95_latency_ms": report.latency["p95_ms"],
        "mean_batch_size": stats["mean_batch_size"],
        "errors": report.errors,
    }
    print("SERVING_SUMMARY " + json.dumps(summary, sort_keys=True))

    assert report.errors == 0, summary
    assert stats["cache_hit_rate"] > 0.0, summary


def test_tracing_overhead(spider_context):
    """Tracing on vs off over one trained router, interleaved rounds (off,
    on, off, on, ...) so machine-load drift hits both sides equally; the
    printed overhead compares each side's best round."""
    router = spider_context.copilot.router
    questions = [example.question for example in spider_context.test_examples()[:40]]
    generator = LoadGenerator(questions, WORKLOAD)

    def service(enable_tracing: bool) -> RoutingService:
        return RoutingService(router, config=ServingConfig(
            cache_size=4096, enable_tracing=enable_tracing))

    traced, untraced = service(True), service(False)
    try:
        # one unmeasured round each fills the caches: every measured round
        # then serves the identical steady state
        generator.run(untraced.submit)
        generator.run(traced.submit)
        on_rps, off_rps = [], []
        for _ in range(8):
            off_rps.append(generator.run(untraced.submit).throughput_rps)
            on_rps.append(generator.run(traced.submit).throughput_rps)
        stats = traced.stats()
    finally:
        traced.close()
        untraced.close()

    on, off = max(on_rps), max(off_rps)
    overhead = 1.0 - on / off

    table = ResultTable(
        title="Tracing overhead: identical workload, tracing on vs off",
        columns=["mode", "best_routes_per_sec", "rounds"],
    )
    table.add_row("tracing_off", round(off, 1), len(off_rps))
    table.add_row("tracing_on", round(on, 1), len(on_rps))
    print()
    print(table.render())

    summary = {
        "untraced_routes_per_sec": round(off, 1),
        "traced_routes_per_sec": round(on, 1),
        "overhead_fraction": round(overhead, 4),
        "qps_window": stats["qps_window"],
        "stages": {
            name: {"count": entry["count"], "p50_ms": entry["p50_ms"],
                   "p95_ms": entry["p95_ms"]}
            for name, entry in stats["stages"].items()
        },
        "traces_completed": stats["traces"]["completed"],
        "traces_retained": stats["traces"]["retained"],
    }
    print("OBS_SUMMARY " + json.dumps(summary, sort_keys=True))

    # every cache miss opened and finished a trace (hits stay trace-free by
    # design -- that IS the overhead contract), none leaked...
    counters = stats["counters"]
    assert stats["traces"]["completed"] \
        == counters["requests"] - counters["cache_hits"] > 0
    assert stats["traces"]["open_traces"] == 0
    # ...and the stage breakdown actually populated (``queue_wait`` only
    # when a miss found another caller's decode running: mostly-hit clients
    # may never contend).
    assert {"request_wave", "encode", "decode", "parse"} <= set(stats["stages"])


def test_monitor_overhead(spider_context):
    """A background monitor ticking at 0.2s (25x production cadence) on vs
    off, same interleaved design as ``test_tracing_overhead``; a healthy
    steady state reports ``ok`` with zero alerts."""
    router = spider_context.copilot.router
    questions = [example.question for example in spider_context.test_examples()[:40]]
    generator = LoadGenerator(questions, WORKLOAD)

    def service() -> RoutingService:
        return RoutingService(router, config=ServingConfig(
            cache_size=4096, enable_tracing=False))

    monitored, bare = service(), service()
    monitor = Monitor(monitored, interval_seconds=0.2).start()
    try:
        generator.run(bare.submit)  # unmeasured cache-fill rounds
        generator.run(monitored.submit)
        on_rps, off_rps = [], []
        for _ in range(8):
            off_rps.append(generator.run(bare.submit).throughput_rps)
            on_rps.append(generator.run(monitored.submit).throughput_rps)
        health = monitor.check_now()
        latest = monitor.tick()  # one final deterministic evaluation
        monitor_summary = monitor.summary()
    finally:
        monitor.close()
        monitored.close()
        bare.close()

    on, off = max(on_rps), max(off_rps)
    overhead = 1.0 - on / off

    table = ResultTable(
        title="Monitor overhead: identical workload, monitor on vs off",
        columns=["mode", "best_routes_per_sec", "rounds"],
    )
    table.add_row("monitor_off", round(off, 1), len(off_rps))
    table.add_row("monitor_on", round(on, 1), len(on_rps))
    print()
    print(table.render())

    summary = {
        "health_status": health.status,
        "health_reasons": health.reasons,
        "alerts": monitor_summary["alerts"],
        "monitor_ticks": monitor_summary["ticks"],
        "tick_errors": monitor_summary["tick_errors"],
        "slo": [{"name": status["name"], "firing": status["firing"],
                 "fast_burn": status["fast_burn"]}
                for status in latest["slo"]],
        "unmonitored_routes_per_sec": round(off, 1),
        "monitored_routes_per_sec": round(on, 1),
        "overhead_fraction": round(overhead, 4),
    }
    print("HEALTH_SUMMARY " + json.dumps(summary, sort_keys=True))

    # steady state is healthy and quiet: verdict ok, nothing fired, every
    # tick succeeded
    assert health.status == "ok", summary
    assert monitor_summary["alerts"]["active"] == 0, summary
    assert monitor_summary["alerts"]["fired"] == 0, summary
    assert monitor_summary["tick_errors"] == 0, summary
    assert monitor_summary["ticks"] > 1
    assert not any(status["firing"] for status in latest["slo"])
