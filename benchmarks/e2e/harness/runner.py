"""One benchmark run: fixture -> set-up -> timed phase -> checks -> report."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

from harness import REPO_ROOT, SPEC_PATH, THREAD_PINS
from harness.fixture import FULL, SMOKE, Fixture, load_fixture
from harness.layers import run_traced
from harness.measure import PhaseResult, peak_rss_mb, percentile, run_phase
from harness.quality import answer_test_examples, nl2sql_quality, routing_quality
from harness.session import (
    BOOTS,
    ReplyChecker,
    RunConfig,
    phase_calls,
    set_up,
    stream_total,
)
from harness.workloads import build_stream


def environment_fingerprint() -> dict:
    sha = "unknown"
    if (REPO_ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        if found.returncode == 0:
            sha = found.stdout.strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_sha": sha,
    }


def quality_metrics(config: RunConfig, fixture: Fixture, checker: ReplyChecker,
                    driver) -> dict[str, float]:
    if driver is not None:
        asked = {example.question for example in fixture.test_examples}
        pool = [example for example in fixture.pool if example.question in asked]
        results = [driver.results[example] for example in fixture.test_examples]
    else:
        pool = fixture.pool
        results = answer_test_examples(fixture, checker.served)
    return {**routing_quality(checker.served, pool, fixture.oracle),
            **nl2sql_quality(results)}


def run_untraced(config: RunConfig, fixture: Fixture, report: dict) -> tuple[dict, PhaseResult]:
    stream = build_stream(config.workload, fixture, config.seed,
                          stream_total(config, fixture))
    booted, checker, setup = set_up(config, fixture, BOOTS)
    try:
        call, check, driver = phase_calls(config, fixture, booted, checker)
        phase = run_phase(stream, call, check, booted.worker_pids,
                          speed_sensitivity=config.workload.speed_sensitivity)
        rss = peak_rss_mb(booted.worker_pids)
    finally:
        booted.service.close()
    metrics = phase.metrics()
    metrics["setup_s"] = setup.pop("setup_s")
    metrics["peak_rss_mb"] = rss
    metrics.update(quality_metrics(config, fixture, checker, driver))
    report["phases"] = {
        "setup": setup,
        "measured": {"attempted": phase.questions, "failed": phase.failed,
                     "succeeded": phase.questions - phase.failed,
                     "busy_s_raw": phase.busy_seconds_raw,
                     "latency_samples": len(phase.latencies),
                     # Tail latencies are printed, not gated: on the hot row
                     # p95 spread 23-28 % between runs of identical code.
                     "lat_p95_ms": 1000.0 * percentile(phase.latencies, 95.0),
                     "lat_p99_ms": 1000.0 * percentile(phase.latencies, 99.0),
                     # As measured, before dividing by the machine's slowdown.
                     "questions_per_s_raw": statistics.median(phase.block_rates_raw),
                     "cpu_ms_per_question_raw":
                         1000.0 * phase.cpu_seconds_raw / phase.questions,
                     "lat_p50_ms_raw": 1000.0 * percentile(phase.latencies_raw, 50.0),
                     "speed_factor": statistics.fmean(phase.speed_factors),
                     "speed_factor_per_block": phase.speed_factors},
    }
    return metrics, phase


def hard_check_failures(config: RunConfig, metrics: dict, failed: int) -> list[str]:
    problems = []
    if failed:
        problems.append(f"{failed} questions failed their reply checks")
    # A monolith serves what the loop oracle decodes, bit for bit.
    if config.workload.topology == "mono" and not config.trace \
            and metrics["oracle_agree"] != 1.0:
        problems.append(f"oracle_agree is {metrics['oracle_agree']!r} on a "
                        f"monolith row; it must be exactly 1.0")
    return problems


def run_benchmark(config: RunConfig, out=sys.stdout) -> int:
    """Run one workload once; print the report; return the exit code."""
    spec = json.loads(SPEC_PATH.read_text())
    fixture = load_fixture(SMOKE if config.smoke else FULL,
                           rebuild=config.rebuild_fixture)
    report = {
        "workload": config.workload.name, "seed": config.seed,
        "seconds": config.seconds, "trace": config.trace, "smoke": config.smoke,
        "fixture_build_s": fixture.build_seconds,
        "environment": environment_fingerprint(),
    }
    if config.trace:
        declared = spec["per_layer"]
        metrics, attempted, failed = run_traced(config, fixture, report)
    else:
        declared = spec["end_to_end"]
        metrics, phase = run_untraced(config, fixture, report)
        attempted, failed = phase.questions, phase.failed
    problems = hard_check_failures(config, metrics, failed)
    report["hard_check_failures"] = problems
    print(json.dumps(report, indent=1, sort_keys=True), file=out)
    for entry in declared:
        print(f"{entry['name']:<40} {metrics[entry['name']]:>16.6f} {entry['unit']}",
              file=out)
    extra = sorted(set(metrics) - {entry["name"] for entry in declared})
    if extra:
        raise RuntimeError(f"metrics computed but not declared in BENCHMARK.json: {extra}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {entry["name"]: {"value": float(metrics[entry["name"]]),
                                    "unit": entry["unit"]}
                    for entry in declared},
    }), file=out)
    return 1 if problems else 0
