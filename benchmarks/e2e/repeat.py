#!/usr/bin/env python3
"""Repeatability study: is the benchmark steady enough for its own bounds?

    python3 benchmarks/e2e/repeat.py --runs 10 --out benchmarks/e2e/baselines/BENCH_13.json

Runs every workload of ``BENCHMARK.json`` ``--runs`` times in each of two
sets, interleaved (A, B, A, B, ...) so that drift of the box lands on both,
every run with another seed.  For each end-to-end metric it reports, per set,
the median and quartiles, the spread (inter-quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives it) and how much worse
set B's median is than set A's -- the two figures a bound has to survive.
Tail latencies, the raw (not speed-normalised) times and the speed factor are
recorded without a bound, and from them the power of the speed factor that the
raw throughput followed over the twenty runs (``fitted_speed_sensitivity``, to
compare with ``Workload.speed_sensitivity``); one traced run per workload adds
the per-layer numbers.  The result is the baseline later changes are compared
with.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import REPO_ROOT, SPEC_PATH  # noqa: E402

#: Numbers of the run report that are recorded but carry no bound.
UNGATED = ("lat_p95_ms", "lat_p99_ms", "questions_per_s_raw",
           "cpu_ms_per_question_raw", "lat_p50_ms_raw", "speed_factor")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    # The run's report (environment, phases) is the indented JSON object the
    # output opens with.
    result["report"] = json.loads(done.stdout[:done.stdout.index("\n}\n") + 2])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    result["run_wall_s"] = time.perf_counter() - started
    return result


def summarize(values: list[float]) -> dict:
    first, median, third = statistics.quantiles(values, n=4)
    return {"median": median, "q1": first, "q3": third,
            "spread": (third - first) / median if median else 0.0,
            "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def fitted_sensitivity(raw_rates: list[float], factors: list[float]) -> float:
    """The power p with raw rate ~ factor ** -p, by least squares on the logs."""
    fit = statistics.linear_regression([math.log(factor) for factor in factors],
                                       [math.log(rate) for rate in raw_rates])
    return -fit.slope


def study(spec: dict, runs: int, base_seed: int) -> dict:
    workloads = [entry["name"] for entry in spec["workloads"]]
    values = {name: {"A": {}, "B": {}} for name in workloads}
    walls = []
    header = None
    for index in range(runs):
        for label, seed in (("A", base_seed + index), ("B", base_seed + runs + index)):
            for name in workloads:
                result = run_once(spec, name, seed, trace=0)
                walls.append(result["run_wall_s"])
                header = header or result["report"]
                for metric, entry in result["metrics"].items():
                    values[name][label].setdefault(metric, []).append(entry["value"])
                for metric in UNGATED:
                    values[name][label].setdefault(metric, []).append(
                        result["report"]["phases"]["measured"][metric])
                print(f"run {index + 1}/{runs} set {label} {name} seed {seed}: "
                      f"{result['run_wall_s']:.1f} s", file=sys.stderr, flush=True)
    report = {}
    for name in workloads:
        report[name] = {"end_to_end": {}}
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            first = summarize(values[name]["A"][metric])
            second = summarize(values[name]["B"][metric])
            report[name]["end_to_end"][metric] = {
                "unit": entry["unit"], "better": entry["better"],
                "bound": entry["bound"], "A": first, "B": second,
                "set_to_set_worse_by": worse_by(first["median"], second["median"],
                                                entry["better"]),
            }
        report[name]["ungated"] = {
            metric: {label: summarize(values[name][label][metric]) for label in "AB"}
            for metric in UNGATED}
        both = {metric: values[name]["A"][metric] + values[name]["B"][metric]
                for metric in ("questions_per_s_raw", "speed_factor")}
        report[name]["fitted_speed_sensitivity"] = fitted_sensitivity(
            both["questions_per_s_raw"], both["speed_factor"])
        traced = run_once(spec, name, base_seed, trace=1)
        walls.append(traced["run_wall_s"])
        report[name]["per_layer"] = {metric: entry["value"]
                                     for metric, entry in traced["metrics"].items()}
    return {"workloads": report,
            "environment": header["environment"],
            "fixture_build_s": header["fixture_build_s"],
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls),
                           "total": sum(walls)}}


def verdicts(spec: dict, report: dict) -> list[dict]:
    """Per end-to-end metric, the worst spread and set-to-set change over all
    workloads, beside its bound.  Both must stay within the bound (the spread
    of ``setup_s`` is exempt); a spread under a third of it is the target."""
    rows = []
    for entry in spec["end_to_end"]:
        metric = entry["name"]
        cells = [workload["end_to_end"][metric]
                 for workload in report["workloads"].values()]
        spread = max(max(cell["A"]["spread"], cell["B"]["spread"]) for cell in cells)
        change = max(abs(cell["set_to_set_worse_by"]) for cell in cells)
        rows.append({
            "metric": metric, "bound": entry["bound"],
            "worst_spread": spread, "worst_set_to_set_change": change,
            "within_bound": (metric == "setup_s" or spread <= entry["bound"])
            and change <= entry["bound"],
            "spread_below_a_third": spread <= entry["bound"] / 3.0,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (at least 5)")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the study here as JSON")
    arguments = parser.parse_args(argv)
    if arguments.runs < 5:
        parser.error("--runs must be at least 5")
    spec = json.loads(SPEC_PATH.read_text())
    report = study(spec, arguments.runs, arguments.seed)
    report["verdicts"] = verdicts(spec, report)
    report["run_seconds"] = spec["run_seconds"]
    report["runs_per_set"] = arguments.runs
    text = json.dumps(report, indent=1, sort_keys=True)
    if arguments.out is not None:
        arguments.out.parent.mkdir(parents=True, exist_ok=True)
        arguments.out.write_text(text + "\n")
    for row in report["verdicts"]:
        print(f"{row['metric']:<24} bound {row['bound']:<7} worst spread "
              f"{row['worst_spread']:.4f}  worst set-to-set {row['worst_set_to_set_change']:.4f}"
              f"  {'within bound' if row['within_bound'] else 'OUT OF BOUND'}"
              f"{'' if row['spread_below_a_third'] else ' (spread over a third of it)'}")
    return 0 if all(row["within_bound"] for row in report["verdicts"]) else 1


if __name__ == "__main__":
    sys.exit(main())
