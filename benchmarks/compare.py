#!/usr/bin/env python3
"""Compare two committed benchmark baselines, metric by metric.

    python3 benchmarks/compare.py OLD.json NEW.json

Both files are what ``benchmarks/e2e/repeat.py --out`` writes.  The bounds and
the better direction of each end-to-end metric come from ``BENCHMARK.json``,
which is only read; nothing is written.  For every workload in both files and
every end-to-end metric, the runs of all sets of a file are pooled, and one
line prints the old and new medians with their quartiles, the signed relative
change of the median and a verdict:

* ``unresolved`` -- the old runs' quartile spread (inter-quartile distance
  over the median) exceeds the bound, and not every new value beats every old
  one: the old file cannot tell a change of that size from its own noise;
* ``better`` / ``worse`` -- the median moved the metric's better / worse way
  by more than the bound;
* ``same`` -- the median moved by no more than the bound.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def pooled(entry: dict) -> list[float]:
    """Every run of every set (``A``, ``B``, ...) of one metric's entry."""
    return [value for label in sorted(entry) if isinstance(entry[label], dict)
            for value in entry[label]["values"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``repeat.py`` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def relative(change: float, base: float) -> float:
    """``change`` as a share of ``base`` (``inf`` for any change of zero)."""
    if base:
        return change / abs(base)
    return 0.0 if change == 0 else math.copysign(math.inf, change)


def verdict(old: list[float], new: list[float], bound: float, better: str) -> dict:
    """One metric's comparison: quartiles, signed change and verdict."""
    old_q1, old_median, old_q3 = quartiles(old)
    new_q1, new_median, new_q3 = quartiles(new)
    change = relative(new_median - old_median, old_median)
    gain = change if better == "higher" else -change
    sweep = min(new) > max(old) if better == "higher" else max(new) < min(old)
    if relative(old_q3 - old_q1, old_median) > bound and not sweep:
        outcome = "unresolved"
    elif gain > bound:
        outcome = "better"
    elif gain < -bound:
        outcome = "worse"
    else:
        outcome = "same"
    return {"old": (old_median, old_q1, old_q3), "new": (new_median, new_q1, new_q3),
            "change": change, "verdict": outcome}


def compare(old: dict, new: dict, spec: dict) -> list[dict]:
    """One row per workload in both files and end-to-end metric in both."""
    rows = []
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        old_metrics = old["workloads"][workload]["end_to_end"]
        new_metrics = new["workloads"][workload]["end_to_end"]
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            if metric in old_metrics and metric in new_metrics:
                rows.append({"workload": workload, "metric": metric,
                             **verdict(pooled(old_metrics[metric]),
                                       pooled(new_metrics[metric]),
                                       entry["bound"], entry["better"])})
    return rows


def _figure(triple: tuple[float, float, float]) -> str:
    return "{:.4g} [{:.4g}, {:.4g}]".format(*triple)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 benchmarks/compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads(SPEC_PATH.read_text())
    print("| workload | metric | old median [q1, q3] | new median [q1, q3] "
          "| change | verdict |")
    print("|---|---|---|---|---|---|")
    for row in compare(old, new, spec):
        print(f"| {row['workload']} | {row['metric']} | {_figure(row['old'])} "
              f"| {_figure(row['new'])} | {row['change']:+.1%} | {row['verdict']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
