#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark once.

    python3 benchmarks/e2e/run.py --workload mono_cold --seed 1 --seconds 12 --trace 0

Prints an environment and phase report, every metric by name with its unit,
and -- as the last line of standard output -- one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    harness.bootstrap()
    from harness.runner import RunConfig, run_benchmark
    from harness.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the passes and draws the Zipf stream")
    parser.add_argument("--seconds", type=int, default=12,
                        help="sizes the timed phase (a fixed question count "
                             "per second asked for)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from a traced pass over a quarter of the stream")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixture and stream for the harness "
                             "self-tests; the output is marked and never gated")
    parser.add_argument("--rebuild-fixture", action="store_true",
                        help="retrain and re-checkpoint the cached fixture")
    arguments = parser.parse_args(argv)
    return run_benchmark(RunConfig(
        workload=WORKLOADS[arguments.workload], seed=arguments.seed,
        seconds=arguments.seconds, trace=bool(arguments.trace),
        smoke=arguments.smoke, rebuild_fixture=arguments.rebuild_fixture))


if __name__ == "__main__":
    sys.exit(main())
