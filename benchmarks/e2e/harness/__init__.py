"""The end-to-end benchmark harness (see ``benchmarks/e2e/README.md``).

Nothing here imports numpy or ``repro``: :func:`bootstrap` must run first,
because the BLAS thread pins only take effect if they are in the environment
before numpy loads (subprocess shard workers inherit them).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: ``<checkout>/benchmarks/e2e/harness/__init__.py`` -> ``<checkout>``.
REPO_ROOT = Path(__file__).resolve().parents[3]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: Build products of the harness (fixtures, span dumps); git-ignored.
CACHE_ROOT = REPO_ROOT / ".benchmarks"

#: Unpinned, OpenBLAS spins up a thread per core inside every process of the
#: tree and they fight the shard workers for the two cores: one 20 s run fell
#: from 125 to 90 questions/s.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and put the checkout's ``src`` on ``sys.path``.

    Exits non-zero when there is no program to measure (a directory holding
    only the benchmark's own files)."""
    for name in THREAD_PINS:
        os.environ[name] = "1"
    # The fixture trains with the library's default experiment preset; an
    # inherited scale override would silently change what is measured.
    os.environ.pop("REPRO_BENCH_SCALE", None)
    source = REPO_ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmarks/e2e: no program to measure: "
                         f"{source / 'repro'} is missing")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
