"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/e2e/tests -q``."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402

harness.bootstrap()
