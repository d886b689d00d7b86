"""What a run prints must be exactly what ``BENCHMARK.json`` declares."""

from __future__ import annotations

import io
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from harness import REPO_ROOT, SPEC_PATH
from harness.session import RunConfig
from harness.runner import run_benchmark
from harness.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def test_spec_follows_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = [entry for entry in spec["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= spec["run_seconds"] <= 60 and len(SPEC_PATH.read_bytes()) <= 64 * 1024
    assert all((REPO_ROOT / path).is_dir() for path in spec["paths"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_exactly_the_declared_metrics(spec, name, trace):
    out = io.StringIO()
    code = run_benchmark(RunConfig(workload=WORKLOADS[name], seed=3, seconds=1,
                                   trace=bool(trace), smoke=True), out=out)
    text = out.getvalue()
    result = json.loads(text.splitlines()[-1])
    report = json.loads(text[:text.index("\n}\n") + 2])
    assert code == 0 and report["hard_check_failures"] == []
    assert report["smoke"] is True and report["workload"] == name
    assert set(report["environment"]) >= {"cores", "blas", "numpy", "python",
                                          "thread_pins", "git_sha"}
    assert report["fixture_build_s"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        emitted = result["metrics"][entry["name"]]
        assert set(emitted) == {"value", "unit"} and emitted["unit"] == entry["unit"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"])
        # Every metric is also printed by name with its unit.
        assert re.search(rf"^{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}$",
                         text, re.MULTILINE)
    if not trace:
        # (The barely trained smoke router may get no question right.)
        assert all(result["metrics"][entry["name"]]["value"] > 0
                   for entry in declared
                   if entry["name"] not in ("oracle_agree", "ex_acc"))
        phases = report["phases"]
        assert phases["measured"]["attempted"] == result["attempted"]
        assert phases["measured"]["succeeded"] == result["attempted"]
        if WORKLOADS[name].topology == "mono":
            assert result["metrics"]["oracle_agree"]["value"] == 1.0
    else:
        assert report["traced"]["unpatched"] == []
        assert 0.0 < result["metrics"]["harness.coverage_frac"]["value"] <= 1.0


def test_without_a_program_the_command_fails_fast(tmp_path, spec):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(REPO_ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable if part == "python3" else part for part in spec["command"]]
        + ["--workload", "mono_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout == "" and "no program to measure" in done.stderr
