"""``benchmarks/compare.py``: two hand-built baselines, one of each verdict."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

COMPARE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"


def _compare_module():
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(metrics: dict[str, tuple[list[float], list[float]]]) -> dict:
    """A ``repeat.py``-shaped file: one workload, sets A and B per metric."""
    return {"workloads": {"proc_cold": {"end_to_end": {
        metric: {"A": {"values": first}, "B": {"values": second}, "bound": 0.25}
        for metric, (first, second) in metrics.items()}}}}


OLD = _baseline({
    # wide old spread, but every new value beats every old one: resolved
    "questions_per_s": ([60.0, 100.0, 140.0], [80.0, 100.0, 120.0]),
    "cpu_ms_per_question": ([1.00, 1.01, 0.99], [1.00, 1.02, 0.98]),
    "lat_p50_ms": ([10.0, 10.1, 9.9], [10.0, 10.2, 9.8]),
    # wide old spread and no sweep: cannot be told from noise
    "setup_s": ([1.0, 2.0, 3.0], [1.5, 2.5, 4.0]),
    # a metric only one file has is not compared
    "peak_rss_mb": ([100.0, 100.0], [100.0, 100.0]),
})
NEW = _baseline({
    "questions_per_s": ([200.0, 210.0, 220.0], [230.0, 205.0, 215.0]),
    "cpu_ms_per_question": ([1.05, 1.04, 1.06], [1.05, 1.03, 1.07]),
    "lat_p50_ms": ([14.0, 14.1, 13.9], [14.0, 14.2, 13.8]),
    "setup_s": ([1.2, 1.9, 3.5], [0.9, 2.4, 2.1]),
})


def test_each_verdict_once(tmp_path, capsys):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(OLD))
    new_path.write_text(json.dumps(NEW))
    compare = _compare_module()
    spec = json.loads(compare.SPEC_PATH.read_text())

    rows = compare.compare(OLD, NEW, spec)
    assert [(row["metric"], row["verdict"]) for row in rows] == [
        ("questions_per_s", "better"), ("cpu_ms_per_question", "same"),
        ("lat_p50_ms", "worse"), ("setup_s", "unresolved")]
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["questions_per_s"]["old"] == (100.0, 75.0, 125.0)
    assert by_metric["lat_p50_ms"]["change"] == (14.0 - 10.0) / 10.0

    assert compare.main([str(old_path), str(new_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 + len(rows)
    assert printed[2].startswith("| proc_cold | questions_per_s | 100 [75, 125] |")
    assert [line.rsplit("|", 2)[1].strip() for line in printed[2:]] \
        == ["better", "same", "worse", "unresolved"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["new.json", "old.json"]
    assert compare.main([str(old_path)]) == 2


def test_a_workload_only_one_file_has_is_not_compared():
    compare = _compare_module()
    spec = json.loads(compare.SPEC_PATH.read_text())
    new = {"workloads": {**NEW["workloads"],
                         "proc_hot": NEW["workloads"]["proc_cold"]}}
    assert {row["workload"] for row in compare.compare(OLD, new, spec)} \
        == {"proc_cold"}
    assert compare.compare(OLD, {"workloads": {}}, spec) == []


def test_one_run_is_its_own_quartiles():
    compare = _compare_module()
    assert compare.quartiles([3.5]) == (3.5, 3.5, 3.5)
    row = compare.verdict([2.0], [1.0], 0.25, "lower")
    assert row["old"] == (2.0, 2.0, 2.0)
    assert (row["change"], row["verdict"]) == (-0.5, "better")


def test_a_change_from_a_zero_median_is_infinite():
    compare = _compare_module()
    assert compare.relative(0.0, 0.0) == 0.0
    assert compare.relative(2.0, 0.0) == math.inf
    assert compare.relative(-2.0, 0.0) == -math.inf
    row = compare.verdict([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.25, "higher")
    assert (row["change"], row["verdict"]) == (math.inf, "better")
