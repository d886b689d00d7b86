"""Percentiles, block medians, and span self-time arithmetic."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from harness.layers import coverage_fraction, leg_metrics
from harness.measure import SpeedProbe, percentile, run_phase, split_blocks
from harness.spans import (
    Span,
    SpanRecorder,
    covered_seconds,
    self_seconds,
    self_seconds_by_name,
)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50.0) == 3.0
    assert percentile(samples, 95.0) == 5.0
    assert percentile(samples, 20.0) == 1.0
    assert percentile(list(range(1, 101)), 95.0) == 95
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_split_blocks_is_contiguous_and_even():
    chunks = split_blocks(list(range(19)), 8)
    assert [len(chunk) for chunk in chunks] == [3, 3, 3, 2, 2, 2, 2, 2]
    assert [item for chunk in chunks for item in chunk] == list(range(19))
    assert [len(chunk) for chunk in split_blocks([1, 2, 3], 8)] == [1, 1, 1]


def test_run_phase_reports_the_median_block_and_checks_off_the_clock():
    items = [SimpleNamespace(size=2, index=index) for index in range(16)]
    checked = []

    def check(block, replies):
        checked.append([item.index for item in block])
        assert replies == [item.index * 10 for item in block]
        return 1

    result = run_phase(items, lambda item: item.index * 10, check, blocks=4,
                       speed_sensitivity=1.5)
    assert checked == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
    assert result.questions == 32 and result.failed == 4
    assert len(result.latencies) == 16 and len(result.block_rates) == 4
    metrics = result.metrics()
    assert metrics["success_frac"] == 28 / 32
    ordered = sorted(result.block_rates)
    assert metrics["questions_per_s"] == (ordered[1] + ordered[2]) / 2
    # Every time is the measured one divided by the block's slowdown: the
    # probe's factor raised to the workload's sensitivity.
    for raw, scaled, factor in zip(result.block_rates_raw, result.block_rates,
                                   result.speed_factors):
        assert scaled == pytest.approx(raw * factor ** 1.5)
    assert result.latencies == pytest.approx(
        [took / factor ** 1.5 for took, factor in zip(
            result.latencies_raw, [f for f in result.speed_factors for _ in range(4)])])
    assert result.busy_seconds == pytest.approx(
        sum(8 / rate for rate in result.block_rates))


class SteadyProbe(SpeedProbe):
    """A probe whose slices take whatever the test says."""

    def __init__(self, durations):
        super().__init__()
        self._durations = iter(durations)

    def slice(self) -> float:
        return next(self._durations)


def test_speed_probe_spends_its_share_and_reports_the_mean_slowdown():
    nominal = SpeedProbe.NOMINAL_SECONDS
    probe = SteadyProbe([nominal * 1.5, nominal * 2.5, nominal, nominal * 3])
    probe.after(nominal / SpeedProbe.SHARE * 0.6)   # not yet a slice's worth
    probe.after(nominal / SpeedProbe.SHARE * 1.5)   # 2.1 slices' worth by now
    assert probe.factor()[0] == pytest.approx(2.0)
    # A reading always rests on at least one slice, and starts afresh.
    assert probe.factor()[0] == pytest.approx(1.0)
    probe.after(nominal / SpeedProbe.SHARE)
    assert probe.factor()[0] == pytest.approx(3.0)


def test_speed_probe_slice_is_real_work_and_its_cpu_is_counted():
    probe = SpeedProbe()
    assert probe.slice() > 0.0
    probe.after(3 * SpeedProbe.NOMINAL_SECONDS / SpeedProbe.SHARE)
    slowdown, cpu_seconds = probe.factor()
    # Three slices, which cannot use more CPU than the wall they took (the
    # CPU clock is read just outside the wall clock: hence the margin).
    assert 0.0 < cpu_seconds <= 3 * slowdown * SpeedProbe.NOMINAL_SECONDS * 1.25
    assert probe.factor()[1] < cpu_seconds


def test_covered_seconds_is_the_length_of_the_union():
    assert covered_seconds([]) == 0.0
    assert covered_seconds([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_seconds([(0.0, 2.0), (1.0, 3.0), (1.5, 1.75)]) == 3.0


def span(name, start, end, parent=None, wave=0, tag=None):
    made = Span(name, start, parent, wave, tag)
    made.end = end
    return made


def test_self_time_is_duration_minus_what_children_cover():
    root = span("wave", 0.0, 10.0)
    # Two parallel legs overlap; one child outlives its parent.
    children = [span("leg", 1.0, 5.0, root), span("leg", 2.0, 7.0, root),
                span("merge", 9.0, 12.0, root)]
    assert self_seconds(root, children) == pytest.approx(10.0 - 6.0 - 1.0)
    totals = self_seconds_by_name([root, *children])
    assert totals["wave"] == pytest.approx(3.0)
    assert totals["leg"] == pytest.approx(9.0)
    assert totals["merge"] == pytest.approx(3.0)


def test_recorder_nests_by_thread_and_adopts_helper_threads():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    seen = {}

    def helper():
        inner = recorder.wrap(lambda: "routes", "core.route_batch")
        seen["result"] = inner()

    with recorder.wave(3):
        front = recorder.wrap(lambda: threading.Thread(target=helper), "serving.submit")
        thread = front()
        # The helper runs while the caller is (again) inside serving.submit.
        blocked = recorder.begin("serving.submit")
        thread.start()
        thread.join(timeout=10)
        recorder.finish(blocked)
    assert not thread.is_alive() and seen["result"] == "routes"
    by_name = {}
    for made in recorder.spans:
        by_name.setdefault(made.name, []).append(made)
    root, = by_name["wave"]
    batch, = by_name["core.route_batch"]
    assert root.parent is None and root.wave == 3
    assert all(made.parent is root for made in by_name["serving.submit"])
    assert batch.parent is by_name["serving.submit"][1] and batch.wave == 3
    assert all(made.end > made.start for made in recorder.spans)


def test_wrap_closes_the_span_when_the_call_raises():
    recorder = SpanRecorder()

    def broken():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        recorder.wrap(broken, "nn.decode")()
    follow_up = recorder.begin("nn.encode")
    recorder.finish(follow_up)
    assert follow_up.parent is None  # the failed span did not stay on the stack


def test_leg_metrics_take_the_slowest_leg_of_each_scatter():
    spans = [span("cluster.leg", 0.0, 0.004, wave=0, tag="fast"),
             span("cluster.leg", 0.0, 0.002, wave=0, tag="fast"),
             span("cluster.leg", 0.005, 0.006, wave=0, tag="careful"),
             span("cluster.leg", 0.005, 0.006, wave=0, tag="careful"),
             span("cluster.leg", 1.0, 1.003, wave=1, tag="fast"),
             span("cluster.leg", 1.0, 1.003, wave=1, tag="fast")]
    metrics = leg_metrics(spans, waves=2)
    assert metrics["cluster.leg_ms_per_wave.max"] == pytest.approx((4 + 1 + 3) / 2)
    assert metrics["cluster.leg_ms_per_wave.sum"] == pytest.approx((6 + 2 + 6) / 2)
    assert metrics["cluster.leg_imbalance"] == pytest.approx((4 / 3 + 1 + 1) / 3)
    assert leg_metrics([], waves=2)["cluster.leg_imbalance"] == 0.0


def test_coverage_counts_stage_spans_once_and_ignores_facades():
    root = span("wave", 0.0, 10.0, wave=0)
    facade = span("serving.submit", 0.0, 10.0, root, wave=0)
    stages = [span("nn.decode", 1.0, 6.0, facade, wave=0),
              span("nn.decode", 4.0, 8.0, facade, wave=0),  # a parallel leg
              span("core.merge", 8.0, 9.0, facade, wave=0)]
    other = span("wave", 20.0, 30.0, wave=1)
    assert coverage_fraction([root, facade, *stages, other]) == pytest.approx(8.0 / 20.0)
