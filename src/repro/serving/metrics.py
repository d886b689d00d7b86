"""Serving metrics: counters, latency percentiles, QPS, batch-size histogram.

Everything is in-process and lock-guarded; ``snapshot()`` returns a plain
dict so benchmarks and operators can dump it as JSON.  Latencies are kept in
a bounded reservoir (the most recent ``max_samples`` observations) so a
long-running service does not grow without bound.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque
from typing import Callable, Iterable, Mapping

#: Histogram bucket upper bounds in seconds (log-spaced, Prometheus-style).
#: Observations above the last bound land only in the implicit ``+Inf``
#: bucket.  Bucket counts are cumulative-from-birth, not reservoir-bounded:
#: Prometheus histograms are monotonic series, and ``rate()`` over them needs
#: counts that never go backwards.
BUCKET_BOUNDS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class LatencyRecorder:
    """Bounded reservoir of latency observations with percentile queries."""

    def __init__(self, max_samples: int = 8192) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._samples: deque[float] = deque(maxlen=max_samples)
        self._lock = threading.Lock()
        self._count = 0
        self._total_seconds = 0.0
        self._max_seconds = 0.0
        self._bucket_counts = [0] * (len(BUCKET_BOUNDS) + 1)  # last = +Inf

    def record(self, seconds: float, count: int = 1) -> None:
        """Record ``seconds`` once -- or ``count`` times under one lock
        acquisition, for callers attributing one wave's per-item latency to
        every item in the wave."""
        if count < 1:
            return
        with self._lock:
            if count == 1:
                self._samples.append(seconds)
            else:
                self._samples.extend([seconds] * count)
            self._count += count
            self._total_seconds += seconds * count
            if seconds > self._max_seconds:
                self._max_seconds = seconds
            self._bucket_counts[bisect.bisect_left(BUCKET_BOUNDS, seconds)] += count

    def record_many(self, samples: list[float]) -> None:
        """Record each of ``samples`` once, under one lock acquisition."""
        with self._lock:
            self._samples.extend(samples)
            self._count += len(samples)
            self._total_seconds += sum(samples)
            self._max_seconds = max(self._max_seconds, *samples)
            buckets = self._bucket_counts
            for seconds in samples:
                buckets[bisect.bisect_left(BUCKET_BOUNDS, seconds)] += 1

    @staticmethod
    def _percentile_of(samples: list[float], percent: float) -> float:
        """Nearest-rank percentile of pre-sorted ``samples``; 0.0 when empty."""
        if not samples:
            return 0.0
        rank = max(1, math.ceil(percent / 100.0 * len(samples)))
        return samples[min(rank, len(samples)) - 1]

    def percentile(self, percent: float) -> float:
        """The ``percent``-th percentile (nearest-rank) of the reservoir, in seconds."""
        with self._lock:
            samples = sorted(self._samples)
        return self._percentile_of(samples, percent)

    def summary(self) -> dict:
        """A consistent snapshot: all fields reflect one point in time.

        Count, mean, max, every percentile, and the histogram buckets are
        read under a single lock acquisition, so concurrent :meth:`record`
        calls can never produce a summary whose count and percentiles
        disagree.  An empty window yields zeros throughout instead of
        raising.  ``buckets`` holds *cumulative* counts keyed by upper bound
        (string keys, JSON-safe, ``"+Inf"`` last) — the shape the exporter
        renders as a Prometheus histogram.
        """
        with self._lock:
            samples = sorted(self._samples)
            count = self._count
            total_seconds = self._total_seconds
            max_seconds = self._max_seconds
            bucket_counts = list(self._bucket_counts)
        mean_seconds = total_seconds / count if count else 0.0
        buckets: dict[str, int] = {}
        cumulative = 0
        for bound, bucket in zip(BUCKET_BOUNDS, bucket_counts):
            cumulative += bucket
            buckets[str(bound)] = cumulative
        buckets["+Inf"] = count
        return {
            "count": count,
            "total_seconds": round(total_seconds, 6),
            "mean_ms": round(mean_seconds * 1000.0, 3),
            "p50_ms": round(self._percentile_of(samples, 50.0) * 1000.0, 3),
            "p95_ms": round(self._percentile_of(samples, 95.0) * 1000.0, 3),
            "p99_ms": round(self._percentile_of(samples, 99.0) * 1000.0, 3),
            "max_ms": round(max_seconds * 1000.0, 3),
            "buckets": buckets,
        }


#: Stage observations a registry holds before it files them into their
#: reservoirs (a read files them at once): bounds the backlog's memory.
STAGE_BACKLOG = 1024


class MetricsRegistry:
    """Counters + latency + batch-size + per-stage accounting for one service.

    Every counter is cumulative from the registry's birth; the snapshot's
    ``qps`` is the lifetime rate.  A trailing rate is the difference of two
    snapshots -- what :class:`repro.obs.slo.SloEngine` computes, and what
    Prometheus ``rate()`` computes from ``/metrics`` -- so the registry keeps
    no window of its own."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self.latency = LatencyRecorder()
        self._batch_sizes: dict[int, int] = {}
        self._stages: dict[str, LatencyRecorder] = {}
        #: Stage observations not yet in ``_stages``.
        self._stage_backlog: list[tuple[str, float]] = []

    # -- recording -----------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        self.increment_many({name: amount})

    def increment_many(self, amounts: Mapping[str, int]) -> None:
        """Move several counters under one lock acquisition (one wave's)."""
        with self._lock:
            for name, amount in amounts.items():
                self._counters[name] = self._counters.get(name, 0) + amount

    def observe_latency(self, seconds: float, count: int = 1) -> None:
        self.latency.record(seconds, count)

    def observe_stages(self, observations: Iterable[tuple[str, float]]) -> None:
        """Record ``(stage name, seconds)`` pairs -- a finished trace's spans.

        They join a backlog under one lock acquisition and reach the stage
        reservoirs in bulk, once :data:`STAGE_BACKLOG` pairs wait or when the
        stages are read, so a trace pays one lock and one ``extend``.  Stage
        reservoirs are smaller than the end-to-end one (2048 samples) because
        a single request contributes to many stages."""
        with self._lock:
            self._stage_backlog.extend(observations)
            if len(self._stage_backlog) >= STAGE_BACKLOG:
                self._fold_stages_locked()

    def _fold_stages_locked(self) -> None:
        """Move the backlog into the per-stage reservoirs, each stage's
        samples in arrival order.  The caller holds ``_lock``."""
        by_stage: dict[str, list[float]] = {}
        for name, seconds in self._stage_backlog:
            samples = by_stage.get(name)
            if samples is None:
                by_stage[name] = [seconds]
            else:
                samples.append(seconds)
        self._stage_backlog = []
        for name, samples in by_stage.items():
            recorder = self._stages.get(name)
            if recorder is None:
                recorder = self._stages[name] = LatencyRecorder(max_samples=2048)
            recorder.record_many(samples)

    def observe_batch(self, size: int) -> None:
        with self._lock:
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1

    # -- reading -------------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """All counters under one lock acquisition (mutually consistent)."""
        with self._lock:
            return dict(self._counters)

    def uptime_seconds(self) -> float:
        return max(self._clock() - self._started, 1e-9)

    def stage_summaries(self) -> dict[str, dict]:
        """Per-stage latency summaries, keyed by stage name (sorted)."""
        with self._lock:
            self._fold_stages_locked()
            stages = sorted(self._stages.items())
        return {name: recorder.summary() for name, recorder in stages}

    def snapshot(self) -> dict:
        """A consistent snapshot: counters and batch accounting are read under
        one lock acquisition (latency has its own lock and snapshots itself in
        :meth:`LatencyRecorder.summary`), so QPS, counters, and the histogram
        all describe the same instant.

        The snapshot is part of the cluster wire protocol (subprocess shard
        workers answer ``stats_request`` with it), so it must survive a JSON
        round-trip *unchanged*: histogram keys are strings, because JSON would
        silently stringify integer keys and a local snapshot would no longer
        equal a remote one."""
        uptime = self.uptime_seconds()
        with self._lock:
            counters = dict(self._counters)
            histogram = {str(size): count
                         for size, count in sorted(self._batch_sizes.items())}
        batch_total = sum(int(size) * count for size, count in histogram.items())
        batches = sum(histogram.values())
        return {
            "uptime_seconds": round(uptime, 3),
            "counters": counters,
            "qps": round(counters.get("requests", 0) / uptime, 2),
            "latency": self.latency.summary(),
            "batch_size_histogram": histogram,
            "mean_batch_size": round(batch_total / batches, 2) if batches else 0.0,
            "stages": self.stage_summaries(),
        }
