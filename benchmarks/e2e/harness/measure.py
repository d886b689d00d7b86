"""The timed phase: a closed loop of one caller, cut into equal blocks.

One caller sends its next call only after the previous reply, so nothing
queues and a call's latency is its service time.  The phase is cut into
``BLOCKS`` equal blocks; replies are checked *between* blocks, off the clock,
so checking costs neither wall nor CPU in any reported number.

Every time is reported at the *reference machine speed*.  The reference box is
a shared two-core VM whose speed drifts by +-20 % over seconds and over
minutes (a fixed 62 ms loop took 62-103 ms within one minute, with no steal
time reported), which no amount of averaging inside a run removes.  So between
calls the caller spends 6 % of its time re-timing a fixed slice of work
(``SpeedProbe``); a block's times are divided by how much slower than nominal
that slice ran during the block, raised to the workload's
``speed_sensitivity``: when the box slows, interpreter-bound work slows more
than the slice does.  The raw numbers are kept beside them.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy

BLOCKS = 8

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile (the one ``repro.serving.metrics`` reports)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def split_blocks(items: Sequence, blocks: int = BLOCKS) -> list[Sequence]:
    """``blocks`` contiguous chunks whose sizes differ by at most one."""
    blocks = max(1, min(blocks, len(items)))
    base, extra = divmod(len(items), blocks)
    chunks = []
    start = 0
    for index in range(blocks):
        stop = start + base + (1 if index < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name (field 2) may contain spaces; fields count from
        # the closing parenthesis.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_status_mb(pid: int, key: str) -> float:
    """``VmHWM`` / ``VmRSS`` of another process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{key} not in /proc/{pid}/status")


def tree_cpu_seconds(worker_pids: Sequence[int]) -> float:
    """CPU of this process (all threads) plus its shard worker processes."""
    return time.process_time() + sum(process_cpu_seconds(pid) for pid in worker_pids)


def peak_rss_mb(worker_pids: Sequence[int]) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(process_status_mb(pid, "VmHWM") for pid in worker_pids)


class SpeedProbe:
    """Times a fixed slice of work, over and over, between the caller's calls.

    The slice mixes what the program's hot paths mix -- a BLAS product that
    fills the L2 cache, interpreter work that churns small objects, a numpy
    pass that streams a few megabytes -- but is the harness's own code, so a
    change to the program cannot change it.  (A slice small enough to stay in
    the L1 cache was tried first and did not track the program: what slows
    this box is contention for the shared caches.)  ``factor()`` is how much
    slower than ``NOMINAL_SECONDS`` the slices since the last reading ran:
    1.0 on a quiet reference box.
    """

    #: One slice on the quiet reference box.
    NOMINAL_SECONDS = 0.003
    #: Share of the caller's time spent probing.
    SHARE = 0.06

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self._matrix = rng.random((300, 300))
        self._stream = rng.random(400_000)
        self._credit = 0.0
        self._samples: list[float] = []
        self._cpu_seconds = 0.0

    def slice(self) -> float:
        started = time.perf_counter()
        self._matrix @ self._matrix
        table = {}
        for index in range(600):
            table[str(index)] = (index, str(index * 7))
        sorted(table.items(), key=lambda item: item[1][1])
        (self._stream * 1.0001 + 0.5).sum()
        return time.perf_counter() - started

    def after(self, busy_seconds: float) -> None:
        """Probe for ``SHARE`` of the ``busy_seconds`` just spent working."""
        self._credit += busy_seconds * self.SHARE
        while self._credit >= self.NOMINAL_SECONDS:
            self._credit -= self.NOMINAL_SECONDS
            self._sample()

    def _sample(self) -> None:
        # The slices' CPU is taken out of the tree's; while another thread
        # holds a core or the GIL it is less than their wall time.
        cpu_started = time.thread_time()
        self._samples.append(self.slice())
        self._cpu_seconds += time.thread_time() - cpu_started

    def factor(self) -> tuple[float, float]:
        """(slowdown since the last reading, CPU seconds spent probing in it)."""
        if not self._samples:
            self._sample()
        slowdown = statistics.fmean(self._samples) / self.NOMINAL_SECONDS
        cpu_seconds = self._cpu_seconds
        self._samples = []
        self._cpu_seconds = 0.0
        return slowdown, cpu_seconds


@dataclass
class PhaseResult:
    questions: int = 0
    failed: int = 0
    #: Seconds inside calls, as measured and at reference speed.
    busy_seconds: float = 0.0
    busy_seconds_raw: float = 0.0
    cpu_seconds: float = 0.0
    cpu_seconds_raw: float = 0.0
    #: Call-to-reply seconds at reference speed, one per call (a wave, or a
    #: question in NL2SQL).
    latencies: list[float] = field(default_factory=list)
    latencies_raw: list[float] = field(default_factory=list)
    block_rates: list[float] = field(default_factory=list)
    block_rates_raw: list[float] = field(default_factory=list)
    #: The probe's slowdown per block, before the workload's sensitivity.
    speed_factors: list[float] = field(default_factory=list)

    def metrics(self) -> dict[str, float]:
        return {
            "questions_per_s": statistics.median(self.block_rates),
            "cpu_ms_per_question": 1000.0 * self.cpu_seconds / self.questions,
            "lat_p50_ms": 1000.0 * percentile(self.latencies, 50.0),
            "success_frac": (self.questions - self.failed) / self.questions,
        }


def run_phase(items: Sequence, call: Callable, check: Callable[[Sequence, list], int],
              worker_pids: Sequence[int] = (), blocks: int = BLOCKS,
              speed_sensitivity: float = 1.0) -> PhaseResult:
    """Drive ``call(item)`` over ``items`` in a closed loop.

    ``item.size`` is how many questions the call carries.
    ``check(block_items, block_replies)`` returns how many of the block's
    questions failed; it runs between blocks, outside every clock.
    """
    result = PhaseResult()
    probe = SpeedProbe()
    for block in split_blocks(items, blocks):
        replies = []
        latencies = []
        cpu_started = tree_cpu_seconds(worker_pids)
        for item in block:
            sent = time.perf_counter()
            reply = call(item)
            took = time.perf_counter() - sent
            latencies.append(took)
            replies.append(reply)
            probe.after(took)
        # (Read the probe first: a block too short to have earned a slice
        # gets one now, and its CPU must fall inside the window it is
        # subtracted from.)
        factor, probing = probe.factor()
        cpu = tree_cpu_seconds(worker_pids) - cpu_started
        slowdown = factor ** speed_sensitivity
        busy = sum(latencies)
        questions = sum(item.size for item in block)
        result.questions += questions
        result.busy_seconds_raw += busy
        result.busy_seconds += busy / slowdown
        result.cpu_seconds_raw += cpu - probing
        result.cpu_seconds += (cpu - probing) / slowdown
        result.latencies_raw.extend(latencies)
        result.latencies.extend(took / slowdown for took in latencies)
        result.block_rates_raw.append(questions / busy)
        result.block_rates.append(questions / busy * slowdown)
        result.speed_factors.append(factor)
        result.failed += check(block, replies)
    return result
