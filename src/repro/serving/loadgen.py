"""Seeded request streams and the two drivers that play them.

Modeled on QPS-driven workload drivers (pyrqg's ``WorkloadConfig``).  One
planner, :func:`draw_questions`, draws a deterministic question stream from a
pool -- head-truncated or true-Zipf, so cache behavior is realistic -- and
two drivers play such streams against any ``submit``-style callable:

* :class:`LoadGenerator` is the closed loop: back-to-back ``submit`` calls
  from one or more client threads, or ``submit_many`` waves.  A request is
  released when its client issues it, so its lag is its service time.
* :class:`ScenarioDriver` is the open loop: a :class:`ScenarioConfig` of
  phases, each with its own QPS and traffic shape, released on a
  deterministic schedule.  Latency is completion minus *scheduled*
  release, so a service falling behind cannot hide the backlog in
  between-request gaps (the coordinated-omission mistake); collapse shows
  up as unbounded lag.

Both return a :class:`LoadReport`: a request that returns is *answered*, one
that raises is an *error*, counted overall and per phase.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.serving.metrics import LatencyRecorder
from repro.utils.rng import SeededRng


def _check_mix(distribution: str, skew: float, unique_fraction: float) -> None:
    if distribution not in ("head", "zipf"):
        raise ValueError(f"unknown distribution {distribution!r}")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    if not 0.0 < unique_fraction <= 1.0:
        raise ValueError("unique_fraction must be in (0, 1]")


def draw_questions(rng: SeededRng, questions: Sequence[str], count: int,
                   distribution: str, skew: float,
                   unique_fraction: float) -> list[str]:
    """Draw ``count`` questions rank-weighted (``P(rank) ~ 1 / rank^skew``):
    "head" from the first ``count * unique_fraction`` questions only, "zipf"
    from the whole pool.  Same ``rng`` seed + arguments => same list."""
    pool = questions
    if distribution == "head":
        pool = questions[:max(1, min(len(questions),
                                     round(count * unique_fraction)))]
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(pool))]
    return [rng.weighted_choice(pool, weights) for _ in range(count)]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a closed-loop request stream."""

    num_requests: int = 200
    #: Fraction of ``num_requests`` drawn as *distinct* questions; the rest
    #: are repeats, skewed towards the head of the pool ("head" distribution).
    unique_fraction: float = 0.25
    #: Zipf-like skew exponent; higher concentrates traffic on few questions.
    skew: float = 1.0
    #: "head" draws from a truncated pool of ``num_requests * unique_fraction``
    #: distinct questions; "zipf" draws rank-weighted from the *whole* question
    #: pool, the shape cluster benchmarks use to model hot-shard traffic
    #: without capping the distinct-question tail.
    distribution: str = "head"
    seed: int = 0
    #: Client threads for :meth:`LoadGenerator.run`.
    concurrency: int = 1

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        _check_mix(self.distribution, self.skew, self.unique_fraction)
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")


@dataclass
class LoadReport:
    """Outcome of one run, closed or open loop."""

    scenario: str = "closed"
    num_requests: int = 0
    answered: int = 0
    errors: int = 0
    duration_seconds: float = 0.0
    #: Answered requests per second.
    throughput_rps: float = 0.0
    #: Lag of *answered* requests: completion minus release, where an open
    #: loop releases on its schedule and a closed loop when it issues.
    latency: dict = field(default_factory=dict)
    #: Worst lag observed across every request, answered or not.
    max_lag_seconds: float = 0.0
    #: Phase name -> {requests, answered, errors, latency} in phase order; a
    #: closed-loop run is one phase.
    phases: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "num_requests": self.num_requests,
            "answered": self.answered,
            "errors": self.errors,
            "duration_seconds": round(self.duration_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "max_lag_seconds": round(self.max_lag_seconds, 4),
            "latency": dict(self.latency),
            "phases": {name: dict(summary)
                       for name, summary in self.phases.items()},
        }


class _Tally:
    """Counts and lags of one run, overall and per phase (thread-safe)."""

    def __init__(self, phase_names: Sequence[str], capacity: int) -> None:
        self._lock = threading.Lock()
        self._latency = LatencyRecorder(max_samples=capacity)
        self._phases = {name: {"requests": 0, "answered": 0, "errors": 0,
                               "latency": LatencyRecorder(max_samples=capacity)}
                        for name in phase_names}
        self._max_lag = 0.0
        self.started = time.monotonic()

    def call(self, phase: str, submit: Callable[[object], object],
             payload: object, release: float, size: int = 1) -> None:
        """``submit(payload)`` -- ``size`` requests released at ``release``
        -- and count its outcome."""
        try:
            submit(payload)
        except Exception:
            outcome = "errors"
        else:
            outcome = "answered"
        lag = time.monotonic() - release
        stats = self._phases[phase]
        with self._lock:
            stats["requests"] += size
            stats[outcome] += size
            self._max_lag = max(self._max_lag, lag)
        if outcome == "answered":
            self._latency.record(lag, size)
            stats["latency"].record(lag, size)

    def report(self, scenario: str) -> LoadReport:
        duration = max(time.monotonic() - self.started, 1e-9)
        phases = {name: {
            "requests": stats["requests"],
            "answered": stats["answered"],
            "errors": stats["errors"],
            "latency": stats["latency"].summary(),
        } for name, stats in self._phases.items()}
        totals = {key: sum(stats[key] for stats in phases.values())
                  for key in ("requests", "answered", "errors")}
        return LoadReport(
            scenario=scenario,
            num_requests=totals["requests"],
            answered=totals["answered"],
            errors=totals["errors"],
            duration_seconds=duration,
            throughput_rps=totals["answered"] / duration,
            latency=self._latency.summary(),
            max_lag_seconds=self._max_lag,
            phases=phases,
        )


class LoadGenerator:
    """The closed-loop driver: a deterministic stream over a question pool,
    played back to back or in waves."""

    def __init__(self, questions: Sequence[str], config: WorkloadConfig | None = None) -> None:
        if not questions:
            raise ValueError("the question pool must not be empty")
        self.questions = list(questions)
        self.config = config or WorkloadConfig()

    def workload(self) -> list[str]:
        """The request stream: same config + pool => same list, always."""
        config = self.config
        return draw_questions(SeededRng(config.seed).child("workload"),
                              self.questions, config.num_requests,
                              config.distribution, config.skew,
                              config.unique_fraction)

    def run(self, submit: Callable[[str], object]) -> LoadReport:
        """Drive ``submit`` with the workload from ``concurrency`` clients,
        each issuing its next request as soon as the last one returns."""
        requests = self.workload()
        tally = _Tally(["closed"], len(requests))
        pending = iter(requests)
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    question = next(pending, None)
                if question is None:
                    return
                tally.call("closed", submit, question, time.monotonic())

        if self.config.concurrency == 1:
            client()
        else:
            threads = [threading.Thread(target=client, name=f"loadgen-{index}")
                       for index in range(self.config.concurrency)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return tally.report("closed")

    def run_batched(self, submit_many: Callable[[Sequence[str]], object],
                    batch_size: int = 16) -> LoadReport:
        """Drive a ``submit_many``-style target (e.g. a cluster service) with
        the workload cut into waves of ``batch_size`` requests.

        Scatter-gather services route a whole batch in one dispatch, so the
        natural load unit is a wave rather than a single call.  Every
        request of a wave is released when the wave is sent and answered
        when it returns, so its lag is the wave's.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        requests = self.workload()
        tally = _Tally(["waves"], len(requests))
        for offset in range(0, len(requests), batch_size):
            wave = requests[offset:offset + batch_size]
            tally.call("waves", submit_many, wave, time.monotonic(),
                       size=len(wave))
        return tally.report("waves")


# -- scenario driver -----------------------------------------------------------
#: Scenario names :func:`named_scenario` knows how to build.
SCENARIO_NAMES = ("steady", "burst", "shift_hot_set")


@dataclass(frozen=True)
class ScenarioPhase:
    """One segment of a scenario: its own QPS and its own traffic shape."""

    name: str
    #: Share of the scenario's ``num_requests`` this phase plays.
    fraction: float
    qps: float
    #: Question-mix shape, as in :class:`WorkloadConfig`.
    distribution: str = "head"
    skew: float = 1.0
    unique_fraction: float = 0.25
    #: Rotate the question pool by this many positions before drawing, so a
    #: later phase's *head* (its hot set) is a different slice of the pool —
    #: the "shift-hot-set" scenario is exactly a hot_offset change.
    hot_offset: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a phase needs a name")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        _check_mix(self.distribution, self.skew, self.unique_fraction)
        if self.hot_offset < 0:
            raise ValueError("hot_offset must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    """A named sequence of phases over one request budget."""

    phases: tuple[ScenarioPhase, ...]
    num_requests: int = 300
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"phase names must be distinct, not {names}")
        if self.num_requests < len(self.phases):
            raise ValueError("need at least one request per phase")
        total = sum(phase.fraction for phase in self.phases)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"phase fractions must sum to 1, not {total:g}")

    def phase_lengths(self) -> list[int]:
        """Requests per phase: floors first, the last phase absorbs the
        remainder (every phase is guaranteed at least one request)."""
        lengths = [max(1, int(self.num_requests * phase.fraction))
                   for phase in self.phases[:-1]]
        lengths.append(max(1, self.num_requests - sum(lengths)))
        return lengths


def named_scenario(name: str, num_requests: int = 300, qps: float = 50.0,
                   seed: int = 0, burst_factor: float = 3.0) -> ScenarioConfig:
    """The stock scenarios, parameterized by a base QPS envelope.

    * ``steady`` — one flat phase at ``qps``;
    * ``burst`` — steady, then a ``burst_factor`` x overload spike, then
      steady again (lag grows, then drains);
    * ``shift_hot_set`` — flat QPS whose hot question set rotates mid-run
      (the second phase's head is a different slice of the pool).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if qps <= 0:
        raise ValueError("qps must be positive")
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must exceed 1")
    if name == "steady":
        phases = (ScenarioPhase("steady", 1.0, qps),)
    elif name == "burst":
        phases = (ScenarioPhase("warmup", 0.3, qps),
                  ScenarioPhase("burst", 0.4, qps * burst_factor),
                  ScenarioPhase("recover", 0.3, qps))
    elif name == "shift_hot_set":
        phases = (ScenarioPhase("hot_a", 0.5, qps, skew=2.0),
                  ScenarioPhase("hot_b", 0.5, qps, skew=2.0, hot_offset=64))
    else:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(expected one of {SCENARIO_NAMES})")
    return ScenarioConfig(phases=phases, num_requests=num_requests,
                          seed=seed, name=name)


class ScenarioDriver:
    """The open-loop driver: plays a :class:`ScenarioConfig` against a
    ``submit`` callable on its schedule."""

    def __init__(self, questions: Sequence[str],
                 config: ScenarioConfig) -> None:
        if not questions:
            raise ValueError("the question pool must not be empty")
        for phase in config.phases:
            if phase.hot_offset and phase.hot_offset % len(questions) == 0:
                raise ValueError(
                    f"phase {phase.name!r}: hot_offset {phase.hot_offset} is a "
                    f"multiple of the {len(questions)}-question pool, so it "
                    "does not shift the hot set")
        self.questions = list(questions)
        self.config = config

    # -- deterministic planning ----------------------------------------------
    def plan(self) -> list[tuple[str, str]]:
        """The full request stream as ``(phase_name, question)`` pairs: same
        config + pool => same stream, always."""
        stream: list[tuple[str, str]] = []
        lengths = self.config.phase_lengths()
        for index, (phase, length) in enumerate(zip(self.config.phases, lengths)):
            rng = SeededRng(self.config.seed).child(f"phase:{index}:{phase.name}")
            offset = phase.hot_offset % len(self.questions)
            rotated = self.questions[offset:] + self.questions[:offset]
            stream.extend((phase.name, question) for question in draw_questions(
                rng, rotated, length, phase.distribution, phase.skew,
                phase.unique_fraction))
        return stream

    def schedule(self) -> list[float]:
        """Deterministic release offsets (seconds from start): requests of a
        phase are spaced at ``1 / phase.qps``."""
        offsets: list[float] = []
        at = 0.0
        lengths = self.config.phase_lengths()
        for phase, length in zip(self.config.phases, lengths):
            spacing = 1.0 / phase.qps
            for _ in range(length):
                offsets.append(at)
                at += spacing
        return offsets

    # -- driving -------------------------------------------------------------
    def run(self, submit: Callable[[str], object]) -> LoadReport:
        """Release each request at its :meth:`schedule` offset and measure
        its lag from that release, not from when the call began."""
        stream, offsets = self.plan(), self.schedule()
        tally = _Tally([phase.name for phase in self.config.phases], len(stream))
        for (phase_name, question), offset in zip(stream, offsets):
            release = tally.started + offset
            delay = release - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            tally.call(phase_name, submit, question, release)
        return tally.report(self.config.name)
