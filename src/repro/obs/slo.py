"""Declarative SLOs with multi-window burn-rate alerting over stats snapshots.

An :class:`SloSpec` declares one objective over a signal the PR-6
instrumentation already carries — latency percentiles, the error / request
counters, route-cache effectiveness, the dispatcher's escalation counter.
The :class:`SloEngine` is fed ``stats()`` snapshots (by the monitor thread,
or by hand in tests) and keeps a bounded history of *points*: cumulative
counter readings plus the latency percentiles at each observation
(:data:`MAX_POINTS` of them).  From those it derives **windowed** rates —
counter deltas between now and the youngest point at least ``window``
seconds old, latency readings averaged over the window — and judges each
spec with classic multi-window burn-rate logic:

* **fire** when both the fast window (default 60 s) and the slow window
  (default 300 s) burn above their thresholds — the fast window makes the
  alert responsive, the slow window keeps one latency spike from paging;
* **resolve** when the fast window's burn drops below the resolve
  threshold (a window with no traffic burns 0: no traffic is no violation).

Burn is ``value / target`` for upper-bounded objectives (latency, error
rate, escalation rate) and ``target / value`` for lower-bounded ones (cache
hit rate), so ``burn >= 1`` always means "out of objective".

Fires and resolves land in the engine's own bounded :class:`AlertJournal`
(:data:`MAX_EVENTS` events), which deduplicates while an alert is active
(repeat fires update the burn and bump a ``suppressed`` counter instead of
appending events).

:class:`EwmaBaselineTracker` covers the signals nobody wrote an SLO for:
it learns an exponentially-weighted mean/variance per stage-latency p95 and
flags readings far above their own baseline, producing ``warn``-severity
regressions the monitor files in the engine's journal like any other
alert.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

#: Signals a spec may target, with their objective direction.
SLO_METRICS = {
    "latency_p95_ms": "upper",
    "latency_p99_ms": "upper",
    "error_rate": "upper",
    "cache_hit_rate": "lower",
    "escalation_rate": "upper",
}

#: Cap for the burn of a lower-bounded objective whose observed value is 0
#: (infinite burn is real but JSON is not the place for ``inf``).
MAX_BURN = 1e6
#: Fire / resolve events an :class:`AlertJournal` keeps (oldest dropped).
MAX_EVENTS = 256
#: Snapshots an :class:`SloEngine` keeps: at the ops daemon's 5 s interval,
#: over 40 minutes of history, far past the 300 s slow window.
MAX_POINTS = 512
#: :class:`EwmaBaselineTracker`'s smoothing weight, readings before it
#: judges, and the margin a regression clears: standard deviations above
#: the mean, and a multiple of it.
EWMA_ALPHA = 0.2
EWMA_WARMUP = 5
EWMA_SIGMA = 3.0
EWMA_MIN_RATIO = 2.0


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective plus its burn-rate alerting windows."""

    name: str
    metric: str
    target: float
    fast_window_seconds: float = 60.0
    slow_window_seconds: float = 300.0
    #: Fire when the fast window burns at >= ``fast_burn`` AND the slow
    #: window at >= ``slow_burn``.
    fast_burn: float = 2.0
    slow_burn: float = 1.0
    #: Resolve when the fast window's burn drops below this.
    resolve_burn: float = 1.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise ValueError(f"metric must be one of {sorted(SLO_METRICS)}, "
                             f"not {self.metric!r}")
        if self.target <= 0:
            raise ValueError("target must be positive")
        if not 0 < self.fast_window_seconds <= self.slow_window_seconds:
            raise ValueError("need 0 < fast_window_seconds <= slow_window_seconds")
        if self.fast_burn <= 0 or self.slow_burn <= 0 or self.resolve_burn <= 0:
            raise ValueError("burn thresholds must be positive")
        if self.severity not in ("page", "warn"):
            raise ValueError("severity must be 'page' or 'warn'")

    @property
    def kind(self) -> str:
        """Objective direction: ``upper`` (ceiling) or ``lower`` (floor)."""
        return SLO_METRICS[self.metric]

    def burn(self, value: float) -> float:
        """How fast this objective's budget is burning at ``value``."""
        if self.kind == "upper":
            return value / self.target
        if value <= 0:
            return MAX_BURN
        return min(self.target / value, MAX_BURN)

    def to_dict(self) -> dict:
        return {"name": self.name, "metric": self.metric, "target": self.target,
                "kind": self.kind,
                "fast_window_seconds": self.fast_window_seconds,
                "slow_window_seconds": self.slow_window_seconds,
                "fast_burn": self.fast_burn, "slow_burn": self.slow_burn,
                "resolve_burn": self.resolve_burn, "severity": self.severity}


def default_slo_specs() -> list[SloSpec]:
    """Lenient defaults for the ops daemon: a healthy seeded bench stays at
    zero alerts, sustained overload or real breakage fires."""
    return [
        SloSpec(name="latency-p95", metric="latency_p95_ms", target=500.0),
        SloSpec(name="error-rate", metric="error_rate", target=0.05),
    ]


@dataclass(frozen=True)
class _Point:
    """One observation: cumulative counters + current latency percentiles."""

    at: float
    requests: int
    errors: int
    cache_hits: int
    cache_misses: int
    escalations: int
    #: Questions that reached a cluster's dispatcher: the escalation
    #: rate's denominator (front cache hits never reach the gate).
    dispatched: int
    p95_ms: float
    p99_ms: float


class AlertJournal:
    """Bounded fire/resolve event log with active-alert deduplication."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=MAX_EVENTS)
        self._active: dict[str, dict] = {}
        self.fired = 0
        self.resolved = 0
        self.suppressed = 0

    def fire(self, name: str, *, severity: str = "page", message: str = "",
             burn: float | None = None, value: float | None = None,
             target: float | None = None) -> dict | None:
        """Record a firing alert; a repeat fire of an active alert only
        refreshes its numbers (returns None, no new event)."""
        with self._lock:
            now = self._clock()
            active = self._active.get(name)
            if active is not None:
                active.update(burn=burn, value=value, last_seen_at=now)
                active["fire_count"] += 1
                self.suppressed += 1
                return None
            event = {"kind": "fire", "name": name, "at": now,
                     "severity": severity, "message": message,
                     "burn": burn, "value": value, "target": target}
            self._events.append(event)
            self._active[name] = {"name": name, "severity": severity,
                                  "message": message, "burn": burn,
                                  "value": value, "target": target,
                                  "fired_at": now, "last_seen_at": now,
                                  "fire_count": 1}
            self.fired += 1
            return event

    def resolve(self, name: str, *, message: str = "",
                burn: float | None = None) -> dict | None:
        """Record recovery of an active alert (no-op when it is not active)."""
        with self._lock:
            active = self._active.pop(name, None)
            if active is None:
                return None
            event = {"kind": "resolve", "name": name, "at": self._clock(),
                     "severity": active["severity"], "message": message,
                     "burn": burn, "value": None, "target": active["target"],
                     "active_seconds": round(self._clock() - active["fired_at"], 3)}
            self._events.append(event)
            self.resolved += 1
            return event

    def is_active(self, name: str) -> bool:
        with self._lock:
            return name in self._active

    def active(self) -> list[dict]:
        with self._lock:
            return [dict(alert) for alert in self._active.values()]

    def events(self) -> list[dict]:
        with self._lock:
            return [dict(event) for event in self._events]

    def stats(self) -> dict:
        with self._lock:
            return {"active": len(self._active), "events": len(self._events),
                    "fired": self.fired, "resolved": self.resolved,
                    "suppressed": self.suppressed}


class SloEngine:
    """Evaluates :class:`SloSpec`s over a bounded history of snapshots,
    filing fires and resolves in its own :attr:`journal`."""

    def __init__(self, specs: Sequence[SloSpec],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.specs = list(specs)
        self._clock = clock
        self._points: deque[_Point] = deque(maxlen=MAX_POINTS)
        self.journal = AlertJournal(clock)

    # -- feeding -------------------------------------------------------------
    @staticmethod
    def _point_from_snapshot(snapshot: dict, at: float) -> _Point:
        counters = snapshot.get("counters") or {}
        cache = snapshot.get("cache") or {}
        latency = snapshot.get("latency") or {}
        dispatcher = snapshot.get("dispatcher") or {}
        return _Point(
            at=at,
            requests=int(counters.get("requests", 0)),
            errors=int(counters.get("errors", 0)),
            cache_hits=int(cache.get("hits", counters.get("cache_hits", 0))),
            cache_misses=int(cache.get("misses", 0)),
            escalations=int(dispatcher.get("escalations", 0)),
            dispatched=int(dispatcher.get("questions", 0)),
            p95_ms=float(latency.get("p95_ms", 0.0)),
            p99_ms=float(latency.get("p99_ms", 0.0)),
        )

    def observe(self, snapshot: dict) -> list[dict]:
        """Fold one snapshot in and run every spec; returns new fire/resolve
        events (deduped repeats return nothing)."""
        now = self._clock()
        self._points.append(self._point_from_snapshot(snapshot, now))
        events: list[dict] = []
        for status in self.evaluate():
            spec = status["spec_object"]
            if status["should_fire"]:
                event = self.journal.fire(
                    spec.name, severity=spec.severity,
                    message=f"{spec.metric}={status['fast_value']} burns "
                            f"{status['fast_burn']}x fast / "
                            f"{status['slow_burn']}x slow against "
                            f"target {spec.target}",
                    burn=status["fast_burn"], value=status["fast_value"],
                    target=spec.target)
                if event is not None:
                    events.append(event)
            elif status["should_resolve"] and self.journal.is_active(spec.name):
                event = self.journal.resolve(
                    spec.name, burn=status["fast_burn"],
                    message=f"{spec.metric} back within target {spec.target}")
                if event is not None:
                    events.append(event)
        return events

    # -- windowed readings ---------------------------------------------------
    def _window_points(self, window_seconds: float,
                       now: float) -> tuple[_Point | None, _Point | None, list[_Point]]:
        """(base, current, in-window points) for one window ending at ``now``.

        ``base`` is the youngest point at least ``window_seconds`` old — the
        subtrahend for counter deltas; with history younger than the window,
        the oldest point stands in (rates are then over the actual span)."""
        if not self._points:
            return None, None, []
        cutoff = now - window_seconds
        base = None
        inside: list[_Point] = []
        for point in self._points:
            if point.at <= cutoff:
                base = point
            else:
                inside.append(point)
        if base is None:
            base = self._points[0]
            inside = [point for point in inside if point is not base]
        return base, self._points[-1], inside

    def _window_value(self, spec: SloSpec, window_seconds: float,
                      now: float) -> float | None:
        """The spec's signal over one window; None when unmeasurable."""
        base, current, inside = self._window_points(window_seconds, now)
        if base is None or current is None:
            return None
        if spec.metric in ("latency_p95_ms", "latency_p99_ms"):
            attr = "p95_ms" if spec.metric == "latency_p95_ms" else "p99_ms"
            readings = [getattr(point, attr) for point in inside] \
                or [getattr(current, attr)]
            return sum(readings) / len(readings)
        requests = current.requests - base.requests
        if spec.metric == "error_rate":
            if requests <= 0:
                return None
            return (current.errors - base.errors) / requests
        if spec.metric == "escalation_rate":
            dispatched = current.dispatched - base.dispatched
            if dispatched <= 0:
                return None
            return (current.escalations - base.escalations) / dispatched
        # cache_hit_rate
        lookups = (current.cache_hits - base.cache_hits) \
            + (current.cache_misses - base.cache_misses)
        if lookups <= 0:
            return None
        return (current.cache_hits - base.cache_hits) / lookups

    # -- judging -------------------------------------------------------------
    def evaluate(self) -> list[dict]:
        """Burn + state per spec (the ``/slo`` endpoint's payload, minus the
        internal ``spec_object`` key)."""
        now = self._clock()
        statuses = []
        for spec in self.specs:
            fast_value = self._window_value(spec, spec.fast_window_seconds, now)
            slow_value = self._window_value(spec, spec.slow_window_seconds, now)
            fast_burn = spec.burn(fast_value) if fast_value is not None else 0.0
            slow_burn = spec.burn(slow_value) if slow_value is not None else 0.0
            should_fire = (fast_value is not None and slow_value is not None
                           and fast_burn >= spec.fast_burn
                           and slow_burn >= spec.slow_burn)
            statuses.append({
                "name": spec.name,
                "metric": spec.metric,
                "target": spec.target,
                "severity": spec.severity,
                "fast_value": round(fast_value, 6) if fast_value is not None else None,
                "slow_value": round(slow_value, 6) if slow_value is not None else None,
                "fast_burn": round(fast_burn, 4),
                "slow_burn": round(slow_burn, 4),
                "firing": self.journal.is_active(spec.name),
                "should_fire": should_fire,
                "should_resolve": fast_burn < spec.resolve_burn,
                "spec_object": spec,
            })
        return statuses

    def status(self) -> list[dict]:
        """JSON-safe :meth:`evaluate` (what ``/slo`` serves)."""
        statuses = []
        for status in self.evaluate():
            status = dict(status)
            status.pop("spec_object")
            status.pop("should_fire")
            status.pop("should_resolve")
            statuses.append(status)
        return statuses


class EwmaBaselineTracker:
    """Flags stage-latency regressions against learned EWMA baselines.

    Per stage, an exponentially-weighted mean and variance of the p95
    reading (weight :data:`EWMA_ALPHA`, judging once :data:`EWMA_WARMUP`
    readings are in); a reading is a regression when it exceeds the
    baseline by both :data:`EWMA_SIGMA` standard deviations and an
    :data:`EWMA_MIN_RATIO` multiple (the ratio guard keeps microsecond-scale
    stages from paging on scheduler noise).  The baseline
    only absorbs the reading *after* judging it, so a step change is flagged
    before the tracker learns the new normal.
    """

    def __init__(self) -> None:
        self._stages: dict[str, list[float]] = {}  # name -> [mean, var, n]

    def observe(self, stage_summaries: dict) -> list[dict]:
        """Fold one ``stages`` dict in; returns the regressions it flags."""
        regressions: list[dict] = []
        for name, summary in sorted(stage_summaries.items()):
            value = float(summary.get("p95_ms", 0.0))
            state = self._stages.get(name)
            if state is None:
                self._stages[name] = [value, 0.0, 1]
                continue
            mean, variance, seen = state
            if seen >= EWMA_WARMUP:
                threshold = mean + EWMA_SIGMA * math.sqrt(variance)
                if value > threshold and value > mean * EWMA_MIN_RATIO:
                    regressions.append({
                        "stage": name,
                        "p95_ms": round(value, 3),
                        "baseline_ms": round(mean, 3),
                        "threshold_ms": round(threshold, 3),
                    })
            delta = value - mean
            mean += EWMA_ALPHA * delta
            variance = (1 - EWMA_ALPHA) * (variance + EWMA_ALPHA * delta * delta)
            self._stages[name] = [mean, variance, seen + 1]
        return regressions

    def baselines(self) -> dict:
        return {name: {"mean_ms": round(mean, 3),
                       "stddev_ms": round(math.sqrt(variance), 3),
                       "observations": seen}
                for name, (mean, variance, seen) in sorted(self._stages.items())}
