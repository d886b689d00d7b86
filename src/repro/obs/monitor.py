"""The active monitor: snapshot → evaluate → journal, on a loop.

:class:`Monitor` attaches to anything with ``stats()`` and ``health()``
(a :class:`repro.serving.RoutingService` or a
:class:`repro.cluster.ClusterRoutingService`) and periodically

1. takes a ``stats()`` snapshot,
2. computes the bottom-up :class:`~repro.obs.health.HealthReport`,
3. feeds the snapshot to the :class:`~repro.obs.slo.SloEngine`
   (fires / resolves burn-rate alerts in the engine's journal),
4. runs the per-stage EWMA baseline tracker and files any regressions in
   the same journal as auto-resolving ``warn`` alerts named
   ``baseline:<stage>``.

Its settings are the ones the ops daemon sets: the SLO specs (``--slo``)
and the interval (``--interval``); the clock is injectable for tests.

The loop runs on one daemon thread started with :meth:`start` and stopped
with a clean, joining :meth:`close`; :meth:`tick` is public so tests (and
the ops daemon's CLI) can drive evaluation with an injected clock and no
thread at all.  A tick that raises is counted (``tick_errors``) and never
kills the loop — a monitoring layer that dies with its patient is useless.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from repro.obs.health import HealthReport
from repro.obs.slo import EwmaBaselineTracker, SloEngine, SloSpec, default_slo_specs


class Monitor:
    """Periodic health/SLO evaluation over one service."""

    def __init__(self, service, specs: Sequence[SloSpec] | None = None,
                 interval_seconds: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.service = service
        self.interval_seconds = interval_seconds
        self._clock = clock
        self.engine = SloEngine(
            default_slo_specs() if specs is None else specs, clock)
        self.baseline = EwmaBaselineTracker()
        self.ticks = 0
        self.tick_errors = 0
        self.last_error: str | None = None
        self._lock = threading.Lock()
        self._latest: dict | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- evaluation ----------------------------------------------------------
    def tick(self) -> dict | None:
        """One snapshot → evaluate → journal pass; returns what it stored."""
        try:
            snapshot = self.service.stats()
            health = self.service.health()
            events = self.engine.observe(snapshot)
            events += self._observe_baselines(snapshot.get("stages") or {})
            latest = {
                "at": self._clock(),
                "health": health.to_dict(),
                "slo": self.engine.status(),
                "events": events,
                "snapshot": snapshot,
            }
        except Exception as error:
            with self._lock:
                self.ticks += 1
                self.tick_errors += 1
                self.last_error = f"{type(error).__name__}: {error}"
            return None
        with self._lock:
            self.ticks += 1
            self._latest = latest
        return latest

    def _observe_baselines(self, stages: dict) -> list[dict]:
        """Journal EWMA regressions; resolve the ones that went quiet."""
        journal = self.engine.journal
        regressions = self.baseline.observe(stages)
        flagged = {f"baseline:{entry['stage']}" for entry in regressions}
        events = []
        for entry in regressions:
            event = journal.fire(
                f"baseline:{entry['stage']}", severity="warn",
                message=f"stage {entry['stage']} p95 {entry['p95_ms']}ms "
                        f"above EWMA baseline {entry['baseline_ms']}ms "
                        f"(threshold {entry['threshold_ms']}ms)",
                value=entry["p95_ms"], target=entry["threshold_ms"])
            if event is not None:
                events.append(event)
        for active in journal.active():
            name = active["name"]
            if name.startswith("baseline:") and name not in flagged:
                event = journal.resolve(
                    name, message="stage p95 back under its baseline threshold")
                if event is not None:
                    events.append(event)
        return events

    # -- live probes (the ops endpoint's read side) --------------------------
    def check_now(self) -> HealthReport:
        """A fresh health verdict right now — not the last tick's cached one,
        so ``/healthz`` sees a just-killed shard immediately."""
        return self.service.health()

    def service_stats(self) -> dict:
        return self.service.stats()

    def latest(self) -> dict | None:
        """The last successful tick's stored evaluation (None before one)."""
        with self._lock:
            return self._latest

    def summary(self) -> dict:
        with self._lock:
            latest_at = self._latest["at"] if self._latest else None
            ticks = self.ticks
            tick_errors = self.tick_errors
            last_error = self.last_error
        return {
            "running": self.is_running(),
            "interval_seconds": self.interval_seconds,
            "ticks": ticks,
            "tick_errors": tick_errors,
            "last_error": last_error,
            "last_tick_at": latest_at,
            "alerts": self.engine.journal.stats(),
        }

    # -- lifecycle -----------------------------------------------------------
    def is_running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "Monitor":
        """Start the background loop (idempotent); first tick is immediate."""
        if self.is_running():
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="repro-obs-monitor",
                                        daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while True:
            self.tick()
            if self._stop.wait(self.interval_seconds):
                return

    def close(self) -> None:
        """Stop and join the loop thread; safe to call twice."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "Monitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
