"""The feedback controller: observed load in, corrective actions out.

:class:`Controller` closes the loop over the serving and cluster
instrumentation.  Each :meth:`tick` reads one cluster ``stats()`` snapshot
(plus, when riding a :class:`repro.obs.Monitor`, the SLO engine's burn-rate
status) and drives two actuators:

* **admission feedback** — the max fast-window SLO burn is fed to the
  serving front's :class:`~repro.control.admission.AdmissionController`,
  which enters or leaves shedding mode under its own hysteresis;
* **rebalancer feedback** — the per-database routed-load window (which
  databases are *winning* questions right now) decides shard moves executed
  through :class:`repro.cluster.ClusterRebalancer`.

Rebalance semantics: in a scatter-gather cluster every shard sees every
question, so a shard is *hot* when its catalog owns the traffic's answers —
its cost is decoding hot questions over its whole catalog slice.  A **split**
therefore moves the hot shard's *coldest* database to the coldest shard,
shrinking the catalog its hot traffic decodes over (isolating the hot set);
a **merge** consolidates two near-idle shards by moving a database from the
coldest onto the second-coldest.  Flapping is impossible by construction:
actions respect a global ``hysteresis_seconds`` spacing, a moved database
cannot move again for ``database_cooldown_seconds``, and the hot/cold
thresholds leave a deadband between them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.control.admission import AdmissionController


@dataclass(frozen=True)
class ControllerConfig:
    """Dynamics and guardrails of one controller."""

    #: Minimum seconds between rebalance actions (the hysteresis window).
    hysteresis_seconds: float = 60.0
    #: A database that just moved may not move again for this long.
    database_cooldown_seconds: float = 300.0
    #: A shard is hot when its routed-load share reaches this multiple of
    #: the fair share (1 / num_shards)...
    hot_factor: float = 2.0
    #: ...and cold below this multiple (the gap is the deadband).
    cold_factor: float = 0.25
    #: No rebalancing below this cluster-wide window QPS: an idle cluster
    #: has no load worth moving.
    min_window_qps: float = 1.0
    #: SLO severities whose fast burn feeds admission shedding.
    burn_severities: tuple[str, ...] = ("page",)
    #: Bound of the retained action journal.
    max_actions: int = 64

    def __post_init__(self) -> None:
        if self.hysteresis_seconds <= 0:
            raise ValueError("hysteresis_seconds must be positive")
        if self.database_cooldown_seconds < 0:
            raise ValueError("database_cooldown_seconds must be non-negative")
        if self.cold_factor >= self.hot_factor:
            raise ValueError("need cold_factor < hot_factor (the deadband)")
        if self.cold_factor <= 0:
            raise ValueError("cold_factor must be positive")
        if self.min_window_qps < 0:
            raise ValueError("min_window_qps must be non-negative")
        if self.max_actions < 1:
            raise ValueError("max_actions must be >= 1")


class Controller:
    """Workload-adaptive control over one cluster (and its serving front).

    ``rebalancer`` is any object with ``move_database(database, shard_id)``
    (normally a :class:`repro.cluster.ClusterRebalancer`); None disables the
    rebalance actuator.  ``admission`` is the serving front's controller to
    feed burn into; None disables admission feedback.  Drive :meth:`tick`
    directly (tests, benches), or :meth:`attach` to a running
    :class:`repro.obs.Monitor` so every monitor tick feeds a controller tick.
    """

    def __init__(self, cluster, rebalancer=None,
                 admission: AdmissionController | None = None,
                 config: ControllerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.cluster = cluster
        self.rebalancer = rebalancer
        self.admission = admission
        self.config = config or ControllerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self.ticks = 0
        self.tick_errors = 0
        self.last_error: str | None = None
        self._actions: deque[dict] = deque(maxlen=self.config.max_actions)
        self._last_action_at: float | None = None
        self._db_moved_at: dict[str, float] = {}
        self._last_burn = 0.0

    # -- riding the monitor --------------------------------------------------
    def attach(self, monitor) -> "Controller":
        """Subscribe to a :class:`repro.obs.Monitor`: every tick's evaluation
        (snapshot + SLO status) becomes one controller tick."""
        monitor.add_observer(self._on_monitor_tick)
        return self

    def _on_monitor_tick(self, latest: dict) -> None:
        self.tick(snapshot=latest.get("snapshot"),
                  slo_status=latest.get("slo"))

    # -- one control pass ----------------------------------------------------
    def tick(self, snapshot: dict | None = None,
             slo_status: list | None = None) -> dict:
        """Observe once, act at most once; never raises.

        Returns what it did: the burn fed to admission and any rebalance
        action taken.
        """
        outcome = {"burn": None, "action": None}
        try:
            if snapshot is None:
                snapshot = self.cluster.stats()
            outcome["burn"] = self._feed_admission(slo_status)
            if self.rebalancer is not None:
                outcome["action"] = self._rebalance(snapshot)
        except Exception as error:
            with self._lock:
                self.tick_errors += 1
                self.last_error = f"{type(error).__name__}: {error}"
        with self._lock:
            self.ticks += 1
        return outcome

    # -- actuator: admission feedback ----------------------------------------
    def _feed_admission(self, slo_status: list | None) -> float | None:
        if self.admission is None or not slo_status:
            return None
        burns = [float(status.get("fast_burn", 0.0)) for status in slo_status
                 if status.get("severity") in self.config.burn_severities]
        if not burns:
            return None
        burn = max(burns)
        self.admission.observe_burn(burn)
        with self._lock:
            self._last_burn = burn
        return burn

    # -- actuator: rebalancer feedback ---------------------------------------
    def _rebalance(self, snapshot: dict) -> dict | None:
        load = snapshot.get("routing_load") or {}
        per_database = load.get("per_database") or {}
        total = sum(per_database.values())
        assignment = snapshot.get("assignment") or []
        num_shards = len(assignment)
        if total <= 0 or num_shards < 2:
            return None
        if float(snapshot.get("qps_window", 0.0)) < self.config.min_window_qps:
            return None
        now = self._clock()
        with self._lock:
            if (self._last_action_at is not None
                    and now - self._last_action_at < self.config.hysteresis_seconds):
                return None
        per_shard = [sum(per_database.get(name, 0) for name in shard)
                     for shard in assignment]
        fair = total / num_shards
        decision = (self._plan_split(assignment, per_database, per_shard, fair, now)
                    or self._plan_merge(assignment, per_database, per_shard,
                                        fair, now))
        if decision is None:
            return None
        kind, database, source, target = decision
        action = {
            "at": round(now, 3),
            "kind": kind,
            "database": database,
            "from_shard": source,
            "to_shard": target,
            "share": round(per_shard[source] / total, 4),
            "stage_p95_ms": {name: summary.get("p95_ms")
                             for name, summary in
                             sorted((snapshot.get("stages") or {}).items())},
        }
        try:
            self.rebalancer.move_database(database, target)
        except Exception as error:
            action["status"] = "error"
            action["error"] = f"{type(error).__name__}: {error}"
        else:
            action["status"] = "ok"
            with self._lock:
                self._db_moved_at[database] = now
        with self._lock:
            self._actions.append(action)
            self._last_action_at = now
        return action

    def _movable(self, database: str, now: float) -> bool:
        with self._lock:
            moved_at = self._db_moved_at.get(database)
        return (moved_at is None
                or now - moved_at >= self.config.database_cooldown_seconds)

    def _coldest_database(self, databases, per_database: dict,
                          now: float) -> str | None:
        """The least-routed movable database (ties break lexicographically)."""
        candidates = [(per_database.get(name, 0), name) for name in databases
                      if self._movable(name, now)]
        if not candidates:
            return None
        return min(candidates)[1]

    def _plan_split(self, assignment, per_database, per_shard, fair,
                    now) -> tuple | None:
        """Hot shard => move its coldest database to the coldest shard."""
        hot = max(range(len(per_shard)), key=lambda index: per_shard[index])
        if per_shard[hot] < self.config.hot_factor * fair:
            return None
        if len(assignment[hot]) < 2:
            return None  # a single-database shard cannot be split further
        database = self._coldest_database(assignment[hot], per_database, now)
        if database is None:
            return None
        target = min((index for index in range(len(per_shard)) if index != hot),
                     key=lambda index: (per_shard[index], index))
        return ("split", database, hot, target)

    def _plan_merge(self, assignment, per_database, per_shard, fair,
                    now) -> tuple | None:
        """Two near-idle shards => consolidate one database between them."""
        by_load = sorted(range(len(per_shard)),
                         key=lambda index: (per_shard[index], index))
        coldest, second = by_load[0], by_load[1]
        ceiling = self.config.cold_factor * fair
        if per_shard[coldest] >= ceiling or per_shard[second] >= ceiling:
            return None
        if not assignment[coldest]:
            return None  # already drained
        database = self._coldest_database(assignment[coldest], per_database, now)
        if database is None:
            return None
        return ("merge", database, coldest, second)

    # -- introspection -------------------------------------------------------
    def actions(self) -> list[dict]:
        with self._lock:
            return [dict(action) for action in self._actions]

    def stats(self) -> dict:
        with self._lock:
            actions = [dict(action) for action in self._actions]
            last_action_at = self._last_action_at
            burn = self._last_burn
            ticks = self.ticks
            tick_errors = self.tick_errors
            last_error = self.last_error
        return {
            "ticks": ticks,
            "tick_errors": tick_errors,
            "last_error": last_error,
            "last_action_at": last_action_at,
            "actions": actions,
            "splits": sum(1 for action in actions
                          if action["kind"] == "split" and action["status"] == "ok"),
            "merges": sum(1 for action in actions
                          if action["kind"] == "merge" and action["status"] == "ok"),
            "last_burn": round(burn, 4),
            "admission": (self.admission.stats()
                          if self.admission is not None else None),
        }
