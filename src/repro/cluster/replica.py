"""N-way shard replication with round-robin selection and failover.

A :class:`ReplicaSet` fronts the interchangeable workers of one shard.
Replication is a subprocess-fleet property: there each replica is its own
:class:`repro.cluster.procworker.ProcShardWorker` process, which enforces its
own request deadline (killing a wedged child and raising
:class:`ShardTimeoutError`).  An inproc shard is a set of one
:class:`ShardWorker`, settled by the wave engine through :meth:`note_attempt`.

Requests rotate round-robin across healthy replicas; when a replica raises
(a timeout included) it is quarantined for ``quarantine_seconds`` and the
request fails over to the next replica.  Quarantined replicas are retried
automatically once their quarantine expires (and, as a last resort, when
every replica is quarantined the one whose quarantine expires soonest is
tried anyway -- serving degraded beats serving nothing).

The clock is injectable so quarantine expiry is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.router import RouteRow, SchemaRoute, schema_routes
from repro.cluster.dispatcher import ClusterError, ShardTimeoutError
from repro.cluster.shard import ShardWorker


@dataclass
class _ReplicaState:
    """Bookkeeping for one replica."""

    worker: ShardWorker
    failures: int = 0
    successes: int = 0
    quarantined_until: float = field(default=0.0)

    def healthy(self, now: float) -> bool:
        return now >= self.quarantined_until


class ReplicaSet:
    """Round-robin + failover over the replicas of one shard."""

    def __init__(self, shard_id: int, workers: Sequence[ShardWorker],
                 quarantine_seconds: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not workers:
            raise ValueError("a replica set needs at least one worker")
        if quarantine_seconds < 0:
            raise ValueError("quarantine_seconds must be non-negative")
        self.shard_id = shard_id
        self.quarantine_seconds = quarantine_seconds
        self._clock = clock
        self._replicas = [_ReplicaState(worker=worker) for worker in workers]
        self._rotation = 0
        self._lock = threading.Lock()
        self.failovers = 0

    # -- introspection -------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self._replicas)

    @property
    def workers(self) -> list[ShardWorker]:
        return [replica.worker for replica in self._replicas]

    @property
    def databases(self) -> tuple[str, ...]:
        return self._replicas[0].worker.databases

    def healthy_count(self) -> int:
        now = self._clock()
        return sum(1 for replica in self._replicas if replica.healthy(now))

    # -- selection -----------------------------------------------------------
    def _attempt_order(self) -> list[_ReplicaState]:
        """Healthy replicas in round-robin order, then quarantined ones by
        soonest expiry (the periodic-retry / last-resort path)."""
        with self._lock:
            start = self._rotation
            self._rotation += 1
        now = self._clock()
        rotated = [self._replicas[(start + offset) % len(self._replicas)]
                   for offset in range(len(self._replicas))]
        healthy = [replica for replica in rotated if replica.healthy(now)]
        quarantined = sorted((replica for replica in rotated if not replica.healthy(now)),
                             key=lambda replica: replica.quarantined_until)
        return healthy + quarantined

    # -- request path --------------------------------------------------------
    def send(self, questions: Sequence[str], max_candidates: int | None = None,
             careful: bool = False, trace=None) -> Callable[[], list]:
        """Send to the first replica in attempt order only; the returned ``wait``
        awaits it and fails over through the rest, each sent and awaited in turn.
        ``wait`` returns what the worker's does: rows from a subprocess worker."""
        attempts = self._attempt_order()
        args = (list(questions), max_candidates, careful)
        kwargs = {"trace": trace} if trace is not None else {}
        try:
            first = attempts[0].worker.send_route_batch(*args, **kwargs)
        except Exception as error:
            def first(error=error):  # the first attempt failed at its send
                raise error

        def wait() -> "list[list[SchemaRoute | RouteRow]]":
            last_error: BaseException | None = None
            all_timed_out = True
            for position, replica in enumerate(attempts):
                try:
                    result = (first if position == 0 else
                              replica.worker.send_route_batch(*args, **kwargs))()
                except Exception as error:
                    last_error = error
                    all_timed_out = all_timed_out and isinstance(error, ShardTimeoutError)
                    self._settle(replica, ok=False)
                    if position + 1 < len(attempts):
                        with self._lock:
                            self.failovers += 1
                    continue
                self._settle(replica, ok=True)
                return result
            # Preserve the failure class through the replica layer: when every
            # replica timed out the dispatcher should count a shard *timeout*
            # (``shards_timed_out``), not a generic failure.
            error_class = ShardTimeoutError if all_timed_out else ClusterError
            raise error_class(
                f"all {len(attempts)} replicas of shard {self.shard_id} failed"
            ) from last_error

        return wait

    def route_batch(self, questions: Sequence[str],
                    max_candidates: int | None = None,
                    careful: bool = False,
                    trace=None) -> list[list[SchemaRoute]]:
        """Route through the first replica that answers; quarantine failures."""
        return schema_routes(self.send(questions, max_candidates, careful, trace)())

    def _settle(self, replica: _ReplicaState, ok: bool) -> None:
        with self._lock:
            if ok:
                replica.successes += 1
                replica.quarantined_until = 0.0
            else:
                replica.failures += 1
                replica.quarantined_until = self._clock() + self.quarantine_seconds

    def note_attempt(self, ok: bool) -> None:
        """Settle an inproc (one-worker) set's counters and quarantine for a
        call made outside :meth:`route_batch` (the wave engine's stacked
        decode)."""
        self._settle(self._replicas[0], ok)

    # -- rebalance / lifecycle ----------------------------------------------
    def set_databases(self, databases: tuple[str, ...], master) -> None:
        """Re-project every replica onto a new database set (rebalancing)."""
        for replica in self._replicas:
            replica.worker.set_databases(databases, master)

    def health(self, policy=None):
        """Quarantine fraction plus every replica worker's own verdict.

        Some replicas quarantined means the shard serves with reduced
        redundancy (``degraded``); all quarantined means requests only
        succeed through the last-resort retry path (``failing``)."""
        from repro.obs.health import HealthReport, rollup

        own = HealthReport(component=f"shard-{self.shard_id}")
        now = self._clock()
        quarantined = sum(1 for replica in self._replicas
                          if not replica.healthy(now))
        own.details.update(num_replicas=len(self._replicas),
                           quarantined=quarantined,
                           failovers=self.failovers)
        if quarantined == len(self._replicas):
            own.degrade("failing", f"all {quarantined} replicas quarantined")
        elif quarantined:
            own.degrade("degraded",
                        f"{quarantined} of {len(self._replicas)} replicas "
                        f"quarantined")
        children = [replica.worker.health(policy) for replica in self._replicas]
        return rollup(f"shard-{self.shard_id}", children, own=own)

    def stats(self) -> dict:
        now = self._clock()
        return {
            "shard_id": self.shard_id,
            "num_replicas": len(self._replicas),
            "healthy_replicas": self.healthy_count(),
            "failovers": self.failovers,
            "replicas": [
                {
                    "successes": replica.successes,
                    "failures": replica.failures,
                    "quarantined": not replica.healthy(now),
                }
                for replica in self._replicas
            ],
        }

    def close(self) -> None:
        for replica in self._replicas:
            replica.worker.close()
