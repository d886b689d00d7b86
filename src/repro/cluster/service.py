"""The cluster routing service: partition + shards + replicas + dispatch.

:class:`ClusterRoutingService` serves the catalog from a set of shard workers
behind a scatter-gather dispatcher, and through the monolith's front: a
:class:`RoutingService` whose decoder is the dispatcher, so a fleet has the
same ``submit`` / ``submit_many`` request path, route cache, counters and
group commit as a monolith -- the fleet's one route cache.  Each shard owns
a disjoint slice of the databases and decodes a search derived from the
master's and the shard count (never set by a knob); the dispatcher
merges per-shard candidates into one deterministic top-k whose
scores are pooled softmax weights (see :func:`repro.core.router.merge_route_lists`).

One scatter path per backend.  An inproc fleet decodes each scatter wave as
one stacked kernel stream (:mod:`repro.cluster.wave`), the monolith's
decode path over every shard's router: its shards are rows of one kernel
call under one GIL, so per-shard isolation means nothing there,
and ``ClusterConfig`` rejects the isolation knobs (``replicas > 1``,
``shard_timeout_seconds``, ``allow_partial``) on it.  A subprocess fleet
scatters from the calling thread -- every shard's frame sent, then each
reply awaited -- to worker processes on real cores; replication,
per-request deadlines (owned by each
:class:`repro.cluster.procworker.ProcShardWorker`) and partial gathers live
there.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.core.router import SchemaRoute, SchemaRouter
from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.partition import ShardAssignment, partition_catalog
from repro.cluster.replica import ReplicaSet
from repro.cluster.shard import ShardWorker
from repro.cluster.wave import ClusterWaveEngine
from repro.obs.health import HealthReport, dispatcher_health, rollup
from repro.serving.metrics import QPS_WINDOW_SECONDS, WindowedCounter
from repro.serving.service import RoutingService, ServingConfig

#: Supported shard-worker backends.
WORKER_BACKENDS = frozenset({"inproc", "subprocess"})


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one cluster instance.

    None of them sets a shard's search: both tiers' searches are one rule of
    the master router's, ``num_shards`` and whether the cascade is on
    (:func:`repro.cluster.shard.shard_search`).
    """

    num_shards: int = 4
    #: Where shard workers live: "inproc" (one worker per shard in this
    #: interpreter, every wave one stacked decode) or "subprocess" (one
    #: ``repro.cluster.procworker`` process per replica, driven over the
    #: :mod:`repro.cluster.transport` wire protocol, so decode runs on
    #: separate cores).  Subprocess workers load the master router of a
    #: cluster checkpoint; ``from_router`` writes one automatically.
    worker_backend: str = "inproc"
    #: Worker processes per shard (1 = no replication); subprocess only.
    replicas: int = 1
    #: Confidence-gated escalation: a question whose merged top-1 softmax
    #: weight falls below this threshold is re-scattered to a wide-beam tier.
    #: None disables the cascade.  Fixed for the fleet's lifetime.
    escalation_threshold: float | None = 0.8
    #: Per-request deadline of each worker process (None = wait forever); a
    #: miss kills the wedged child and raises ``ShardTimeoutError``.
    #: Subprocess only.
    shard_timeout_seconds: float | None = None
    #: Merge whatever shards answered instead of failing the whole request.
    #: Subprocess only.
    allow_partial: bool = False
    quarantine_seconds: float = 30.0
    #: Route cache settings of the front, the fleet's one cache (merged
    #: answers).
    enable_cache: bool = True
    cache_size: int = 2048
    #: Record per-request traces at the cluster's front.  Shards never start
    #: their own traces (the front's context threads through to them), so
    #: this is the only tracing switch of a cluster.  On by default: on a
    #: subprocess fleet a worker ships its spans back as compact rows that
    #: the front stitches only when the trace is read (``repro.obs.trace``,
    #: "Cheap when on", measures a traced ``proc_cold`` wave).
    enable_tracing: bool = True

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.worker_backend not in WORKER_BACKENDS:
            raise ValueError(f"worker_backend must be one of "
                             f"{sorted(WORKER_BACKENDS)}, not {self.worker_backend!r}")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.worker_backend == "inproc":
            for name, isolating in (("replicas", self.replicas > 1),
                                    ("shard_timeout_seconds",
                                     self.shard_timeout_seconds is not None),
                                    ("allow_partial", self.allow_partial)):
                if isolating:
                    raise ValueError(
                        f"{name}={getattr(self, name)!r} needs "
                        f"worker_backend='subprocess': an inproc fleet's "
                        f"shards are rows of one stacked decode")
        if self.escalation_threshold is not None \
                and not 0.0 < self.escalation_threshold <= 1.0:
            raise ValueError("escalation_threshold must be in (0, 1] (or None)")


def project_shards(master: SchemaRouter, assignment: ShardAssignment,
                   config: ClusterConfig) -> list[ReplicaSet]:
    """One inproc worker per shard of ``assignment``: ``master`` projected
    onto the shard's databases."""
    return [
        ReplicaSet(shard_id, [ShardWorker(
            shard_id, databases, master, assignment.num_shards,
            careful_tier=config.escalation_threshold is not None)],
            quarantine_seconds=config.quarantine_seconds)
        for shard_id, databases in enumerate(assignment.shards)
    ]


class ClusterRoutingService:
    """Serves schema routing over a partitioned catalog.

    Every request enters through :attr:`front`, a :class:`RoutingService`
    over the dispatcher: its route cache, the fleet's only one, holds
    merged answers (``stats()["cache"]``; sized by ``cache_size``), so a
    repeated question -- a needy one included -- costs no scatter of either
    tier.  Its validity is the catalog's alone: :meth:`bump_catalog_version`
    -- the one hook every catalog change already ends in -- stales all of
    it, and an entry never ages.
    """

    def __init__(self, shards: Sequence[ReplicaSet], assignment: ShardAssignment,
                 config: ClusterConfig | None = None,
                 master_router: SchemaRouter | None = None,
                 catalog_version: int = 0) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        if len(shards) != assignment.num_shards:
            raise ValueError(f"{len(shards)} shards but the assignment has "
                             f"{assignment.num_shards}")
        self.config = config or ClusterConfig(num_shards=len(shards))
        self.assignment = assignment
        self.master_router = master_router
        self._shards = list(shards)
        self._catalog_version = catalog_version
        default_candidates = 5
        if master_router is not None:
            default_candidates = master_router.default_max_candidates
        careful_targets = None
        if self.config.escalation_threshold is not None:
            careful_targets = [functools.partial(replica_set.send, careful=True)
                               for replica_set in self._shards]
        # Inproc workers always decode as one wave; a fleet that cannot stack
        # raises here rather than falling back to a second scatter path.
        self.wave_engine = None
        if all(isinstance(worker, ShardWorker)
               for replica_set in self._shards for worker in replica_set.workers):
            self.wave_engine = ClusterWaveEngine(self._shards)
        self.dispatcher = ClusterDispatcher(
            [replica_set.send for replica_set in self._shards],
            default_max_candidates=default_candidates,
            allow_partial=self.config.allow_partial,
            careful_targets=careful_targets,
            escalation_threshold=self.config.escalation_threshold,
            wave_engine=self.wave_engine,
        )
        self.front = RoutingService(self.dispatcher, ServingConfig(
            enable_cache=self.config.enable_cache,
            cache_size=self.config.cache_size,
            enable_tracing=self.config.enable_tracing))
        self.metrics, self.tracer = self.front.metrics, self.front.tracer
        # Routed-load window: merged top-1 answers per second, labelled by
        # database, on the front's metrics clock.  In a scatter-gather
        # cluster every shard sees every question, so request QPS is flat
        # across shards by construction; which databases *win* the questions
        # is the only load signal that distinguishes a hot shard
        # (``routing_load()``, on ``/stats`` and ``/metrics``).
        self._routed = WindowedCounter(QPS_WINDOW_SECONDS, self.metrics.clock)
        #: A temp checkpoint directory this service wrote for its own
        #: subprocess workers (removed on close); None when the caller owns it.
        self._owned_checkpoint_dir: Path | None = None
        self._closed = False

    # -- construction --------------------------------------------------------
    @classmethod
    def from_router(cls, master: SchemaRouter, config: ClusterConfig | None = None,
                    assignment: ShardAssignment | None = None,
                    checkpoint_dir: str | Path | None = None) -> "ClusterRoutingService":
        """Partition the master router's catalog and project one worker per
        shard.  No training happens: every shard shares the master's trained
        model.

        With ``worker_backend="subprocess"`` the master and the layout are
        first written to ``checkpoint_dir`` as a cluster checkpoint (a
        temporary directory when omitted, removed again on ``close()``) and
        booted with ``load_cluster``, because each worker process loads the
        master from disk rather than inheriting in-memory weights.
        """
        config = config or ClusterConfig()
        if assignment is None:
            assignment = partition_catalog(master.graph.catalog, config.num_shards)
        elif assignment.num_shards != config.num_shards:
            config = replace(config, num_shards=assignment.num_shards)
        if config.worker_backend == "inproc":
            return cls(project_shards(master, assignment, config), assignment,
                       config=config, master_router=master)
        from repro.cluster.checkpoint import load_cluster, write_cluster

        owned_dir: Path | None = None
        if checkpoint_dir is None:
            owned_dir = checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        try:
            write_cluster(checkpoint_dir, master, config, assignment)
            service = load_cluster(checkpoint_dir, config=config)
        except BaseException:
            # A failed boot must not leave router weights behind in /tmp.
            if owned_dir is not None:
                shutil.rmtree(owned_dir, ignore_errors=True)
            raise
        service._owned_checkpoint_dir = owned_dir
        return service

    # -- request path --------------------------------------------------------
    def submit(self, question: str,
               max_candidates: int | None = None) -> list[SchemaRoute]:
        """Route one question across all shards (blocking, thread-safe)."""
        return self.submit_many([question], max_candidates)[0]

    def submit_many(self, questions: Sequence[str],
                    max_candidates: int | None = None) -> list[list[SchemaRoute]]:
        """Route a wave through the front: its cache answers what it can,
        and the misses -- shared with concurrent callers' -- scatter as one
        dispatch.  Every answered question counts in :meth:`routing_load`."""
        results = self.front.submit_many(questions, max_candidates)
        self._note_routed(results)
        return results

    def _note_routed(self, results: Sequence[list[SchemaRoute]]) -> None:
        """Tally the wave's merged top-1 databases and record the tally in
        the routed-load window: one ``Counter``, one lock, per wave."""
        tally = Counter([routes[0].database for routes in results if routes])
        self._routed.note(sum(tally.values()), tally)

    def routing_load(self) -> dict:
        """Who is winning the traffic: trailing-window routed-answer counts,
        read from the one routed-load window :meth:`_note_routed` feeds.

        ``per_database`` maps database name to how many questions it answered
        (as merged top-1) inside the window; ``per_shard`` sums those counts
        under the current assignment: the hot/cold signal an operator reads
        before a manual rebalance.  Databases whose buckets have all expired
        are absent, so a yesterday's-hot-set database does not linger at zero
        forever.
        """
        per_database = dict(sorted(self._routed.label_totals().items()))
        per_shard = [0] * self.num_shards
        for name, count in per_database.items():
            try:
                per_shard[self.assignment.shard_of(name)] += count
            except KeyError:
                continue  # routed to a database since dropped from the catalog
        return {
            "window_seconds": QPS_WINDOW_SECONDS,
            "total": sum(per_database.values()),
            "per_database": per_database,
            "per_shard": per_shard,
        }

    # -- topology ------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[ReplicaSet]:
        return self._shards

    @property
    def database_names(self) -> list[str]:
        return self.assignment.database_names

    def shard_of(self, database: str) -> int:
        return self.assignment.shard_of(database)

    # -- catalog change hooks ------------------------------------------------
    @property
    def catalog_version(self) -> int:
        return self._catalog_version

    def bump_catalog_version(self) -> int:
        """Record a catalog change; call it *after* any affected shard has
        been re-projected.

        Stales the front cache: a merged answer pools all shards, so any
        shard's change stales it.  A wave that consulted the front before
        the bump caches nothing after it, and one that consults after the
        bump sees only changed shards."""
        self._catalog_version += 1
        self.front.notify_catalog_changed()
        return self._catalog_version

    def notify_catalog_changed(self, database: str | None = None) -> None:
        """Stale every cached answer, for a change to ``database`` or to the
        whole catalog: the front's cache is the fleet's only one, so this
        bumps the catalog version and touches no worker.  Raises
        ``KeyError``, with the catalog version where it was, when no shard
        serves ``database``."""
        if database is not None:
            self.assignment.shard_of(database)
        self.bump_catalog_version()

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Cluster-wide rollup plus per-shard detail.

        Starts from the front's snapshot: ``counters`` count asked
        questions, and ``cache`` / ``cache_hit_rate`` are the front's route
        cache, the fleet's only one; ``dispatcher`` counts what reached the
        dispatcher."""
        snapshot = self.front.stats()
        shard_stats = []
        # Wire-level rollup across subprocess workers (absent for pure inproc
        # fleets): how deep the pipelined wire runs and what it costs.
        transport_rollup = {"workers": 0, "requests_sent": 0, "in_flight": 0,
                            "max_in_flight": 0, "pipelined_frames": 0,
                            "bytes_sent": 0, "bytes_received": 0,
                            "timeouts": 0, "crashes": 0}
        for replica_set in self._shards:
            entry = replica_set.stats()
            entry["workers"] = [worker.stats() for worker in replica_set.workers]
            for worker_stats in entry["workers"]:
                transport = worker_stats.get("transport")
                if transport and transport.get("backend") == "subprocess":
                    transport_rollup["workers"] += 1
                    transport_rollup["max_in_flight"] = max(
                        transport_rollup["max_in_flight"],
                        transport.get("max_in_flight", 0))
                    for key in ("requests_sent", "in_flight", "pipelined_frames",
                                "bytes_sent", "bytes_received", "timeouts",
                                "crashes"):
                        transport_rollup[key] += transport.get(key, 0)
            shard_stats.append(entry)
        snapshot["num_shards"] = self.num_shards
        snapshot["replicas"] = max(replica_set.num_replicas
                                   for replica_set in self._shards)
        snapshot["worker_backend"] = self.config.worker_backend
        snapshot["assignment"] = [list(databases) for databases in self.assignment.shards]
        snapshot["catalog_version"] = self._catalog_version
        if transport_rollup["workers"]:
            snapshot["transport"] = transport_rollup
        snapshot["routing_load"] = self.routing_load()
        snapshot["dispatcher"] = self.dispatcher.stats()
        snapshot["shards"] = shard_stats
        return snapshot

    def health(self) -> HealthReport:
        """One cluster verdict, rolled up bottom-up.

        The cluster's own probes are its front's -- error rate, decode
        backlog and the front route cache (kept as the last child) -- plus
        the dispatcher's shard-timeout / escalation rates.  The other
        children are the replica sets (which nest their workers).  Per the
        rollup precedence, one ``failing`` shard degrades the cluster
        verdict, and only every shard failing fails it outright.
        """
        if self._closed:
            own = HealthReport(component="cluster")
            own.degrade("failing", "cluster service is closed")
            return own
        own = self.front.health()
        dispatcher = self.dispatcher.stats()  # rates over what reached it
        dispatcher_health(own, dispatcher, dispatcher["questions"])
        own.details["num_shards"] = self.num_shards
        own.details["worker_backend"] = self.config.worker_backend
        children = [replica_set.health() for replica_set in self._shards]
        return rollup("cluster", children, own=own)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.front.close()
        for replica_set in self._shards:
            replica_set.close()
        if self._owned_checkpoint_dir is not None:
            shutil.rmtree(self._owned_checkpoint_dir, ignore_errors=True)
            self._owned_checkpoint_dir = None

    def __enter__(self) -> "ClusterRoutingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
