"""Cluster subsystem: sharded scatter-gather routing over partitioned catalogs.

PR 1 made the router a persistent, cached, micro-batched *service*; this
package makes it a *cluster*.  The catalog is partitioned into shards
(round-robin, size-balanced, or joinability-aware grouping); each shard runs a
projection of the trained router -- same model, sub-graph constraint, reduced
beam budget -- behind its own :class:`repro.serving.RoutingService` with an
independent cache and metrics; a dispatcher scatter-gathers every request
across the shards and merges the candidates into one deterministic top-k:

* :mod:`repro.cluster.partition` -- deterministic catalog partitioners and the
  :class:`ShardAssignment` layout;
* :mod:`repro.cluster.shard` -- router projection and the per-shard worker;
* :mod:`repro.cluster.dispatcher` -- thread-pool scatter-gather with
  per-shard timeouts and deterministic score-merged top-k;
* :mod:`repro.cluster.replica` -- N-way replication, round-robin selection,
  failover with quarantine;
* :mod:`repro.cluster.rebalance` -- live add/remove/move of databases with
  single-shard cache invalidation;
* :mod:`repro.cluster.wave` -- dense wave decode: the whole inproc fleet's
  distinct live prefixes stacked into one kernel stream per step, with per-shard
  vocabulary slices and constraint masks intact;
* :mod:`repro.cluster.service` -- :class:`ClusterRoutingService`, the façade
  mirroring the PR-1 ``RoutingService`` API plus cluster-wide metrics;
* :mod:`repro.cluster.checkpoint` -- whole-cluster save/load (shard manifest
  + per-shard router checkpoints) for identical restarts;
* :mod:`repro.cluster.transport` -- the length-prefixed, versioned JSON wire
  protocol (``hello`` handshake, route/stats/shutdown/error frames) that lets
  a shard live outside this process;
* :mod:`repro.cluster.procworker` -- multi-process shard workers: the
  ``python -m repro.cluster.procworker`` child loop and the
  :class:`ProcShardWorker` proxy with spawn / health-check / kill-and-respawn
  lifecycle management (select with ``ClusterConfig(worker_backend="subprocess")``).
"""

from repro.cluster.checkpoint import (
    CLUSTER_FORMAT,
    CLUSTER_VERSION,
    load_cluster,
    load_cluster_manifest,
    save_cluster,
)
from repro.cluster.dispatcher import (
    ClusterDispatcher,
    ClusterError,
    ShardTimeoutError,
)
from repro.cluster.partition import (
    PARTITION_STRATEGIES,
    ShardAssignment,
    database_affinity,
    partition_catalog,
)
from repro.cluster.rebalance import ClusterRebalancer, RebalanceError
from repro.cluster.replica import ReplicaSet
from repro.cluster.service import WORKER_BACKENDS, ClusterConfig, ClusterRoutingService
from repro.cluster.shard import ShardWorker, project_router, slice_target_vocabulary
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    TRACE_PROTOCOL_VERSION,
    FrameReader,
    FrameTooLargeError,
    FrameWriter,
    ProtocolError,
    TransportTimeoutError,
    TruncatedFrameError,
    UnknownMessageError,
    VersionMismatchError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.cluster.wave import ClusterWaveEngine

# Lazy (PEP 562): the worker child process runs ``python -m
# repro.cluster.procworker``, and an eager import here would mean runpy
# re-executes a module that the package import already created (the
# "found in sys.modules" RuntimeWarning on every spawn).
_PROCWORKER_EXPORTS = ("ProcShardWorker", "WorkerCrashedError", "WorkerError")


def __getattr__(name: str):
    if name in _PROCWORKER_EXPORTS:
        from repro.cluster import procworker

        return getattr(procworker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CLUSTER_FORMAT",
    "CLUSTER_VERSION",
    "load_cluster",
    "load_cluster_manifest",
    "save_cluster",
    "ClusterDispatcher",
    "ClusterError",
    "ShardTimeoutError",
    "PARTITION_STRATEGIES",
    "ShardAssignment",
    "database_affinity",
    "partition_catalog",
    "ClusterRebalancer",
    "RebalanceError",
    "ReplicaSet",
    "ClusterConfig",
    "ClusterRoutingService",
    "ShardWorker",
    "project_router",
    "slice_target_vocabulary",
    "ClusterWaveEngine",
    "ProcShardWorker",
    "WorkerCrashedError",
    "WorkerError",
    "WORKER_BACKENDS",
    "MAX_FRAME_BYTES",
    "MIN_PROTOCOL_VERSION",
    "PROTOCOL_VERSION",
    "TRACE_PROTOCOL_VERSION",
    "FrameReader",
    "FrameTooLargeError",
    "FrameWriter",
    "ProtocolError",
    "TransportTimeoutError",
    "TruncatedFrameError",
    "UnknownMessageError",
    "VersionMismatchError",
    "encode_frame",
    "read_frame",
    "write_frame",
]
