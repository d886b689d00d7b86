"""Cluster subsystem: sharded scatter-gather routing over partitioned catalogs.

:mod:`repro.serving` makes the router a persistent, cached *service*; this
package makes it a *cluster*.  The catalog is partitioned into shards (packed
by table count); each shard runs a projection of the trained router -- same
model, sub-graph constraint, a search derived from the master's; a dispatcher
scatter-gathers every request across the shards and merges the candidates
into one deterministic top-k, and a :class:`repro.serving.RoutingService`
front over the dispatcher holds the fleet's one route cache:

* :mod:`repro.cluster.partition` -- the deterministic size-balanced catalog
  partitioner and the :class:`ShardAssignment` layout;
* :mod:`repro.cluster.shard` -- router projection, the one rule of a shard's
  search (:func:`~repro.cluster.shard.shard_search`) and the per-shard worker;
* :mod:`repro.cluster.dispatcher` -- scatter-gather (the wave engine for an
  inproc fleet; over subprocess workers, every frame sent and every reply
  awaited on the calling thread) and deterministic score-merged top-k;
* :mod:`repro.cluster.replica` -- N-way replication of subprocess workers,
  round-robin selection, failover with quarantine;
* :mod:`repro.cluster.rebalance` -- live add/remove/move of databases, each
  re-projecting only the shards it touches;
* :mod:`repro.cluster.wave` -- dense wave decode: the whole inproc fleet's
  distinct live prefixes stacked into one kernel stream per step over the
  master's one model, each row under its own shard's constraint;
* :mod:`repro.cluster.service` -- :class:`ClusterRoutingService`: a
  ``RoutingService`` front whose decoder is the dispatcher, plus cluster-wide
  metrics;
* :mod:`repro.cluster.checkpoint` -- whole-cluster save/load (the master
  router + ``cluster.json``, every shard projected from it) for identical
  restarts;
* :mod:`repro.cluster.transport` -- the length-prefixed JSON wire protocol
  (``hello`` version-equality handshake, route/stats/shutdown/error frames,
  routes as JSON rows) that lets a shard live outside this process;
* :mod:`repro.cluster.procworker` -- multi-process shard workers: the
  ``python -m repro.cluster.procworker`` child loop and the
  :class:`ProcShardWorker` proxy with spawn / health-check / kill-and-respawn
  lifecycle management (select with ``ClusterConfig(worker_backend="subprocess")``).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CLUSTER_FORMAT": "repro.cluster.checkpoint",
    "CLUSTER_VERSION": "repro.cluster.checkpoint",
    "load_cluster": "repro.cluster.checkpoint",
    "load_cluster_manifest": "repro.cluster.checkpoint",
    "save_cluster": "repro.cluster.checkpoint",
    "ClusterDispatcher": "repro.cluster.dispatcher",
    "ClusterError": "repro.cluster.dispatcher",
    "ShardTimeoutError": "repro.cluster.dispatcher",
    "ShardAssignment": "repro.cluster.partition",
    "partition_catalog": "repro.cluster.partition",
    "ClusterRebalancer": "repro.cluster.rebalance",
    "RebalanceError": "repro.cluster.rebalance",
    "ReplicaSet": "repro.cluster.replica",
    "ClusterConfig": "repro.cluster.service",
    "ClusterRoutingService": "repro.cluster.service",
    "ShardWorker": "repro.cluster.shard",
    "project_router": "repro.cluster.shard",
    "ClusterWaveEngine": "repro.cluster.wave",
    "ProcShardWorker": "repro.cluster.procworker",
    "WorkerCrashedError": "repro.cluster.procworker",
    "WorkerError": "repro.cluster.procworker",
    "WORKER_BACKENDS": "repro.cluster.service",
    "MAX_FRAME_BYTES": "repro.cluster.transport",
    "PROTOCOL_VERSION": "repro.cluster.transport",
    "FrameReader": "repro.cluster.transport",
    "FrameTooLargeError": "repro.cluster.transport",
    "FrameWriter": "repro.cluster.transport",
    "ProtocolError": "repro.cluster.transport",
    "TransportTimeoutError": "repro.cluster.transport",
    "TruncatedFrameError": "repro.cluster.transport",
    "UnknownMessageError": "repro.cluster.transport",
    "VersionMismatchError": "repro.cluster.transport",
    "encode_frame": "repro.cluster.transport",
    "read_frame": "repro.cluster.transport",
    "write_frame": "repro.cluster.transport",
})
