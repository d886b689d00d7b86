"""Whole-cluster checkpoints: the master router plus the shard layout.

A cluster checkpoint is a directory::

    cluster-ckpt/
      cluster.json     # format/version, ClusterConfig, the shard assignment,
                       # the catalog version
      master/          # full router checkpoint (repro.serving.checkpoint)

No shard is saved: a shard is the master projected onto its databases
(:class:`~repro.cluster.shard.ShardWorker`, at the searches
:func:`~repro.cluster.shard.shard_search` gives), so both backends boot
every shard from the same bytes the same way.  An inproc fleet projects
from the master it loaded, sharing its model by reference, exactly as
``from_router`` does; a subprocess worker is handed the ``master/`` directory,
its databases, the shard count and whether the fleet has a careful tier on
its command line, and loads and projects for itself.  Loading reproduces the
cluster identically: same assignment, same per-shard configs, same weights,
hence identical routes.

Version 1 checkpoints also held a projected router copy per shard
(``shard-NN/``, named by a ``shards`` manifest entry); they load through the
same path, and those copies are never read.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

from repro.cluster.partition import ShardAssignment
from repro.cluster.replica import ReplicaSet
from repro.cluster.service import ClusterConfig, ClusterRoutingService, project_shards
from repro.core.router import SchemaRouter
from repro.serving.checkpoint import CheckpointError, load_router, save_router

CLUSTER_FORMAT = "repro-cluster-checkpoint"
CLUSTER_VERSION = 2
#: Every version this build loads: version 1 differs only by the per-shard
#: copies it carries, which are not read.
READABLE_VERSIONS = (1, CLUSTER_VERSION)

CLUSTER_MANIFEST_FILE = "cluster.json"
MASTER_DIR = "master"
#: Retired settings that shaped answers: the overrides of the derived beam
#: budgets and the default answer size.  Every manifest written with
#: defaults holds them as null; any other value set a budget this build no
#: longer honours, so it is refused rather than dropped.
_ANSWER_OVERRIDES = ("shard_num_beams", "shard_beam_groups", "escalation_num_beams",
                     "max_candidates")
#: ``ClusterConfig`` fields of earlier builds: an old manifest may still carry
#: them, and loading drops them (``strategy`` named the partitioner of the
#: saved assignment, which loads as written; ``cache_ttl_seconds`` aged front
#: cache entries, which never shaped an answer).
RETIRED_CONFIG_KEYS = frozenset({"wave_decode", "pipelined_transport",
                                 "sliced_vocabulary", "max_workers",
                                 "trace_exemplars", "strategy", "cache_ttl_seconds",
                                 *_ANSWER_OVERRIDES})


def write_cluster(path: str | Path, master: SchemaRouter, config: ClusterConfig,
                  assignment: ShardAssignment, catalog_version: int = 0) -> Path:
    """Write a cluster checkpoint: ``master/`` and ``cluster.json``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_router(master, path / MASTER_DIR)
    manifest = {
        "format": CLUSTER_FORMAT,
        "version": CLUSTER_VERSION,
        "config": asdict(config),
        "assignment": assignment.to_payload(),
        "catalog_version": catalog_version,
    }
    (path / CLUSTER_MANIFEST_FILE).write_text(json.dumps(manifest, indent=2,
                                                         sort_keys=True))
    return path


def save_cluster(cluster: ClusterRoutingService, path: str | Path) -> Path:
    """Write ``cluster`` (its master router and layout) to a checkpoint
    directory."""
    if cluster.master_router is None:
        raise CheckpointError("cannot checkpoint a cluster without its master router")
    return write_cluster(path, cluster.master_router, cluster.config,
                         cluster.assignment, cluster.catalog_version)


def load_cluster_manifest(path: str | Path) -> dict:
    """Read and validate the cluster manifest of a checkpoint directory."""
    manifest_path = Path(path) / CLUSTER_MANIFEST_FILE
    if not manifest_path.is_file():
        raise CheckpointError(f"no {CLUSTER_MANIFEST_FILE} in {Path(path)!s}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt cluster manifest in {Path(path)!s}: "
                              f"{error}") from error
    if manifest.get("format") != CLUSTER_FORMAT:
        raise CheckpointError(f"not a cluster checkpoint: {manifest.get('format')!r}")
    if manifest.get("version") not in READABLE_VERSIONS:
        raise CheckpointError(
            f"unsupported cluster checkpoint version {manifest.get('version')!r}"
            f" (this build reads versions {', '.join(map(str, READABLE_VERSIONS))})"
        )
    return manifest


def _spawn_proc_shards(master_dir: Path, assignment: ShardAssignment,
                       config: ClusterConfig) -> list[ReplicaSet]:
    """Boot every subprocess replica of every shard, concurrently.

    Each replica is its own ``repro.cluster.procworker`` process: it loads
    ``master_dir`` and projects its shard as its command line says, then is
    driven over the wire protocol.
    ``shard_timeout_seconds`` is each worker's own request deadline, whatever
    the replica count: the one timeout mechanism of a fleet.  Spawning is
    fanned out on a thread pool -- each child loads weights and handshakes on
    its own core, so an N-worker cluster boots in ~one worker's time, not N.
    On *any* failure (spawn, handshake, announced databases) every
    already-spawned worker is closed: a failed load must not leak orphan
    processes.
    """
    from repro.cluster.procworker import ProcShardWorker

    jobs = [(shard_id, databases) for shard_id, databases in enumerate(assignment.shards)
            for _ in range(config.replicas)]

    def boot(job: tuple[int, tuple[str, ...]]) -> "ProcShardWorker":
        shard_id, databases = job
        return ProcShardWorker(
            shard_id, master_dir, databases, num_shards=assignment.num_shards,
            careful_tier=config.escalation_threshold is not None,
            request_timeout_seconds=config.shard_timeout_seconds,
        )

    spawned: list[ProcShardWorker] = []
    failure: BaseException | None = None
    with ThreadPoolExecutor(max_workers=min(len(jobs), 8),
                            thread_name_prefix="repro-cluster-spawn") as pool:
        for future in [pool.submit(boot, job) for job in jobs]:
            try:
                spawned.append(future.result())
            except BaseException as error:  # noqa: BLE001 - cleanup then re-raise
                if failure is None:
                    failure = error
    try:
        if failure is not None:
            raise failure
        for worker, (shard_id, databases) in zip(spawned, jobs):
            if sorted(worker.databases) != sorted(databases):
                raise CheckpointError(
                    f"shard {shard_id} worker announced "
                    f"{sorted(worker.databases)} but the manifest assigns "
                    f"{list(databases)}"
                )
    except BaseException:
        for worker in spawned:
            worker.close()
        raise
    replicas_of: dict[int, list[ProcShardWorker]] = {}
    for worker in spawned:
        replicas_of.setdefault(worker.shard_id, []).append(worker)
    return [ReplicaSet(shard_id, replicas_of[shard_id],
                       quarantine_seconds=config.quarantine_seconds)
            for shard_id in range(assignment.num_shards)]


def _saved_config(payload: dict) -> ClusterConfig:
    """The manifest's ``ClusterConfig``, tolerant of keys this build retired."""
    known = {field.name for field in fields(ClusterConfig)}
    unknown = sorted(set(payload) - known - RETIRED_CONFIG_KEYS)
    if unknown:
        raise CheckpointError(f"cluster manifest config has unknown key(s) "
                              f"{', '.join(map(repr, unknown))}")
    for key in _ANSWER_OVERRIDES:
        if payload.get(key) is not None:
            raise CheckpointError(
                f"cluster manifest config sets the retired {key}="
                f"{payload[key]!r}: this build derives it from the master "
                f"router and the shard count")
    try:
        return ClusterConfig(**{key: value for key, value in payload.items()
                                if key in known})
    except (TypeError, ValueError) as error:
        raise CheckpointError(f"invalid cluster manifest config: {error}") from error


def load_cluster(path: str | Path,
                 config: ClusterConfig | None = None) -> ClusterRoutingService:
    """Rebuild a :class:`ClusterRoutingService` from a checkpoint directory.

    ``config`` overrides the saved *serving* knobs (backend, front cache, and
    for a subprocess fleet timeouts, replicas and partial gathers); everything
    that affects routing decisions -- the assignment, the escalation
    threshold, and through them and the master the shards' searches -- always
    comes from the checkpoint so a restarted cluster routes identically.
    """
    path = Path(path)
    manifest = load_cluster_manifest(path)
    saved_config = _saved_config(manifest["config"])
    assignment = ShardAssignment.from_payload(manifest["assignment"])
    if config is None:
        config = saved_config
    else:
        config = replace(config, escalation_threshold=saved_config.escalation_threshold)
    if config.num_shards != assignment.num_shards:
        config = replace(config, num_shards=assignment.num_shards)
    master = load_router(path / MASTER_DIR)
    unknown = sorted(set(assignment.database_names)
                     - set(master.graph.catalog.database_names))
    if unknown:
        raise CheckpointError(f"the assignment names database(s) {unknown} "
                              f"that the {MASTER_DIR}/ router lacks")
    if config.worker_backend == "subprocess":
        shards = _spawn_proc_shards(path / MASTER_DIR, assignment, config)
    else:
        shards = project_shards(master, assignment, config)
    return ClusterRoutingService(shards, assignment, config=config,
                                 master_router=master,
                                 catalog_version=manifest.get("catalog_version", 0))
