"""Whole-cluster checkpoints: shard manifest + per-shard router checkpoints.

A cluster checkpoint is a directory::

    cluster-ckpt/
      cluster.json     # format/version, ClusterConfig, the shard assignment
      master/          # full router checkpoint (rebalancing universe)
      shard-00/        # per-shard projected-router checkpoints
      shard-01/
      ...

Each shard directory is an ordinary :mod:`repro.serving.checkpoint` router
checkpoint of that shard's *projected* router (sub-catalog, shard beam
budget), so a shard can also be booted standalone with
``SchemaRouter.from_checkpoint`` -- which is what subprocess workers do.
Loading the whole directory reproduces the cluster identically: same
assignment, same per-shard configs, bit-identical weights, hence identical
routes.  An inproc fleet reads the master once and re-projects its shards from
it (trunk shared by reference, exactly as ``from_router`` builds them) after
verifying that every shard directory holds that same projection by content.
"""

from __future__ import annotations

import json
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

from repro.cluster.partition import ShardAssignment
from repro.cluster.replica import ReplicaSet
from repro.cluster.service import ClusterConfig, ClusterRoutingService
from repro.cluster.shard import ShardWorker
from repro.core.router import SchemaRouter
from repro.serving.checkpoint import (
    CheckpointError,
    load_manifest,
    load_router,
    save_router,
    verify_router_checkpoint,
)

CLUSTER_FORMAT = "repro-cluster-checkpoint"
CLUSTER_VERSION = 1

CLUSTER_MANIFEST_FILE = "cluster.json"
MASTER_DIR = "master"
#: ``ClusterConfig`` fields of earlier builds: an old manifest may still carry
#: them, and loading drops them (``sliced_vocabulary`` only while false).
RETIRED_CONFIG_KEYS = frozenset({"wave_decode", "pipelined_transport",
                                 "sliced_vocabulary"})


def _shard_dir(shard_id: int) -> str:
    return f"shard-{shard_id:02d}"


def save_cluster(cluster: ClusterRoutingService, path: str | Path) -> Path:
    """Write ``cluster`` (layout + routers) to a checkpoint directory."""
    if cluster.master_router is None:
        raise CheckpointError("cannot checkpoint a cluster without its master router")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_router(cluster.master_router, path / MASTER_DIR)
    shard_entries = []
    for replica_set in cluster.shards:
        shard_id = replica_set.shard_id
        directory = _shard_dir(shard_id)
        # Replicas are interchangeable projections of the same model; one
        # checkpoint per shard reproduces all of them.
        worker = replica_set.workers[0]
        if hasattr(worker, "router"):
            save_router(worker.router, path / directory)
        else:
            # Subprocess workers have no in-memory router: their projected
            # router already lives in the checkpoint directory they were
            # booted from, so saving is a directory copy.
            if worker.checkpoint_dir is None:
                raise CheckpointError(
                    f"shard {shard_id} worker has no checkpoint directory to copy")
            source = Path(worker.checkpoint_dir).resolve()
            target = (path / directory).resolve()
            if source != target:
                shutil.copytree(source, target, dirs_exist_ok=True)
        shard_entries.append({
            "shard_id": shard_id,
            "databases": list(replica_set.databases),
            "dir": directory,
        })
    manifest = {
        "format": CLUSTER_FORMAT,
        "version": CLUSTER_VERSION,
        "config": asdict(cluster.config),
        "assignment": cluster.assignment.to_payload(),
        "catalog_version": cluster.catalog_version,
        "shards": shard_entries,
    }
    (path / CLUSTER_MANIFEST_FILE).write_text(json.dumps(manifest, indent=2,
                                                         sort_keys=True))
    return path


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
    if manifest.get("version") != CLUSTER_VERSION:
        raise CheckpointError(
            f"unsupported cluster checkpoint version {manifest.get('version')!r}"
            f" (this build reads version {CLUSTER_VERSION})"
        )
    return manifest


def _spawn_proc_shards(path: Path, entries: list[dict], config: ClusterConfig,
                       master: SchemaRouter) -> list[ReplicaSet]:
    """Boot every subprocess replica of every shard, concurrently.

    Each replica is its own ``repro.cluster.procworker`` process, booted from
    the shard directory and driven over the wire protocol; the shard
    checkpoint already carries the projected sub-catalog and beam budget, so
    only serving knobs travel on the command line.  ``shard_timeout_seconds``
    is each worker's own request deadline, whatever the replica count: the
    one timeout mechanism of a fleet.  Spawning is fanned out on
    a thread pool -- each child loads weights and handshakes on its own core,
    so an N-worker cluster boots in ~one worker's time, not N.  On *any*
    failure (spawn, handshake, manifest mismatch) every already-spawned
    worker is closed: a failed load must not leak orphan processes.
    """
    from repro.cluster.procworker import ProcShardWorker

    jobs = [entry for entry in entries for _ in range(config.replicas)]

    def boot(entry: dict) -> "ProcShardWorker":
        return ProcShardWorker(
            entry["shard_id"], path / entry["dir"],
            escalation_num_beams=config.escalation_beams_for(master),
            enable_cache=config.enable_cache,
            cache_size=config.cache_size,
            cache_ttl_seconds=config.cache_ttl_seconds,
            request_timeout_seconds=config.shard_timeout_seconds,
        )

    spawned: list[ProcShardWorker] = []
    failure: BaseException | None = None
    with ThreadPoolExecutor(max_workers=min(len(jobs), 8),
                            thread_name_prefix="repro-cluster-spawn") as pool:
        for future in [pool.submit(boot, entry) for entry in jobs]:
            try:
                spawned.append(future.result())
            except BaseException as error:  # noqa: BLE001 - cleanup then re-raise
                if failure is None:
                    failure = error
    try:
        if failure is not None:
            raise failure
        for worker, entry in zip(spawned, jobs):
            if sorted(worker.databases) != sorted(entry["databases"]):
                raise CheckpointError(
                    f"shard {entry['shard_id']} worker announced "
                    f"{sorted(worker.databases)} but the manifest assigns "
                    f"{entry['databases']}"
                )
    except BaseException:
        for worker in spawned:
            worker.close()
        raise
    replicas_of: dict[int, list[ProcShardWorker]] = {}
    for worker in spawned:
        replicas_of.setdefault(worker.shard_id, []).append(worker)
    return [ReplicaSet(entry["shard_id"], replicas_of[entry["shard_id"]],
                       quarantine_seconds=config.quarantine_seconds)
            for entry in entries]


def _project_inproc_worker(shard_path: Path, entry: dict, config: ClusterConfig,
                           master: SchemaRouter) -> ShardWorker:
    """One shard's inproc worker, projected from ``master``.

    The worker serves the same objects ``from_router`` hands out -- the
    master's model and vocabularies by reference -- so a loaded fleet decodes
    as one wave.
    The shard directory is not loaded but *verified*: its contents must equal
    the projection it is replaced by.
    """
    saved = load_manifest(shard_path)
    try:
        worker = ShardWorker.from_projection(
            entry["shard_id"], tuple(entry["databases"]), master,
            serving_config=config.serving_config(),
            num_beams=saved["router_config"]["num_beams"],
            beam_groups=saved["router_config"]["beam_groups"],
            escalation_num_beams=config.escalation_beams_for(master),
            checkpoint_dir=shard_path)
    except (KeyError, ValueError) as error:
        raise CheckpointError(f"shard {entry['shard_id']} checkpoint is not a "
                              f"projection of the master: {error}") from error
    verify_router_checkpoint(shard_path, worker.router)
    return worker


def _saved_config(payload: dict) -> ClusterConfig:
    """The manifest's ``ClusterConfig``, tolerant of keys this build retired.

    A fleet saved with ``sliced_vocabulary`` on holds shard routers whose
    scores are normalised over their own slice of the vocabulary: it is
    refused here, before any worker spawns, never served uncalibrated."""
    if payload.get("sliced_vocabulary"):
        raise CheckpointError(
            f"cluster manifest config has sliced_vocabulary=true, which this "
            f"build no longer serves; re-save the cluster from its "
            f"{MASTER_DIR}/ router")
    known = {field.name for field in fields(ClusterConfig)}
    unknown = sorted(set(payload) - known - RETIRED_CONFIG_KEYS)
    if unknown:
        raise CheckpointError(f"cluster manifest config has unknown key(s) "
                              f"{', '.join(map(repr, unknown))}")
    try:
        return ClusterConfig(**{key: value for key, value in payload.items()
                                if key in known})
    except (TypeError, ValueError) as error:
        raise CheckpointError(f"invalid cluster manifest config: {error}") from error


def load_cluster(path: str | Path,
                 config: ClusterConfig | None = None) -> ClusterRoutingService:
    """Rebuild a :class:`ClusterRoutingService` from a checkpoint directory.

    ``config`` overrides the saved *serving* knobs (backend, cache sizes, and
    for a subprocess fleet timeouts, replicas and partial gathers); everything
    that affects routing decisions --
    assignment, shard/escalation beam budgets, the escalation threshold --
    always comes from the checkpoint so a restarted cluster routes
    identically.
    """
    path = Path(path)
    manifest = load_cluster_manifest(path)
    saved_config = _saved_config(manifest["config"])
    assignment = ShardAssignment.from_payload(manifest["assignment"])
    if config is None:
        config = saved_config
    else:
        config = replace(config,
                         strategy=saved_config.strategy,
                         shard_num_beams=saved_config.shard_num_beams,
                         shard_beam_groups=saved_config.shard_beam_groups,
                         escalation_threshold=saved_config.escalation_threshold,
                         escalation_num_beams=saved_config.escalation_num_beams)
    if config.num_shards != assignment.num_shards:
        config = replace(config, num_shards=assignment.num_shards)
    master = load_router(path / MASTER_DIR)
    entries = sorted(manifest["shards"], key=lambda item: item["shard_id"])
    if config.worker_backend == "subprocess":
        shards = _spawn_proc_shards(path, entries, config, master)
    else:
        shards = [
            ReplicaSet(entry["shard_id"],
                       [_project_inproc_worker(path / entry["dir"], entry,
                                               config, master)],
                       quarantine_seconds=config.quarantine_seconds)
            for entry in entries
        ]
    if len(shards) != assignment.num_shards:
        raise CheckpointError(f"cluster manifest lists {len(shards)} shards but "
                              f"the assignment has {assignment.num_shards}")
    return ClusterRoutingService(shards, assignment, config=config,
                                 master_router=master,
                                 catalog_version=manifest.get("catalog_version", 0))
