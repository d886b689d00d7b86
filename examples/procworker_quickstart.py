"""Multi-process cluster quickstart: checkpoint -> subprocess shards -> serve.

Run with ``python examples/procworker_quickstart.py``.  This is the
process-isolation half of the cluster story: a trained router is partitioned
and saved as a cluster checkpoint (``cluster.json`` plus the ``master/``
router), then booted with ``ClusterConfig(worker_backend="subprocess")`` so
each shard decodes in its own ``repro.cluster.procworker`` process -- which
loads the master and projects its shard -- driven over the length-prefixed
wire protocol.  A seeded Zipf workload flows through, one worker is killed
mid-run to show kill-and-respawn, and the cluster shuts down gracefully.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterRoutingService, load_cluster, save_cluster
from repro.core import DBCopilot, DBCopilotConfig, RouterConfig, SynthesisConfig
from repro.datasets import build_spider_like
from repro.serving import LoadGenerator, WorkloadConfig


def main() -> None:
    print("1. Build: training the DBCopilot schema router ...")
    dataset = build_spider_like()
    copilot = DBCopilot.build(
        dataset.catalog, dataset.instances,
        config=DBCopilotConfig(
            router=RouterConfig(epochs=10, beam_groups=5),
            synthesis=SynthesisConfig(num_samples=2500),
        ),
    )
    router = copilot.router

    with tempfile.TemporaryDirectory() as scratch:
        print("\n2. Checkpoint: partitioning into 2 shards and saving ...")
        built = ClusterRoutingService.from_router(
            router, ClusterConfig(num_shards=2))
        checkpoint = save_cluster(built, Path(scratch) / "cluster-ckpt")
        built.close()
        # Two artifacts: cluster.json (config, assignment) and the master
        # router; every worker loads master/ and projects its own shard.
        for artifact in sorted(checkpoint.iterdir()):
            print(f"   {artifact.name}{'/' if artifact.is_dir() else ''}")

        print("\n3. Spawn: booting the checkpoint on subprocess workers ...")
        config = ClusterConfig(num_shards=2, worker_backend="subprocess")
        with load_cluster(checkpoint, config=config) as cluster:
            workers = [worker for replica_set in cluster.shards
                       for worker in replica_set.workers]
            for worker in workers:
                print(f"   shard {worker.shard_id}: pid {worker.pid}, "
                      f"{len(worker.databases)} databases, "
                      f"heartbeat {worker.ping() * 1000:.1f} ms")

            print("\n4. Serve: a seeded Zipf workload over the wire ...")
            questions = [example.question for example in dataset.test_examples[:30]]
            generator = LoadGenerator(questions, WorkloadConfig(
                num_requests=120, distribution="zipf", skew=1.0, seed=7))
            started = time.perf_counter()
            report = generator.run_batched(cluster.submit_many, batch_size=16)
            print(f"   {report.num_requests} requests, {report.errors} errors, "
                  f"{report.throughput_rps:.0f} routes/sec "
                  f"({time.perf_counter() - started:.2f}s wall)")
            question = questions[0]
            print(f"   Q: {question}")
            for route in cluster.submit(question, max_candidates=3):
                print(f"   -> <{route.database}, {route.tables}>  p={route.score:.3f}")

            print("\n5. Kill-and-respawn: losing a worker is survivable ...")
            victim = workers[0]
            before = cluster.submit(question, max_candidates=1)  # a front hit
            dead_pid = victim.pid
            victim.kill()
            print(f"   killed shard {victim.shard_id} (pid was not asked nicely)")
            # The front answers repeats without a scatter, so stale its cache
            # (a version bump: no worker is touched) to make the next ask
            # reach the dead worker, which respawns on that request.
            cluster.notify_catalog_changed()
            after = cluster.submit(question, max_candidates=1)
            print(f"   same answer after respawn: {after == before} "
                  f"(new pid {victim.pid}, respawns {victim.respawns})")
            assert after == before
            assert victim.respawns == 1 and victim.pid not in (None, dead_pid)

            stats = cluster.stats()
            print(f"\n6. Stats: backend={stats['worker_backend']}, "
                  f"front cache hit rate {stats['cache_hit_rate']}, "
                  f"dispatcher={stats['dispatcher']}")
            for shard in stats["shards"]:
                worker = shard["workers"][0]
                transport = worker["transport"]
                print(f"   shard {shard['shard_id']}: {len(worker['databases'])} "
                      f"databases, pid {transport['pid']}, "
                      f"frames {transport['requests_sent']}, "
                      f"respawns {transport['respawns']}")
        print("\n7. Closed: shutdown frames drained and every worker exited.")


if __name__ == "__main__":
    main()
