"""Cluster quickstart: build -> partition -> serve -> rebalance -> restart.

Run with ``python examples/cluster_quickstart.py``.  This is the scale-out
half of the serving story: one trained router, partitioned into shards that
each decode a slice of the catalog with a small beam budget, scatter-gathered
per question, with confidence-gated escalation, live rebalancing, and a
whole-cluster checkpoint that restarts identically.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.cluster import (
    ClusterConfig,
    ClusterRebalancer,
    ClusterRoutingService,
    load_cluster,
    save_cluster,
)
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
    print(f"   {router.num_parameters()} parameters over "
          f"{dataset.num_databases} databases / {dataset.num_tables} tables")

    print("\n2. Partition + serve: a 4-shard scatter-gather cluster ...")
    config = ClusterConfig(num_shards=4)
    with ClusterRoutingService.from_router(router, config) as cluster:
        for shard_id, databases in enumerate(cluster.assignment.shards):
            print(f"   shard {shard_id}: {len(databases)} databases "
                  f"({', '.join(databases[:3])}, ...)")
        question = dataset.test_examples[0].question
        print(f"   Q: {question}")
        for route in cluster.submit(question, max_candidates=3):
            print(f"   -> <{route.database}, {route.tables}>  p={route.score:.3f}")

        print("\n3. Throughput: the same Zipf workload, monolithic vs cluster ...")
        questions = [example.question for example in dataset.test_examples[:30]]
        generator = LoadGenerator(questions, WorkloadConfig(
            num_requests=120, distribution="zipf", skew=1.0, seed=7))
        workload = generator.workload()
        started = time.perf_counter()
        router.route_batch(workload)
        mono_rps = len(workload) / (time.perf_counter() - started)
        report = generator.run_batched(cluster.submit_many, batch_size=16)
        stats = cluster.stats()
        print(f"   monolithic: {mono_rps:.0f} routes/sec")
        print(f"   cluster:    {report.throughput_rps:.0f} routes/sec "
              f"({stats['dispatcher']['escalations']} escalations, "
              f"cache hit rate {stats['cache_hit_rate']})")

        print("\n4. Rebalance: moving a database between live shards ...")
        rebalancer = ClusterRebalancer(cluster)
        database = cluster.assignment.shards[0][0]
        rebalancer.move_database(database, 1)
        print(f"   {database}: shard 0 -> shard {cluster.shard_of(database)} "
              f"(catalog version {cluster.catalog_version}; only the touched "
              "shards were re-projected, and the front's cached answers staled)")
        routes = cluster.submit(question, max_candidates=1)
        print(f"   Q routes unchanged: <{routes[0].database}, {routes[0].tables}>")

        print("\n5. Checkpoint: save the whole cluster, restart it, compare ...")
        with tempfile.TemporaryDirectory() as scratch:
            path = save_cluster(cluster, Path(scratch) / "cluster-ckpt")
            for artifact in sorted(path.iterdir()):
                print(f"   {artifact.name}/")
            with load_cluster(path) as twin:
                same = twin.submit(question) == cluster.submit(question)
                print(f"   restarted cluster routes identically: {same}")


if __name__ == "__main__":
    main()
