"""Cluster scaling: 4-shard scatter-gather vs single-shard serving.

Both sides serve the *same* spider-like catalog from checkpoint-loaded
weights and are driven with the same seeded Zipf workload in submit_many
waves.  Historically the cluster won even on a single core because each
shard ran a quarter of the monolithic beam budget over its own partition;
the batched decode engine erased that advantage twice over -- the monolith
advances a whole wave in stacked kernel calls (PR 4), and only the distinct
live prefixes of its wide beam, so most of the budget the shards save is
budget the monolith no longer pays for.  On a single core the cluster's
throughput against the monolith is therefore a *recorded* ratio between
twins, not a gate; the absolute figures for both live in the
``benchmarks/e2e`` rows, and the scaling story is real cores via the
subprocess backend.

``--backend subprocess`` (a pytest option from ``benchmarks/conftest.py``)
runs the throughput cluster on multi-process shard workers driven over the
:mod:`repro.cluster.transport` wire protocol instead of inproc shards (which
decode as one stacked wave in this interpreter);
``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke lanes.
Asserted properties:

* **fidelity** -- the (inproc) cluster's merged top-1 database matches the
  monolithic router's on >= 95% of the seeded workload (measured on the
  checkpoint-booted, cache-enabled ``spider_cluster`` fixture);
* **backend fidelity** -- with ``--backend subprocess``, the subprocess
  cluster's top-1 matches the inproc cluster's on >= 95% of the workload
  (scores cross the wire as raw float64, so in practice it is exact);
* **throughput** (recorded, never gated) -- on cache-disabled twins (so the
  decode path is what is measured), cluster routes/sec over single-shard
  routes/sec is ``speedup`` in the summary, for every backend and mode.  Both
  sides are measured ``MEASURE_ROUNDS`` times, interleaved, and reported at
  their best round, so background interference on a shared smoke core
  cannot sink one side of the ratio.
* **wave decode** -- every inproc fleet decodes a scatter wave
  as one stacked kernel stream instead of one call per shard, so
  the default inproc run above already measures it.  Wave identity is a
  tier-1 test (``tests/test_wave_decode.py``).

A one-line ``CLUSTER_SUMMARY {...}`` JSON is printed for CI scraping, like
``bench_serving_throughput``'s ``SERVING_SUMMARY``.
"""

from __future__ import annotations

import json
import os

from repro.cluster import ClusterConfig, ClusterRoutingService, load_cluster, save_cluster
from repro.serving import LoadGenerator, RoutingService, ServingConfig, WorkloadConfig
from repro.utils.tables import ResultTable

#: Zipf-skewed request stream over the full question pool (hot-shard shape).
WORKLOAD = WorkloadConfig(
    num_requests=int(os.environ.get("REPRO_BENCH_REQUESTS", "200")),
    distribution="zipf", skew=1.0, seed=29)
WAVE_SIZE = 16
#: Interleaved measurement rounds per side; each side is gated on its best
#: round.  Smoke runners share one core with background processes, so a
#: single-shot measurement of either side can be 30%+ slow -- interleaving
#: spreads the interference across both sides and best-of picks the
#: least-disturbed round (the standard minimum-time estimator).
MEASURE_ROUNDS = 3


def test_cluster_scaling(benchmark, spider_context, spider_cluster, cluster_backend,
                         tmp_path):
    master = spider_cluster.master_router
    questions = [example.question for example in spider_context.test_examples()[:40]]
    generator = LoadGenerator(questions, WORKLOAD)
    workload = generator.workload()
    distinct = list(dict.fromkeys(workload))

    # Fidelity: merged top-1 vs the monolithic router, weighted by how often
    # each question occurs in the workload.
    monolithic = dict(zip(distinct, master.route_batch(distinct, max_candidates=1)))
    clustered = dict(zip(distinct, spider_cluster.submit_many(distinct,
                                                              max_candidates=1)))
    agreements = sum(
        1 for question in workload
        if monolithic[question] and clustered[question]
        and monolithic[question][0].database == clustered[question][0].database
    )
    agreement_rate = agreements / len(workload)

    # Throughput: identical Zipf waves through cache-free twins, so repeats
    # decode every time on both sides and routes/sec measures routing itself.
    single = RoutingService(master, ServingConfig(enable_cache=False))
    cluster = ClusterRoutingService.from_router(
        master, ClusterConfig(num_shards=4, enable_cache=False,
                              worker_backend=cluster_backend))
    if cluster_backend == "inproc":
        # Measure the deployed path: subprocess fleets already boot from a
        # checkpoint inside from_router, inproc ones are rebooted from one.
        with cluster:
            save_cluster(cluster, tmp_path / "cluster-ckpt")
        cluster = load_cluster(tmp_path / "cluster-ckpt")
    backend_agreement_rate = None
    with single, cluster:
        if cluster_backend == "subprocess":
            # Backend fidelity: the same questions through the wire protocol
            # must reproduce the inproc cluster's routing decisions.
            over_wire = dict(zip(distinct, cluster.submit_many(distinct,
                                                               max_candidates=1)))
            backend_agreements = sum(
                1 for question in workload
                if clustered[question] and over_wire[question]
                and clustered[question][0].database == over_wire[question][0].database
            )
            backend_agreement_rate = backend_agreements / len(workload)
        single_report = generator.run_batched(single.submit_many,
                                              batch_size=WAVE_SIZE)
        cluster_report = benchmark.pedantic(
            lambda: generator.run_batched(cluster.submit_many,
                                          batch_size=WAVE_SIZE),
            rounds=1, iterations=1)
        for _ in range(MEASURE_ROUNDS - 1):
            contender = generator.run_batched(single.submit_many,
                                              batch_size=WAVE_SIZE)
            if contender.throughput_rps > single_report.throughput_rps:
                single_report = contender
            contender = generator.run_batched(cluster.submit_many,
                                              batch_size=WAVE_SIZE)
            if contender.throughput_rps > cluster_report.throughput_rps:
                cluster_report = contender
        cluster_stats = cluster.stats()
    fixture_stats = spider_cluster.stats()

    table = ResultTable(
        title="Cluster scaling: 4-shard scatter-gather vs single-shard serving",
        columns=["mode", "routes_per_sec", "p95_ms", "backend"],
    )
    table.add_row("single_shard", round(single_report.throughput_rps, 1),
                  single_report.latency["p95_ms"], "inproc")
    table.add_row("cluster_4_shards", round(cluster_report.throughput_rps, 1),
                  cluster_report.latency["p95_ms"], cluster_backend)
    print()
    print(table.render())

    summary = {
        "backend": cluster_backend,
        "workload_requests": cluster_report.num_requests,
        "distinct_questions": len(distinct),
        "num_shards": cluster_stats["num_shards"],
        "top1_agreement": round(agreement_rate, 4),
        "backend_top1_agreement": (round(backend_agreement_rate, 4)
                                   if backend_agreement_rate is not None else None),
        "single_shard_routes_per_sec": round(single_report.throughput_rps, 1),
        "cluster_routes_per_sec": round(cluster_report.throughput_rps, 1),
        "speedup": round(cluster_report.throughput_rps / single_report.throughput_rps, 2),
        "fixture_cache_hit_rate": fixture_stats["cache_hit_rate"],
        "p95_latency_ms": cluster_report.latency["p95_ms"],
        "escalations": cluster_stats["dispatcher"]["escalations"],
        "shard_failures": cluster_stats["dispatcher"]["shard_failures"],
        "shards_timed_out": cluster_stats["dispatcher"]["shards_timed_out"],
        "errors": cluster_report.errors,
    }
    print("CLUSTER_SUMMARY " + json.dumps(summary, sort_keys=True))

    assert cluster_report.errors == 0
    assert cluster_stats["dispatcher"]["shard_failures"] == 0
    # Fidelity bar: sharded decoding must reproduce the monolithic routing
    # decision on >= 95% of the seeded workload.
    assert agreement_rate >= 0.95, summary
    if cluster_backend == "subprocess":
        # Backend fidelity bar: the wire protocol must not change answers.
        assert backend_agreement_rate >= 0.95, summary

