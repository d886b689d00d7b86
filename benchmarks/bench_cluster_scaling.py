"""Cluster scaling: 4-shard scatter-gather vs single-shard serving.

Both sides serve the *same* spider-like catalog from checkpoint-loaded
weights and are driven with the same seeded Zipf workload in submit_many
waves.  Historically the cluster won even on a single core because each
shard ran a quarter of the monolithic beam budget over its own partition;
the batched decode engine erased that advantage twice over -- the monolith
advances a whole wave in stacked kernel calls (PR 4), and only the distinct
live prefixes of its wide beam, so most of the budget the shards save is
budget the monolith no longer pays for.  On a single core the cluster's
throughput against the monolith is therefore a *recorded* ratio between twins
(ROADMAP item 2c), not a gate; the absolute figures for both live in the
``benchmarks/e2e`` rows, and the scaling story is real cores via the
subprocess backend.

``--backend subprocess`` (a pytest option from ``benchmarks/conftest.py``)
runs the throughput cluster on multi-process shard workers driven over the
:mod:`repro.cluster.transport` wire protocol instead of in-process threads;
``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke lanes.
Asserted properties:

* **fidelity** -- the (inproc) cluster's merged top-1 database matches the
  monolithic router's on >= 95% of the seeded workload (measured on the
  checkpoint-booted, cache-enabled ``spider_cluster`` fixture);
* **backend fidelity** -- with ``--backend subprocess``, the subprocess
  cluster's top-1 matches the inproc cluster's on >= 95% of the workload
  (scores cross the wire as hex floats, so in practice it is exact);
* **throughput** (recorded, never gated) -- on cache-disabled twins (so the
  decode path is what is measured), cluster routes/sec over single-shard
  routes/sec is ``speedup`` in the summary, for every backend and mode.  Both
  sides are measured ``MEASURE_ROUNDS`` times, interleaved, and reported at
  their best round, so background interference on a shared smoke core
  cannot sink one side of the ratio.
* **wave decode** -- every unreplicated inproc fleet decodes a scatter wave
  as one stacked kernel stream instead of one thread-pool call per shard, so
  the default inproc run above already measures it, in the exact kernel's
  numerics.  With ``--wave-decode`` (inproc only) the throughput cluster is
  the throughput tier of that path: a ``decode_backend="fast"`` master (the
  wave kernel then runs flat GEMMs, under that backend's tolerance
  contract) over shard-sliced vocabularies, booted the way a deployment
  boots (``save_cluster`` -> ``load_cluster``, like every other fleet
  here).  It must report ``stats()["wave"]["enabled"]`` and hold >= 0.99
  top-1 agreement with the vectorized monolith.

``--pipelined`` (with ``--backend subprocess``) adds a second benchmark,
:func:`test_pipelined_transport`: concurrent Zipf waves through two
subprocess clusters built from the same master -- the multiplexed protocol-3
transport (binary score payloads, many frames in flight per worker) against
its serial protocol-2 twin (``pipelined_transport=False``: hex-float JSON,
one frame in flight, the faithful pre-multiplexing transport).  Both serve
cache-hot, and the cascade answers every measured escalation from the
dispatcher's memory of the warm-up (careful frames fly during warm-up only),
so what is measured is the fast tier's wire under ten concurrent waves; the
pipelined side is gated at >= 1.3x routes/sec at
*bit-exact* top-1 agreement, and a ``TRANSPORT_SUMMARY {...}`` line records
frames/sec, bytes/route, and the in-flight depth p95 for CI scraping.

A one-line ``CLUSTER_SUMMARY {...}`` JSON is printed for CI scraping, like
``bench_serving_throughput``'s ``SERVING_SUMMARY``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster import ClusterConfig, ClusterRoutingService, load_cluster, save_cluster
from repro.core.router import SchemaRouter
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
                         wave_decode, tmp_path):
    if wave_decode and cluster_backend != "inproc":
        import pytest

        pytest.skip("wave decode requires the inproc backend (subprocess "
                    "workers scatter through the pool)")
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
    single = RoutingService(master, ServingConfig(enable_cache=False,
                                                  enable_batching=False))
    fleet_master = master
    if wave_decode:
        # The same weights under the fast backend: shards inherit it, and
        # the wave kernel of a "fast" fleet runs flat GEMMs.
        fleet_master = SchemaRouter(
            graph=master.graph, config=master.config.ablated(decode_backend="fast"))
        fleet_master.restore(master.model, master.source_vocabulary,
                             master.target_vocabulary, master.training_losses)
    cluster = ClusterRoutingService.from_router(
        fleet_master, ClusterConfig(num_shards=4, strategy="size_balanced",
                              enable_cache=False,
                              worker_backend=cluster_backend,
                              sliced_vocabulary=wave_decode))
    if cluster_backend == "inproc":
        # Measure the deployed path: subprocess fleets already boot from a
        # checkpoint inside from_router, inproc ones are rebooted from one.
        with cluster:
            save_cluster(cluster, tmp_path / "cluster-ckpt")
        cluster = load_cluster(tmp_path / "cluster-ckpt")
    backend_agreement_rate = None
    wave_agreement_rate = None
    with single, cluster:
        if wave_decode:
            assert cluster.stats()["wave"]["enabled"], cluster.stats()["wave"]
            # Wave fidelity: the wave cluster's merged top-1 vs the monolith.
            wave_routes = dict(zip(distinct, cluster.submit_many(distinct,
                                                                 max_candidates=1)))
            wave_agreements = sum(
                1 for question in workload
                if monolithic[question] and wave_routes[question]
                and monolithic[question][0].database == wave_routes[question][0].database
            )
            wave_agreement_rate = wave_agreements / len(workload)
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
                  cluster_report.latency["p95_ms"],
                  cluster_backend + ("+wave" if wave_decode else ""))
    print()
    print(table.render())

    summary = {
        "backend": cluster_backend,
        "wave_decode": wave_decode,
        "wave_top1_agreement": (round(wave_agreement_rate, 4)
                                if wave_agreement_rate is not None else None),
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
    elif wave_decode:
        # One stacked flat-GEMM kernel stream for the checkpoint-booted fleet,
        # shard-sliced output heads: near-perfect fidelity is the gate.
        assert wave_agreement_rate >= 0.99, summary


# -- pipelined vs serial transport ---------------------------------------------
#: Concurrent waves in flight while the transport comparison measures, so
#: every worker sees overlapping fast-tier frames -- the shape multiplexing
#: exists for.  (Threshold 1.0 judges every question needy on every wave, but
#: the dispatcher remembers the warm-up's merged careful answers: careful
#: frames interleave with fast ones during the warm-up only, and
#: ``escalations_remembered`` in the summary says so.)  Deeper than the
#: scaling bench's wave concurrency: the serial twin caps at one frame per
#: worker no matter how many waves push, so depth is what separates the twins.
PIPELINE_CONCURRENCY = 10
#: Wide waves so each route_response carries a meaningful score payload --
#: the serialization difference between the binary and hex-float-JSON forms
#: is where the single-core speedup comes from (on multi-core boxes the
#: overlap itself adds to it).  Fatter frames also amortize the per-frame
#: costs the twins share (framing, the executor hop), leaving the payload
#: encoding -- the thing being compared -- as a larger fraction of each
#: frame.
PIPELINE_WAVE_SIZE = 100
#: Candidates per question in the measured waves.  At the default (top-1)
#: each shard reply carries a single route per question and the framing
#: overhead -- identical on both sides -- swamps the payload encoding the
#: comparison exists to measure.
PIPELINE_MAX_CANDIDATES = 5
#: The careful tier runs the master's full beam budget (the fast tier runs
#: num_beams // num_shards): the warm-up's escalation pass is genuinely
#: heavier, and the merged answers the measured rounds return are its.
PIPELINE_CAREFUL_BEAMS = 10
#: Dispatcher pool threads; sized above PIPELINE_CONCURRENCY * shards so
#: scatter arms never queue on a pool slot and the transports see the full
#: concurrent depth.
PIPELINE_POOL = 12
#: The transport comparison drives its own, longer workload (the module
#: default is sized for the scaling fidelity gates): per-round noise on a
#: shared smoke core shrinks with round length, and this bench gates a ratio.
PIPELINE_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "400"))
#: Interleaved best-of rounds for the transport ratio (more than the scaling
#: bench's MEASURE_ROUNDS: the gate is a ratio of two measurements, so both
#: minima must converge before the ratio settles -- each side gets extra
#: shots at an undisturbed round).
PIPELINE_ROUNDS = 7


def _signature(route_lists):
    return [[(route.database, route.tables, route.score) for route in routes]
            for routes in route_lists]


def _drive_waves(cluster, waves) -> float:
    """Run ``waves`` through ``cluster`` concurrently; returns seconds taken."""
    with ThreadPoolExecutor(max_workers=PIPELINE_CONCURRENCY) as pool:
        started = time.perf_counter()
        for future in [pool.submit(cluster.submit_many, wave,
                                   max_candidates=PIPELINE_MAX_CANDIDATES)
                       for wave in waves]:
            future.result()
        return time.perf_counter() - started


def _worker_transports(cluster) -> list[dict]:
    stats = cluster.stats()
    return [worker["transport"]
            for shard in stats["shards"] for worker in shard["workers"]]


def _depth_p95(transports: list[dict]) -> int:
    """p95 of the in-flight depth distribution, merged across workers."""
    merged: dict[int, int] = {}
    for transport in transports:
        for depth, count in transport.get("in_flight_depths", {}).items():
            merged[int(depth)] = merged.get(int(depth), 0) + count
    total = sum(merged.values())
    if total == 0:
        return 0
    cumulative = 0
    for depth in sorted(merged):
        cumulative += merged[depth]
        if cumulative >= 0.95 * total:
            return depth
    return max(merged)


def test_pipelined_transport(benchmark, spider_context, cluster_backend, pipelined):
    """Multiplexed protocol-3 transport vs its serial protocol-2 twin.

    Cache-hot twins under concurrent waves: per-request decode cost is a
    dictionary lookup in the child and every escalation verdict is answered
    from the dispatcher's memory, so routes/sec measures the fast tier's
    transport itself -- framing, payload encoding, and how many frames a
    worker carries at once.  The pipelined side must answer bit-identically
    (same merged routes, same 64-bit scores) and >= 1.3x faster.
    """
    import pytest

    if not pipelined:
        pytest.skip("pass --pipelined to run the transport comparison")
    if cluster_backend != "subprocess":
        pytest.skip("the transport comparison needs --backend subprocess")

    master = spider_context.copilot.router
    questions = [example.question for example in spider_context.test_examples()[:40]]
    workload = LoadGenerator(questions, WorkloadConfig(
        num_requests=PIPELINE_REQUESTS, distribution="zipf",
        skew=1.0, seed=29)).workload()
    waves = [workload[index:index + PIPELINE_WAVE_SIZE]
             for index in range(0, len(workload), PIPELINE_WAVE_SIZE)]
    distinct = list(dict.fromkeys(workload))

    def build(pipelined_transport: bool) -> ClusterRoutingService:
        return ClusterRoutingService.from_router(master, ClusterConfig(
            num_shards=2, strategy="size_balanced", worker_backend="subprocess",
            # threshold 1.0 makes every question needy on every wave
            # (merged top-1 softmax weight is always < 1): the warm-up sends
            # each distinct question through the careful tier once, the
            # measured waves get those merged answers from memory
            escalation_threshold=1.0,
            escalation_num_beams=PIPELINE_CAREFUL_BEAMS,
            max_workers=PIPELINE_POOL,
            cache_size=4096,
            # Tracing off on both twins: span bookkeeping is identical on
            # either side and only dilutes the wire fraction being compared.
            enable_tracing=False,
            pipelined_transport=pipelined_transport))

    fast = build(True)
    serial = build(False)
    try:
        protocols = {t["protocol"] for t in _worker_transports(fast)} \
            | {t["pipelined"] for t in _worker_transports(fast)}
        assert protocols == {3, True}, protocols
        serial_protocols = {t["protocol"] for t in _worker_transports(serial)} \
            | {t["pipelined"] for t in _worker_transports(serial)}
        assert serial_protocols == {2, False}, serial_protocols

        # Fidelity first (also warms every cache on both tiers of both
        # clusters and the dispatchers' escalation memos: threshold 1.0
        # escalates each distinct question once, and the warmup shares the
        # measured waves' max_candidates so it warms the exact cache keys
        # the measurement hits).
        answers_fast = fast.submit_many(distinct,
                                        max_candidates=PIPELINE_MAX_CANDIDATES)
        answers_serial = serial.submit_many(distinct,
                                            max_candidates=PIPELINE_MAX_CANDIDATES)
        assert _signature(answers_fast) == _signature(answers_serial)
        agreement = sum(
            1 for ours, theirs in zip(answers_fast, answers_serial)
            if ours and theirs and ours[0].database == theirs[0].database
        ) / len(distinct)
        assert agreement == 1.0

        frames_before = sum(t["requests_sent"] for t in _worker_transports(fast))

        # Interleaved best-of-N: same waves, alternating sides, best round
        # each (minimum-time estimator; see PIPELINE_ROUNDS above).
        fast_seconds = benchmark.pedantic(lambda: _drive_waves(fast, waves),
                                          rounds=1, iterations=1)
        fast_elapsed_total = fast_seconds
        serial_seconds = _drive_waves(serial, waves)
        for _ in range(PIPELINE_ROUNDS - 1):
            round_seconds = _drive_waves(fast, waves)
            fast_elapsed_total += round_seconds
            fast_seconds = min(fast_seconds, round_seconds)
            serial_seconds = min(serial_seconds, _drive_waves(serial, waves))

        fast_rps = len(workload) / fast_seconds
        serial_rps = len(workload) / serial_seconds
        transports = _worker_transports(fast)
        frames = sum(t["requests_sent"] for t in transports) - frames_before
        wire_bytes = sum(t["bytes_sent"] + t["bytes_received"] for t in transports)
        routes_served = len(workload) * PIPELINE_ROUNDS + len(distinct)
        dispatcher_stats = fast.stats()["dispatcher"]
        summary = {
            "backend": "subprocess",
            "workload_requests": len(workload),
            "concurrency": PIPELINE_CONCURRENCY,
            "pipelined_routes_per_sec": round(fast_rps, 1),
            "serial_routes_per_sec": round(serial_rps, 1),
            "speedup": round(fast_rps / serial_rps, 2),
            "top1_agreement": agreement,
            "frames_per_sec": round(frames / fast_elapsed_total, 1),
            "bytes_per_route": round(wire_bytes / routes_served, 1),
            "in_flight_p95": _depth_p95(transports),
            "max_in_flight": max(t["max_in_flight"] for t in transports),
            "pipelined_frames": sum(t["pipelined_frames"] for t in transports),
            "binary_responses": sum(t["binary_responses"] for t in transports),
            "escalations": dispatcher_stats["escalations"],
            "escalations_remembered": dispatcher_stats["escalations_remembered"],
        }
        print()
        print("TRANSPORT_SUMMARY " + json.dumps(summary, sort_keys=True))

        # The multiplexed transport must actually carry overlapping frames...
        assert summary["max_in_flight"] >= 2, summary
        assert summary["pipelined_frames"] >= 1, summary
        assert summary["binary_responses"] >= 1, summary
        # ...and convert them into throughput against the faithful serial twin.
        assert fast_rps >= 1.3 * serial_rps, summary
    finally:
        fast.close()
        serial.close()
