"""Control-plane benchmarks: degrade under overload, rebalance without flap.

``test_overload_sheds_not_collapses`` is the admission-control gate.  It
first measures the service's closed-loop saturation throughput (cache off,
so every request is a real decode), then offers an open-loop 2x-saturation
workload twice: once against a bare service and once behind an
:class:`~repro.control.admission.AdmissionController` whose token bucket
caps admitted decodes at half of saturation.  Latency is *schedule-relative*
(completion minus the deterministic release time), so the bare service
cannot hide its backlog between requests: it collapses into unbounded lag,
while the admitted fraction behind admission control stays under the
declared SLO and the rest is shed with a fast, typed rejection.  Prints a
``CONTROL_SUMMARY`` JSON line for CI.

``test_hot_shard_split_without_flapping`` is the rebalancer-feedback gate:
skewed traffic makes one shard own the routed hot set, the controller must
split it (move a cold database off it) within a few ticks, and hysteresis
plus per-database cooldown must keep consecutive actions at least one full
hysteresis window apart — no flapping.  Prints ``REBALANCE_SUMMARY``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

from repro.cluster import ClusterConfig, ClusterRebalancer, ClusterRoutingService
from repro.control import (
    AdmissionController,
    AdmissionPolicy,
    Controller,
    ControllerConfig,
)
from repro.serving import RoutingService, ScenarioDriver, ServingConfig, named_scenario
from repro.utils.tables import ResultTable

#: Open-loop request budget; ``REPRO_BENCH_REQUESTS`` shrinks it for smoke.
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "150"))
#: The declared latency SLO admitted traffic must stay under at 2x load.
SLO_P99_MS = 500.0


class _SteppedClock:
    """A manually-advanced clock for deterministic controller hysteresis."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_overload_sheds_not_collapses(spider_context):
    router = spider_context.copilot.router
    questions = [example.question
                 for example in spider_context.test_examples()[:40]]
    config = ServingConfig(enable_cache=False, enable_tracing=False)

    # Closed-loop saturation: how fast can uncached decodes actually go?
    with RoutingService(router, config=config) as probe:
        probe_wave = (questions * 3)[:max(30, min(NUM_REQUESTS, 60))]
        started = time.perf_counter()
        for question in probe_wave:
            probe.submit(question)
        saturation_qps = len(probe_wave) / max(time.perf_counter() - started,
                                               1e-9)

    offered_qps = 2.0 * saturation_qps
    scenario = named_scenario("steady", num_requests=NUM_REQUESTS,
                              qps=offered_qps, seed=23)
    driver = ScenarioDriver(questions, scenario)

    # Bare service: every request admitted, the backlog is the latency.
    with RoutingService(router, config=config) as bare:
        baseline = driver.run(bare.submit)

    # Admission-controlled twin: the bucket caps admitted decodes at half of
    # saturation, so shedding is guaranteed arithmetically (offered 4x the
    # ceiling) and admitted requests never queue behind a backlog.
    admission = AdmissionController(AdmissionPolicy(
        max_qps=0.5 * saturation_qps, burst_requests=8.0))
    with RoutingService(router, config=config,
                        admission=admission) as controlled:
        shedding = driver.run(controlled.submit)
        stats = controlled.stats()
        health = controlled.health()

    table = ResultTable(
        title=f"Overload at 2x saturation ({offered_qps:.0f} qps offered)",
        columns=["mode", "admitted", "shed", "p99_lag_ms", "max_lag_s"],
    )
    table.add_row("bare", baseline.admitted, baseline.shed,
                  baseline.latency["p99_ms"],
                  round(baseline.max_lag_seconds, 3))
    table.add_row("admission", shedding.admitted, shedding.shed,
                  shedding.latency["p99_ms"],
                  round(shedding.max_lag_seconds, 3))
    print()
    print(table.render())

    summary = {
        "saturation_qps": round(saturation_qps, 1),
        "offered_qps": round(offered_qps, 1),
        "num_requests": NUM_REQUESTS,
        "slo_p99_ms": SLO_P99_MS,
        "baseline_p99_lag_ms": baseline.latency["p99_ms"],
        "baseline_max_lag_seconds": round(baseline.max_lag_seconds, 4),
        "admitted_p99_lag_ms": shedding.latency["p99_ms"],
        "admitted_max_lag_seconds": round(shedding.max_lag_seconds, 4),
        "shed_fraction": round(shedding.shed_fraction, 4),
        "rejected_by_reason": stats["admission"]["rejected_by_reason"],
        "errors": shedding.errors,
        "health_status": health.status,
    }
    print("CONTROL_SUMMARY " + json.dumps(summary, sort_keys=True))

    # Shedding is loss, never failure: every non-shed request succeeded.
    assert baseline.errors == 0 and shedding.errors == 0, summary
    # The bucket at half saturation under 2x offered load must shed hard.
    assert shedding.shed_fraction >= 0.3, summary
    assert stats["admission"]["rejected_by_reason"]["rate_limit"] > 0, summary
    # The gate: admitted latency stays bounded by the declared SLO...
    assert shedding.latency["p99_ms"] <= SLO_P99_MS, summary
    # ...while the bare service degrades into (strictly worse) backlog lag.
    assert baseline.latency["p99_ms"] > shedding.latency["p99_ms"], summary
    # Rejections are surfaced, not swallowed.
    assert stats["counters"]["admission_rejected"] == shedding.shed, summary


def test_hot_shard_split_without_flapping(spider_context):
    router = spider_context.copilot.router
    questions = [example.question
                 for example in spider_context.test_examples()[:60]]
    cluster = ClusterRoutingService.from_router(
        router, ClusterConfig(num_shards=3, enable_tracing=False))
    clock = _SteppedClock()
    hysteresis = 5.0
    controller = Controller(
        cluster, rebalancer=ClusterRebalancer(cluster),
        config=ControllerConfig(hysteresis_seconds=hysteresis,
                                database_cooldown_seconds=1e9,
                                min_window_qps=0.5),
        clock=clock)
    try:
        # Probe round: find which database wins the most questions, then
        # build a hot workload of exactly the questions it answers.
        probed = cluster.submit_many(questions)
        top1 = [routes[0].database for routes in probed if routes]
        hot_database = Counter(top1).most_common(1)[0][0]
        hot_shard = cluster.shard_of(hot_database)
        hot_questions = [question for question, routes in zip(questions, probed)
                         if routes and routes[0].database == hot_database]
        hot_wave = (hot_questions * 40)[:40]
        shard_sizes_before = [len(shard) for shard in
                              cluster.stats()["assignment"]]
        assert shard_sizes_before[hot_shard] >= 2, \
            "the hot shard needs a cold database to shed"

        rounds = 8
        for _ in range(rounds):
            cluster.submit_many(hot_wave)
            controller.tick()
            clock.advance(2.0)
        actions = controller.actions()
        stats = cluster.stats()
        controller_stats = controller.stats()
        assert cluster.submit(hot_questions[0])  # still serving after moves
    finally:
        cluster.close()

    ok_actions = [action for action in actions if action["status"] == "ok"]
    splits = [action for action in ok_actions if action["kind"] == "split"]
    gaps = [later["at"] - earlier["at"]
            for earlier, later in zip(ok_actions, ok_actions[1:])]

    table = ResultTable(
        title="Rebalancer feedback under a hot shard",
        columns=["kind", "database", "from", "to", "share"],
    )
    for action in ok_actions:
        table.add_row(action["kind"], action["database"],
                      action["from_shard"], action["to_shard"],
                      action["share"])
    print()
    print(table.render())

    summary = {
        "hot_database": hot_database,
        "hot_shard": hot_shard,
        "rounds": rounds,
        "hysteresis_seconds": hysteresis,
        "actions": len(ok_actions),
        "splits": len(splits),
        "merges": controller_stats["merges"],
        "min_action_gap_seconds": round(min(gaps), 3) if gaps else None,
        "moved_databases": [action["database"] for action in ok_actions],
        "assignment_after": stats["assignment"],
        "routed_total": stats["routing_load"]["total"],
        "tick_errors": controller_stats["tick_errors"],
    }
    print("REBALANCE_SUMMARY " + json.dumps(summary, sort_keys=True))

    # The controller saw the hot shard and split it (at least once)...
    assert splits, summary
    assert splits[0]["from_shard"] == hot_shard, summary
    # ...every tick survived...
    assert controller_stats["tick_errors"] == 0, summary
    # ...and it never flapped: at most one action per hysteresis window,
    # and (under the cooldown) no database ever moved twice.
    assert all(gap >= hysteresis for gap in gaps), summary
    moved = [action["database"] for action in ok_actions]
    assert len(moved) == len(set(moved)), summary
    # The hot shard really shrank: its cold databases moved off it.
    assert len(stats["assignment"][hot_shard]) < \
        shard_sizes_before[hot_shard], summary
