"""Decode throughput: the two decode backends over the routing hot path.

Routes the same seeded workload through the same trained router once per
backend -- ``loop`` (the per-beam reference search, the oracle) and
``vectorized`` (the one batched engine: one kernel row per distinct live
prefix, on the row-stable kernel) -- in micro-batches of ``DECODE_BATCH``
questions.  ``--decode-backends`` (see ``benchmarks/conftest.py``) narrows
the sweep; ``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke
lanes.  Each backend is timed as the best of ``ROUNDS`` full passes, with
rounds *interleaved* across backends so noisy-neighbour windows on a shared
runner bias every backend equally instead of whichever was on the clock.

Besides the per-backend result table it prints a one-line ``DECODE_SUMMARY``
JSON (questions/sec, speedup over loop, and top-1 agreement per backend) for
the CI bench-smoke lane to scrape, and asserts the engine contract:
``vectorized`` must return *bit-identical* routes to ``loop`` (hex-float score
keys) at >= 2x its questions/sec.  The absolute figures live in the
``benchmarks/e2e`` rows.

It also records, ungated, the ``vectorized`` questions/sec of the two grid
shapes deployments live on (``grid_1x1_questions_per_sec``: a cluster shard's
budget, where the engine's per-step constant is most of the work;
``grid_10x10_questions_per_sec``: the paper's), so that constant is visible
per commit -- plus ``grid_10x10_unconstrained_questions_per_sec``, the paper's
grid with ``constrained_decoding=False`` (the Table 7 ablation): the only
place the engine's numeric candidate path (a row nothing constrains ranks
the ``top_n + (G - 1) * B`` best tokens of its kernel row) gets a number --
and ``ranked_tokens_per_row``, the constrained 10x10 grid's candidate tokens
gathered per kernel row (counted on its warm-up batch), to hold against the
vocabulary size.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.router import SchemaRouter
from repro.utils.tables import ResultTable

#: Micro-batch size under test (the acceptance bars are pinned at batch 8).
DECODE_BATCH = 8
#: Timed passes per backend; speedup gates use the median of the per-round
#: paired ratios and the table reports each backend's best pass.
ROUNDS = 5
#: Config changes of the grids recorded ungated beside the sweep.
GRIDS = {
    "1x1": dict(num_beams=1, beam_groups=1),
    "10x10": dict(num_beams=10, beam_groups=10),
    "10x10_unconstrained": dict(num_beams=10, beam_groups=10,
                                constrained_decoding=False),
}
#: ``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke lanes.
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "200"))


def _route_key(routes) -> list[tuple]:
    return [(route.database, route.tables, route.score.hex()) for route in routes]


def _top1(routes) -> str | None:
    return routes[0].database if routes else None


def _clone(router: SchemaRouter, **config_changes) -> SchemaRouter:
    clone = SchemaRouter(graph=router.graph,
                         config=router.config.ablated(**config_changes))
    clone.restore(router.model, router.source_vocabulary, router.target_vocabulary,
                  router.training_losses)
    return clone


def _one_pass(router: SchemaRouter, batches: list[list[str]]) -> tuple[float, list]:
    routed: list = []
    started = time.perf_counter()
    for batch in batches:
        routed.extend(router.route_batch(batch))
    return max(time.perf_counter() - started, 1e-9), routed


def test_decode_throughput(benchmark, spider_context, decode_backends):
    questions = [example.question for example in spider_context.test_examples()[:40]]
    workload = [questions[index % len(questions)] for index in range(NUM_REQUESTS)]
    batches = [workload[start:start + DECODE_BATCH]
               for start in range(0, len(workload), DECODE_BATCH)]

    routers = {backend: _clone(spider_context.copilot.router,
                               decode_backend=backend)
               for backend in decode_backends}
    # Warm every router (constraint tries, mask caches, parse memos) so the
    # timed passes compare the engines, not first-touch setup.
    for router in routers.values():
        router.route_batch(batches[0])

    # Rounds are interleaved -- every backend runs once per round, so a noisy
    # neighbour or a thermal dip hits all backends in the same window instead
    # of skewing whichever happened to be on the clock.  Speedups are judged
    # on the *median of the per-round paired ratios* (each ratio compares
    # passes taken back to back), which survives individual polluted rounds;
    # the table reports each backend's best pass.
    elapsed: dict[str, float] = {backend: float("inf")
                                 for backend in decode_backends}
    routes: dict[str, list] = {}
    round_times: list[dict[str, float]] = []

    def sweep_round() -> None:
        # The slow loop reference runs only in the first and last rounds
        # (cheap, but not hostage to a single noisy window); the fallback in
        # ``median_speedup`` pairs the other rounds against its best pass --
        # the conservative direction for the >= 2x vectorized gate.
        this_round: dict[str, float] = {}
        loop_round = not round_times or len(round_times) == ROUNDS - 1
        for backend, router in routers.items():
            if backend == "loop" and not loop_round:
                continue
            seconds, routed = _one_pass(router, batches)
            this_round[backend] = seconds
            if seconds < elapsed[backend]:
                elapsed[backend] = seconds
                routes[backend] = routed
        round_times.append(this_round)

    benchmark.pedantic(sweep_round, rounds=ROUNDS, iterations=1)

    def median_speedup(name: str, against: str) -> float:
        ratios = sorted(
            times.get(against, elapsed[against]) / times[name]
            for times in round_times if name in times)
        return ratios[len(ratios) // 2]

    qps = {backend: len(workload) / seconds for backend, seconds in elapsed.items()}
    reference = routes["loop"]

    def top1_agreement(name: str, against: str) -> float:
        return sum(
            _top1(ours) == _top1(theirs)
            for ours, theirs in zip(routes[name], routes[against])
        ) / max(len(workload), 1)

    table = ResultTable(
        title=f"Decode throughput by backend (batch {DECODE_BATCH})",
        columns=["backend", "questions_per_sec", "ms_per_question",
                 "speedup_vs_loop", "top1_vs_loop"],
    )
    summary_backends = {}
    for backend in decode_backends:
        agreement = top1_agreement(backend, "loop")
        speedup = median_speedup(backend, "loop")
        table.add_row(backend, round(qps[backend], 1),
                      round(1000.0 / qps[backend], 3),
                      round(speedup, 2), round(agreement, 4))
        summary_backends[backend] = {
            "questions_per_sec": round(qps[backend], 1),
            "speedup_vs_loop": round(speedup, 2),
            "top1_agreement_vs_loop": round(agreement, 4),
        }
    print()
    print(table.render())

    summary = {
        "workload_questions": len(workload),
        "decode_batch": DECODE_BATCH,
        "rounds": ROUNDS,
        "num_beams": spider_context.copilot.router.config.num_beams,
        "backends": summary_backends,
    }
    if "vectorized" in routes:
        bit_identical = all(
            _route_key(ours) == _route_key(theirs)
            for ours, theirs in zip(routes["vectorized"], reference)
        )
        summary["vectorized_bit_identical_to_loop"] = bit_identical
    for grid, changes in GRIDS.items():
        router = _clone(spider_context.copilot.router, decode_backend="vectorized",
                        **changes)
        decode_stats: dict = {}
        router.route_batch(batches[0], decode_stats=decode_stats)
        seconds = min(_one_pass(router, batches)[0] for _ in range(ROUNDS))
        summary[f"grid_{grid}_questions_per_sec"] = round(len(workload) / seconds, 1)
        if grid == "10x10":
            summary["ranked_tokens_per_row"] = round(
                decode_stats["ranked_tokens"] / decode_stats["beam_rows"], 2)
    print("DECODE_SUMMARY " + json.dumps(summary, sort_keys=True))

    # The engine contract (see the module docstring), gated on the *unrounded*
    # median ratio (the summary values are rounded for display only).
    if "vectorized" in routes:
        assert summary["vectorized_bit_identical_to_loop"], summary
        assert median_speedup("vectorized", "loop") >= 2.0, summary
