"""Decode throughput: the one batched engine, checked against the oracle.

Routes a seeded workload through the same trained router twice, in
micro-batches of ``DECODE_BATCH`` questions -- once on ``loop`` (the per-beam
reference search, the oracle) and once on ``vectorized`` (the one batched
engine: one kernel row per distinct live prefix, on the row-stable kernel)
-- and asserts the engine contract: ``vectorized`` returns *bit-identical*
routes to ``loop`` (hex-float score keys).  ``REPRO_BENCH_REQUESTS`` shrinks
the seeded workload for smoke lanes.

No speed is gated: the figures a deployment runs are the ``benchmarks/e2e``
rows.  It prints, ungated, a one-line ``DECODE_SUMMARY`` JSON with the
engine's questions/sec (best of ``ROUNDS`` passes) on the grid shapes
deployments live on (``grid_1x1_questions_per_sec``: the cascade's fast
tier on every shard, which measures the engine's one-beam selection -- one
array argmax per row and step over the step's gather;
``grid_10x10_questions_per_sec``: the paper's), plus
``grid_10x10_unconstrained_questions_per_sec``, the paper's grid with
``constrained_decoding=False`` (the Table 7 ablation): the only place the
engine's numeric candidate path (a row nothing constrains ranks the ``top_n +
(G - 1) * B`` best tokens of its kernel row) gets a number -- and
``ranked_tokens_per_row``, the constrained 10x10 grid's candidate tokens
gathered per kernel row (read off its traced warm-up batch's ``decode``
span), to hold against the vocabulary size.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.router import SchemaRouter
from repro.obs import Tracer

#: Micro-batch size under test.
DECODE_BATCH = 8
#: Timed passes per grid; each grid reports its best pass.
ROUNDS = 5
#: Config changes of the grids recorded ungated.
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


def test_decode_throughput(benchmark, spider_context):
    questions = [example.question for example in spider_context.test_examples()[:40]]
    workload = [questions[index % len(questions)] for index in range(NUM_REQUESTS)]
    batches = [workload[start:start + DECODE_BATCH]
               for start in range(0, len(workload), DECODE_BATCH)]
    master = spider_context.copilot.router

    routes = benchmark.pedantic(
        lambda: {backend: _one_pass(_clone(master, decode_backend=backend), batches)[1]
                 for backend in ("loop", "vectorized")},
        rounds=1, iterations=1)
    bit_identical = all(_route_key(ours) == _route_key(theirs)
                        for ours, theirs in zip(routes["vectorized"], routes["loop"]))

    summary = {
        "workload_questions": len(workload),
        "decode_batch": DECODE_BATCH,
        "rounds": ROUNDS,
        "num_beams": master.config.num_beams,
        "vectorized_bit_identical_to_loop": bit_identical,
    }
    for grid, changes in GRIDS.items():
        router = _clone(master, decode_backend="vectorized", **changes)
        trace = Tracer().start_trace("warm-up")
        router.route_batch(batches[0], traces=[trace] * len(batches[0]))
        (decode,) = trace.find_spans("decode")
        trace.finish()
        seconds = min(_one_pass(router, batches)[0] for _ in range(ROUNDS))
        summary[f"grid_{grid}_questions_per_sec"] = round(len(workload) / seconds, 1)
        if grid == "10x10":
            summary["ranked_tokens_per_row"] = round(
                decode.attributes["ranked_tokens"] / decode.attributes["beam_rows"], 2)
    print("DECODE_SUMMARY " + json.dumps(summary, sort_keys=True))

    # The engine contract (see the module docstring).
    assert bit_identical, summary
