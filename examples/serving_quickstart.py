"""Serving quickstart: build -> save -> load -> serve -> stats.

Run with ``python examples/serving_quickstart.py``.  This is the deployment
half of the paper's pitch: the schema router is a *compact* model, so it can
be trained once, checkpointed, and then served persistently — with a route
cache, and concurrent misses sharing decodes — instead of being rebuilt per
process.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.core import DBCopilot, DBCopilotConfig, RouterConfig, SynthesisConfig
from repro.datasets import build_spider_like
from repro.serving import (
    LoadGenerator,
    RoutingService,
    ServingConfig,
    WorkloadConfig,
    save_router,
)


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
    print(f"   {copilot.router.num_parameters()} parameters over "
          f"{dataset.num_databases} databases / {dataset.num_tables} tables")

    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = Path(scratch) / "router-ckpt"
        print(f"\n2. Save: writing the checkpoint to {checkpoint.name}/ ...")
        save_router(copilot.router, checkpoint)
        for artifact in sorted(checkpoint.iterdir()):
            print(f"   {artifact.name}: {artifact.stat().st_size} bytes")

        print("\n3. Load + serve: booting a RoutingService from the checkpoint "
              "(no retraining) ...")
        config = ServingConfig(cache_size=4096)
        with RoutingService.from_checkpoint(checkpoint, config) as service:
            question = dataset.test_examples[0].question
            print(f"   Q: {question}")
            for route in service.submit(question, max_candidates=3):
                print(f"   -> <{route.database}, {route.tables}>  score={route.score:.2f}")

            print("\n4. Load generation: a seeded repeated-question workload ...")
            questions = [example.question for example in dataset.test_examples[:30]]
            generator = LoadGenerator(questions, WorkloadConfig(
                num_requests=120, unique_fraction=0.15, seed=7, concurrency=4))
            report = generator.run(service.submit)
            print(f"   {report.throughput_rps:.0f} routes/sec, "
                  f"p95 {report.latency['p95_ms']:.1f} ms")

            print("\n5. Stats:")
            print(json.dumps(service.stats(), indent=2))


if __name__ == "__main__":
    main()
