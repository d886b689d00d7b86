"""The benchmark fixture: one trained router, its three checkpoints, the
question pool with gold labels, and the loop-oracle route of every question.

Built once per content key and cached under ``.benchmarks/e2e-fixture/<key>``;
the key hashes every ``src/repro/**/*.py`` plus the fixture config, so a
checkout never reads a fixture another version of the program wrote.  Building
is not part of any run's metrics (``fixture_build_s`` is printed beside them).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterRoutingService, save_cluster
from repro.core import DBCopilot, DBCopilotConfig
from repro.core.router import RouterConfig, SchemaRoute, SchemaRouter
from repro.core.synthesis import SynthesisConfig
from repro.datasets import (
    build_spider_like,
    make_realistic_variant,
    make_synonym_variant,
)
from repro.datasets.examples import BenchmarkDataset, Example
from repro.experiments import default_config
from repro.serving import load_router, save_router

from harness import CACHE_ROOT, REPO_ROOT

FIXTURE_ROOT = CACHE_ROOT / "e2e-fixture"
#: Bump when the fixture's on-disk layout changes.
FIXTURE_LAYOUT = 1

ROUTER_DIR = "router"
INPROC_DIR = "cluster-inproc"
PROC_DIR = "cluster-proc"

#: The deployed topologies under test; everything not named is the default.
INPROC_CLUSTER = ClusterConfig(num_shards=4)
PROC_CLUSTER = ClusterConfig(num_shards=2, worker_backend="subprocess")


@dataclass(frozen=True)
class FixtureScale:
    """How big a catalog and router the fixture trains."""

    name: str
    #: ``build_spider_like(scale=...)``: 1.0 is the 30-database default.
    collection_scale: float
    #: None = the library's ``default_config()`` preset.
    router: RouterConfig | None
    synthetic_samples: int | None


FULL = FixtureScale("full", 1.0, None, None)
#: Seconds to build, for the harness self-tests; never gated.
SMOKE = FixtureScale(
    "smoke", 0.2,
    RouterConfig(epochs=6, embedding_dim=16, hidden_dim=24, num_beams=4,
                 beam_groups=2),
    150)


@dataclass
class Fixture:
    path: Path
    scale: FixtureScale
    build_seconds: float
    dataset: BenchmarkDataset
    #: Distinct questions, each with the gold labels of its first example:
    #: regular, ``syn`` and ``real`` test variants, then train questions.
    pool: list[Example]
    #: The gold test examples (three variants) the NL2SQL pipeline answers.
    test_examples: list[Example]
    #: question -> routes of the monolith decoding with the loop backend.
    oracle: dict[str, list[SchemaRoute]]

    @property
    def router_dir(self) -> Path:
        return self.path / ROUTER_DIR

    @property
    def inproc_dir(self) -> Path:
        return self.path / INPROC_DIR

    @property
    def proc_dir(self) -> Path:
        return self.path / PROC_DIR


def _copilot_config(scale: FixtureScale) -> DBCopilotConfig:
    experiment = default_config()
    router = experiment.router_config() if scale.router is None else scale.router
    synthesis = experiment.synthesis_config() if scale.synthetic_samples is None \
        else SynthesisConfig(num_samples=scale.synthetic_samples)
    return DBCopilotConfig(router=router, sampler=experiment.sampler,
                           synthesis=synthesis, seed=experiment.seed)


def fixture_key(scale: FixtureScale) -> str:
    digest = hashlib.sha256()
    source = REPO_ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update(repr((FIXTURE_LAYOUT, scale, _copilot_config(scale),
                        INPROC_CLUSTER, PROC_CLUSTER)).encode())
    return f"{scale.name}-{digest.hexdigest()[:16]}"


def _dataset(scale: FixtureScale) -> tuple[BenchmarkDataset, list[Example], list[Example]]:
    dataset = build_spider_like(scale=scale.collection_scale)
    test_examples = (dataset.test_examples
                     + make_synonym_variant(dataset).test_examples
                     + make_realistic_variant(dataset).test_examples)
    pool: dict[str, Example] = {}
    for example in test_examples + dataset.train_examples:
        pool.setdefault(example.question, example)
    return dataset, list(pool.values()), test_examples


def _loop_twin(router: SchemaRouter) -> SchemaRouter:
    """The same weights behind the per-beam reference decoder."""
    twin = SchemaRouter(graph=router.graph,
                        config=router.config.ablated(decode_backend="loop"))
    twin.restore(router.model, router.source_vocabulary,
                 router.target_vocabulary, router.training_losses)
    return twin


def _build(scale: FixtureScale, target: Path) -> None:
    started = time.perf_counter()
    dataset, pool, _ = _dataset(scale)
    copilot = DBCopilot.build(dataset.catalog, dataset.instances,
                              train_examples=dataset.train_examples,
                              config=_copilot_config(scale))
    router = copilot.router
    staging = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        save_router(router, staging / ROUTER_DIR)
        with ClusterRoutingService.from_router(router, INPROC_CLUSTER) as cluster:
            save_cluster(cluster, staging / INPROC_DIR)
        # A subprocess fleet checkpoints itself on the way up.
        ClusterRoutingService.from_router(
            router, PROC_CLUSTER, checkpoint_dir=staging / PROC_DIR).close()
        oracle_router = _loop_twin(load_router(staging / ROUTER_DIR))
        questions = [example.question for example in pool]
        oracle = {}
        for start in range(0, len(questions), 8):
            wave = questions[start:start + 8]
            for question, routes in zip(wave, oracle_router.route_batch(wave)):
                oracle[question] = [[route.database, list(route.tables),
                                     route.score.hex()] for route in routes]
        (staging / "oracle.json").write_text(json.dumps(oracle))
        (staging / "meta.json").write_text(json.dumps({
            "layout": FIXTURE_LAYOUT, "scale": scale.name,
            "fixture_build_s": time.perf_counter() - started,
        }))
        shutil.rmtree(target, ignore_errors=True)
        os.replace(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_fixture(scale: FixtureScale = FULL, rebuild: bool = False) -> Fixture:
    """The cached fixture for this checkout's sources, building it if absent."""
    path = FIXTURE_ROOT / fixture_key(scale)
    if rebuild or not (path / "meta.json").is_file():
        _build(scale, path)
    meta = json.loads((path / "meta.json").read_text())
    dataset, pool, test_examples = _dataset(scale)
    oracle = {
        question: [SchemaRoute(database, tuple(tables), float.fromhex(score))
                   for database, tables, score in routes]
        for question, routes in json.loads((path / "oracle.json").read_text()).items()
    }
    missing = [example.question for example in pool if example.question not in oracle]
    if missing:
        raise RuntimeError(f"fixture {path} has no oracle route for "
                           f"{len(missing)} pool questions; run with --rebuild-fixture")
    return Fixture(path=path, scale=scale, build_seconds=meta["fixture_build_s"],
                   dataset=dataset, pool=pool, test_examples=test_examples,
                   oracle=oracle)
