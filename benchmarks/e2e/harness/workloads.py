"""The five workloads: which topology boots, what stream it is sent.

Every service boots the way a deployment does -- ``load_router`` /
``load_cluster`` from a checkpoint with the default ``ServingConfig()`` or the
checkpoint's own ``ClusterConfig`` -- and is driven through its front door
(``submit_many`` in waves of ``Workload.wave`` questions, or ``submit`` per
question for NL2SQL).

A run sends a *fixed number* of questions, ``questions_per_second`` x
``--seconds``, sized so the timed phase lasts about ``--seconds`` on the
two-core reference box: a fixed count makes the work identical from run to
run, which a fixed duration would not.  ``--seed`` only orders the stream: the
multiset of questions sent is the same for every seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.cluster import load_cluster
from repro.core.router import SchemaRoute
from repro.datasets.examples import Example
from repro.llm import PromptStrategy, SchemaAgnosticNL2SQL, SimulatedLLM
from repro.retrieval.base import CandidateSchema, RoutingPrediction
from repro.serving import RoutingService, load_router

from harness.fixture import Fixture
from harness.measure import SpeedProbe

#: Questions per front-door call while a boot warms up and fills its caches.
WAVE = 8
#: ... and in the timed phase of ``proc_hot``.  A hit does so little work that
#: with waves of 8 half of a wave's 2 ms was the box waking threads and
#: processes (an idle-priority spinner per core cut the median from 2.6 to
#: 1.8 ms), and that half moved 18-29 % between runs of identical code; with
#: waves of 64 the codec, cache reads and merge are the wave, and runs agree
#: within 6 %.
HOT_WAVE = 64
#: Questions every boot answers before it counts as set up.
WARMUP_QUESTIONS = 256
ZIPF_EXPONENT = 1.0
#: Fixes which questions of the pool are the popular ones.
ZIPF_RANKING_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: "mono" (RoutingService) | "inproc" | "proc" (ClusterRoutingService).
    topology: str
    #: "cold" (every pass invalidated: all misses) | "hot" (Zipf over a
    #: filled cache: all hits) | "nl2sql" (hot routes feeding the pipeline).
    stream: str
    questions_per_second: float
    #: Questions per front-door call in the timed phase.
    wave: int = WAVE
    #: How much more (> 1) or less (< 1) than the speed probe's slice this
    #: workload slows down when the machine does: its times are divided by
    #: ``slowdown ** speed_sensitivity`` (see ``harness.measure``).
    speed_sensitivity: float = 1.0


# ``speed_sensitivity`` is fitted, not derived: over two studies of twenty runs
# each (``repeat.py`` records the fit) the rows that are mostly interpreter work
# slowed as the probe's slowdown to the power 1.4-1.8, the numeric decode of
# the monolith as 1.0-1.5, and with the fitted power the spread between runs
# of identical code fell from 8-18 % to 4-10 %.
WORKLOADS = {workload.name: workload for workload in (
    Workload("mono_cold", "mono", "cold", 390.0, speed_sensitivity=1.15),
    Workload("inproc_cold", "inproc", "cold", 125.0, speed_sensitivity=1.25),
    Workload("proc_cold", "proc", "cold", 690.0, speed_sensitivity=1.45),
    Workload("proc_hot", "proc", "hot", 15000.0, wave=HOT_WAVE,
             speed_sensitivity=1.6),
    Workload("nl2sql_e2e", "mono", "nl2sql", 900.0, speed_sensitivity=1.5),
)}


@dataclass(frozen=True)
class Wave:
    """One front-door call of a routing workload."""

    questions: tuple[str, ...]
    #: Invalidate every route cache first (the start of a cold pass).
    invalidate: bool = False

    @property
    def size(self) -> int:
        return len(self.questions)


@dataclass(frozen=True)
class Query:
    """One NL2SQL call: route the question, then answer the example."""

    example: Example
    size: int = 1


# -- streams -------------------------------------------------------------------
def _passes(items: Sequence, total: int, rng: random.Random) -> list[list]:
    """``total`` items as shuffled passes over ``items``.

    A trailing partial pass shuffles a fixed *prefix* of ``items``, so the
    multiset sent does not depend on the seed -- only the order does."""
    full, rest = divmod(total, len(items))
    passes = []
    for size in [len(items)] * full + ([rest] if rest else []):
        chunk = list(items[:size])
        rng.shuffle(chunk)
        passes.append(chunk)
    return passes


def _waves(questions: Sequence[str], invalidate: bool,
           size: int = WAVE) -> list[Wave]:
    return [Wave(tuple(questions[start:start + size]),
                 invalidate=invalidate and start == 0)
            for start in range(0, len(questions), size)]


def build_stream(workload: Workload, fixture: Fixture, seed: int,
                 total: int) -> list:
    """The calls of one timed phase (``total`` questions), from ``seed``."""
    rng = random.Random(seed)
    if workload.stream == "nl2sql":
        return [Query(example) for chunk in _passes(fixture.test_examples, total, rng)
                for example in chunk]
    questions = [example.question for example in fixture.pool]
    if workload.stream == "cold":
        return [wave for chunk in _passes(questions, total, rng)
                for wave in _waves(chunk, invalidate=True, size=workload.wave)]
    return _waves(_zipf_multiset(questions, total, rng), invalidate=False,
                  size=workload.wave)


def _zipf_multiset(questions: Sequence[str], total: int,
                   rng: random.Random) -> list[str]:
    """``total`` questions whose counts fall off as Zipf(``ZIPF_EXPONENT``)
    over a fixed popularity ranking, in an order ``rng`` decides.

    The counts are fixed, not drawn: which questions are popular decides how
    many waves escalate, so a drawn stream would make each seed a different
    amount of work."""
    ranked = list(questions)
    random.Random(ZIPF_RANKING_SEED).shuffle(ranked)
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(ranked) + 1)]
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    # Largest remainders make up the rounding shortfall.
    shortfall = total - sum(counts)
    by_remainder = sorted(range(len(ranked)),
                          key=lambda index: (counts[index] - weights[index] * scale, index))
    for index in by_remainder[:shortfall]:
        counts[index] += 1
    stream = [question for question, count in zip(ranked, counts)
              for _ in range(count)]
    rng.shuffle(stream)
    return stream


def setup_questions(workload: Workload, fixture: Fixture,
                    warmup_count: int = WARMUP_QUESTIONS) -> tuple[list[str], list[str]]:
    """(warm-up questions, cache-fill questions), both in a fixed order.

    Every boot answers the warm-up; workloads that run hot then fill the
    caches with the rest of what their stream can ask."""
    if workload.stream == "nl2sql":
        questions = list(dict.fromkeys(example.question
                                       for example in fixture.test_examples))
    else:
        questions = [example.question for example in fixture.pool]
    warmup = questions[:warmup_count]
    fill = [] if workload.stream == "cold" else questions[len(warmup):]
    return warmup, fill


# -- services ------------------------------------------------------------------
@dataclass
class Booted:
    service: object
    #: Seconds inside ``load_router`` / ``load_cluster``, as measured.
    load_seconds: float
    #: How much slower than nominal the machine ran while this service
    #: booted and warmed up (set by ``harness.session.set_up``).
    slowdown: float = 1.0

    @property
    def proc_workers(self) -> list:
        """The subprocess shard workers (none on mono / inproc)."""
        shards = getattr(self.service, "shards", ())
        return [worker for replica_set in shards for worker in replica_set.workers
                if hasattr(worker, "transport_stats")]

    @property
    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self.proc_workers]


def boot(workload: Workload, fixture: Fixture) -> Booted:
    started = time.perf_counter()
    if workload.topology == "mono":
        router = load_router(fixture.router_dir)
        load_seconds = time.perf_counter() - started
        return Booted(RoutingService(router), load_seconds)
    path = fixture.inproc_dir if workload.topology == "inproc" else fixture.proc_dir
    service = load_cluster(path)
    return Booted(service, time.perf_counter() - started)


def route_waves(service, questions: Sequence[str],
                into: dict[str, list[SchemaRoute]], probe: SpeedProbe) -> float:
    """Answer ``questions`` in waves, keeping each question's routes; returns
    the seconds spent inside the calls."""
    busy = 0.0
    for wave in _waves(questions, invalidate=False):
        started = time.perf_counter()
        replies = service.submit_many(list(wave.questions))
        took = time.perf_counter() - started
        busy += took
        probe.after(took)
        into.update(zip(wave.questions, replies))
    return busy


# -- NL2SQL --------------------------------------------------------------------
def new_pipeline(fixture: Fixture) -> SchemaAgnosticNL2SQL:
    dataset = fixture.dataset
    return SchemaAgnosticNL2SQL(dataset.catalog, dataset.instances,
                                SimulatedLLM(catalog=dataset.catalog),
                                strategy=PromptStrategy.BEST_SCHEMA)


def as_prediction(routes: Sequence[SchemaRoute]) -> RoutingPrediction:
    """Served routes in the shape ``SchemaAgnosticNL2SQL.answer`` takes."""
    return RoutingPrediction(
        ranked_databases=[route.database for route in routes],
        candidate_schemas=[CandidateSchema(route.database, route.tables, route.score)
                           for route in routes])
