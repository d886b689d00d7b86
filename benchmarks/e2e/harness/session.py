"""One booted service and the calls of its timed phase."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from harness.fixture import Fixture
from harness.measure import SpeedProbe
from harness.quality import valid_routes
from harness.workloads import (
    WARMUP_QUESTIONS,
    Booted,
    Workload,
    as_prediction,
    boot,
    new_pipeline,
    route_waves,
    setup_questions,
)

#: Boots per run; ``setup_s`` reports their median.
BOOTS = 3
#: ``--smoke`` sizes: seconds, not minutes, for the harness self-tests.
SMOKE_WARMUP_QUESTIONS = 16
SMOKE_PASSES = 2.5


@dataclass(frozen=True)
class RunConfig:
    workload: Workload
    seed: int
    seconds: int
    trace: bool
    smoke: bool = False
    rebuild_fixture: bool = False


class ReplyChecker:
    """Remembers the first reply to every question; later ones must equal it.

    Routing is deterministic, so a reply that differs from the first one
    (a hot reply from its cache-fill reply, a pass from the pass before) is
    a failure, as is an empty or catalog-invalid candidate list."""

    def __init__(self, fixture: Fixture) -> None:
        self._catalog = fixture.dataset.catalog
        self.served: dict = {}
        self._invalid: set[str] = set()

    def ok(self, question: str, routes: list) -> bool:
        first = self.served.get(question)
        if first is None:
            self.served[question] = routes
            if not valid_routes(routes, self._catalog):
                self._invalid.add(question)
                return False
            return True
        return routes == first and question not in self._invalid

    def failed_waves(self, waves, replies) -> int:
        return sum(not self.ok(question, routes)
                   for wave, wave_routes in zip(waves, replies)
                   for question, routes in zip(wave.questions, wave_routes))


class Nl2SqlDriver:
    """``submit`` one question, then answer its example from the served routes."""

    def __init__(self, fixture: Fixture, service, checker: ReplyChecker) -> None:
        self._service = service
        self._checker = checker
        self._pipeline = new_pipeline(fixture)
        #: example -> its first GenerationResult.
        self.results: dict = {}

    def call(self, query):
        routes = self._service.submit(query.example.question)
        # Per-call accounting: a call's cost must not depend on how much the
        # client has billed before it.
        self._pipeline.llm.reset_usage()
        return routes, self._pipeline.answer(query.example,
                                             prediction=as_prediction(routes))

    def failed(self, queries, replies) -> int:
        failures = 0
        for query, (routes, result) in zip(queries, replies):
            first = self.results.setdefault(query.example, result)
            executed = result.error == ""
            if not (self._checker.ok(query.example.question, routes)
                    and executed and result == first):
                failures += 1
        return failures


def set_up(config: RunConfig, fixture: Fixture,
           boots: int) -> tuple[Booted, ReplyChecker, dict]:
    """Boot ``boots`` times and keep the last; returns (service, checker
    seeded with the set-up replies, timings).

    ``setup_s`` is the median boot (checkpoint on disk -> warm-up answered)
    plus the cache fill of the kept boot, on the workloads that run hot --
    at reference speed, like every time (see ``harness.measure``)."""
    warmup, fill = setup_questions(
        config.workload, fixture,
        SMOKE_WARMUP_QUESTIONS if config.smoke else WARMUP_QUESTIONS)
    probe = SpeedProbe()
    boot_seconds, boot_seconds_raw = [], []
    for index in range(boots):
        replies: dict = {}
        booted = boot(config.workload, fixture)
        try:
            probe.after(booted.load_seconds)
            busy = booted.load_seconds + route_waves(booted.service, warmup,
                                                     replies, probe)
            slowdown, _ = probe.factor()
            booted.slowdown = slowdown
            boot_seconds_raw.append(busy)
            boot_seconds.append(busy / slowdown)
            if index == boots - 1:
                fill_seconds_raw = route_waves(booted.service, fill, replies, probe)
                fill_seconds = fill_seconds_raw / probe.factor()[0]
        except BaseException:
            booted.service.close()
            raise
        if index < boots - 1:
            booted.service.close()
    checker = ReplyChecker(fixture)
    failed = sum(not checker.ok(question, routes)
                 for question, routes in replies.items())
    if failed:
        booted.service.close()
        raise RuntimeError(f"{failed} of {len(replies)} set-up replies were "
                           f"empty or not in the catalog")
    return booted, checker, {
        "setup_s": statistics.median(boot_seconds) + fill_seconds,
        "setup_s_raw": statistics.median(boot_seconds_raw) + fill_seconds_raw,
        "boots": boots, "attempted": len(replies), "failed": 0,
    }


def phase_calls(config: RunConfig, fixture: Fixture, booted: Booted,
                checker: ReplyChecker):
    """(call, check, driver) for the workload's timed phase."""
    service = booted.service
    if config.workload.stream == "nl2sql":
        driver = Nl2SqlDriver(fixture, service, checker)
        return driver.call, driver.failed, driver

    def call(wave):
        if wave.invalidate:
            service.notify_catalog_changed()
        return service.submit_many(list(wave.questions))

    return call, checker.failed_waves, None


def stream_total(config: RunConfig, fixture: Fixture) -> int:
    """Questions in the timed phase: at least one whole pass, so that every
    pool question has a reply to score."""
    items = len(fixture.test_examples if config.workload.stream == "nl2sql"
                else fixture.pool)
    if config.smoke:
        return int(SMOKE_PASSES * items)
    return max(items, int(config.workload.questions_per_second * config.seconds))
