"""The routing service façade: decoder + cache + group commit + metrics.

:class:`RoutingService` turns a decoder -- a trained :class:`SchemaRouter`,
or a cluster's dispatcher: anything with their ``route_batch`` -- into a
long-lived, concurrent serving object:

* ``submit_many(questions)`` -- route a list: the cache's verdict and the
  within-wave dedup, a decode, then the cache fill, counters and latency --
  the one request path around a decode, a cluster's front included;
* ``submit(question)`` -- the same path for a wave of one;
* ``stats()`` -- a JSON-friendly snapshot of QPS, latency percentiles, cache
  hit rate, and the batch-size histogram.

The cache holds tuples and every asked question gets a list of its own.  An
answer is cached under the catalog version read before its wave's probe, so
one decoded across a catalog change is served but not cached; so is a
:class:`Provisional` one.

Concurrent callers coalesce by group commit on the service's own lock.  A
caller's cache misses become a ticket.  If no decode is running, the caller
leads: it takes every queued ticket and decodes them on its own thread, one
``route_batch`` per ``max_candidates``.  Callers that arrive while a decode
runs queue their tickets and share the next one, so one decode runs at a
time.  There is no thread, no timer and no batch cap, so a lone caller is
never held back.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.core.router import SchemaRoute, SchemaRouter, candidate_budget
from repro.obs import Tracer
from repro.obs.health import (
    HealthReport,
    cache_health,
    error_rate_health,
    queue_health,
    rollup,
)
from repro.serving.cache import RouteCache
from repro.serving.metrics import MetricsRegistry


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one service instance."""

    enable_cache: bool = True
    cache_size: int = 2048
    #: Record a per-request trace (queue/encode/decode/parse spans).  On by
    #: default: a traced wave's spans cost a few microseconds each, created
    #: and closed, and nothing else (``repro.obs.trace``, "Cheap when on").
    enable_tracing: bool = True


class BatchResultCountError(RuntimeError):
    """A decode returned a different number of results than it was given
    questions, so no result can be matched to its request."""


@dataclass
class _Ticket:
    """One caller's cache misses, waiting for a decode."""

    questions: list[str]
    max_candidates: int | None
    trace: object | None
    #: Open while the ticket waits behind a running decode.
    queue_span: object | None = None
    answers: list | None = None
    error: BaseException | None = None

    @property
    def settled(self) -> bool:
        return self.answers is not None or self.error is not None


class Provisional(list):
    """A decoded answer served but never cached: an answer for now, not a
    fact about the catalog (e.g. merged from a cluster's partial gather)."""


class RoutingService:
    """Serves schema-routing requests from a decoder, ``router``."""

    def __init__(self, router, config: ServingConfig | None = None) -> None:
        if not getattr(router, "is_trained", True):
            raise ValueError("RoutingService requires a trained router "
                             "(train with fit() or load a checkpoint)")
        self.router = router
        self.config = config or ServingConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(metrics=self.metrics,
                             enabled=self.config.enable_tracing)
        self.cache: RouteCache | None = None
        if self.config.enable_cache:
            self.cache = RouteCache(max_size=self.config.cache_size)
        #: Group commit: tickets queued behind the running decode, and
        #: whether some caller is leading one (at most one at a time).
        self._turn = threading.Condition()
        self._tickets: list[_Ticket] = []
        self._leading = False
        self._closed = False

    # -- construction --------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, path: str | Path,
                        config: ServingConfig | None = None) -> "RoutingService":
        """Boot a service from a checkpoint directory — no training run."""
        return cls(SchemaRouter.from_checkpoint(path), config=config)

    # -- request path --------------------------------------------------------
    def submit(self, question: str,
               max_candidates: int | None = None) -> list[SchemaRoute]:
        """Route one question (blocking); safe to call from many threads."""
        return self.submit_many([question], max_candidates)[0]

    def variant(self, max_candidates: int | None) -> int | None:
        """The cache variant and decode group of a request's answer size:
        None for no value *and* for the decoder's own default, so both share
        one cache entry, one empty key suffix and one decode; a budget below
        1 is a ``ValueError``."""
        max_candidates = candidate_budget(max_candidates, None)
        if max_candidates == self.router.default_max_candidates:
            return None
        return max_candidates

    def _consult(self, questions: Sequence[str], max_candidates: int | None = None
                ) -> tuple[list, list[int], int | None]:
        """The route cache's verdict on a wave: ``(results, pending, version)``.

        ``results`` holds each question's cached routes (its own list) or None;
        ``pending`` is the first index of each missing question (a repeat
        decodes once); ``version`` is the cache's catalog version before the
        probe.  ``requests`` and ``cache_hits`` move together under one
        registry lock per wave: per-question bumps would dominate a cache-hot
        wave.  The decoder settles the wave with :meth:`_commit`, or
        :meth:`_count_failed` if the decode raised."""
        max_candidates = self.variant(max_candidates)
        version = self.cache.catalog_version if self.cache is not None else None
        results: list = (self.cache.get_many(questions, variant=max_candidates)
                         if self.cache is not None else [None] * len(questions))
        first_index: dict[str, int] = {}
        missed = 0
        for index, routes in enumerate(results):
            if routes is None:
                missed += 1
                first_index.setdefault(questions[index], index)
            else:
                results[index] = list(routes)
        moves = {"requests": len(questions)}
        if missed < len(questions):
            moves["cache_hits"] = len(questions) - missed
        self.metrics.increment_many(moves)
        return results, list(first_index.values()), version

    def _commit(self, questions: Sequence[str], consulted: tuple,
               answers: Sequence[list[SchemaRoute]],
               max_candidates: int | None, started: float) -> None:
        """Settle a consulted wave whose pending indices decoded to
        ``answers``: fill and cache them (as tuples under the consulted
        version, unless :class:`Provisional`), copy each into its within-wave
        repeats, count every answered miss as ``routed`` (one bump per wave),
        and observe the wave's per-question latency since ``started``."""
        results, pending, version = consulted
        if pending:
            max_candidates = self.variant(max_candidates)
            answered = {}
            for index, routes in zip(pending, answers):
                results[index] = answered[questions[index]] = routes
                if self.cache is not None and not isinstance(routes, Provisional):
                    self.cache.put(questions[index], tuple(routes),
                                   variant=max_candidates, version=version)
            repeats = 0
            for index, routes in enumerate(results):
                if routes is None:
                    results[index] = list(answered[questions[index]])
                    repeats += 1
            self.metrics.increment("routed", len(pending) + repeats)
        if questions:
            self.metrics.observe_latency((time.monotonic() - started) / len(questions),
                                         count=len(questions))

    def _count_failed(self, consulted: tuple) -> None:
        """Count a consulted wave's misses as ``errors``: ``requests ==
        cache_hits + routed + errors`` whatever happens."""
        self.metrics.increment("errors", consulted[0].count(None))

    def submit_many(self, questions: Sequence[str],
                    max_candidates: int | None = None,
                    trace=None) -> list[list[SchemaRoute]]:
        """Route several questions; repeats are answered from cache, the rest
        decode by group commit (see the module docstring).

        A caller-provided ``trace`` (e.g. a cluster dispatcher's scatter scope)
        is used for the wave's spans but never finished here; without one, the
        service starts and finishes its own ``request_wave`` trace -- but only
        when the wave actually decodes something: a cache hit has no stages
        worth recording, and a per-request trace allocation would dominate
        its microsecond-scale dict lookup (cache effectiveness is observable
        through the counters instead)."""
        if self._closed:
            raise RuntimeError("the service has been closed")
        started = time.monotonic()
        max_candidates = self.variant(max_candidates)
        consulted = self._consult(questions, max_candidates)
        results, pending, _ = consulted
        owned = None
        if pending and trace is None:
            trace = owned = self.tracer.start_trace("request_wave",
                                                    questions=len(questions))
        if trace is not None:
            trace.annotate(cache_hits=len(questions) - results.count(None))
        try:
            answers = self._route_pending(questions, pending, max_candidates,
                                          trace)
        except BaseException as exc:
            self._count_failed(consulted)
            if owned is not None:
                owned.finish(status="error", error=f"{type(exc).__name__}: {exc}")
                owned = None
            raise
        finally:
            if owned is not None:
                owned.finish()
        self._commit(questions, consulted, answers, max_candidates, started)
        return results

    def _route_pending(self, questions: Sequence[str], pending: list[int],
                       max_candidates: int | None,
                       trace) -> list[list[SchemaRoute]]:
        """Decode the questions at the ``pending`` indices, in order: lead
        the next decode if none is running, else wait to share it."""
        if not pending:
            return []
        ticket = _Ticket([questions[index] for index in pending],
                         max_candidates, trace)
        with self._turn:
            self._tickets.append(ticket)
            if self._leading and trace is not None:
                ticket.queue_span = trace.start_span("queue_wait")
            while self._leading and not ticket.settled:
                self._turn.wait()
            batch = None
            if not ticket.settled:
                self._leading = True
                batch, self._tickets = self._tickets, []
        if batch is not None:
            self._lead(batch)
        if ticket.error is not None:
            raise ticket.error
        return ticket.answers

    def _lead(self, batch: list[_Ticket]) -> None:
        """Decode every ticket of ``batch`` on this thread, one
        ``route_batch`` per ``max_candidates``, then settle each ticket with
        its answers or its group's error and wake the waiters."""
        groups: dict[int | None, list[_Ticket]] = {}
        for ticket in batch:
            if ticket.queue_span is not None:
                ticket.queue_span.end()
            groups.setdefault(ticket.max_candidates, []).append(ticket)
        try:
            for max_candidates, tickets in groups.items():
                questions = [question for ticket in tickets
                             for question in ticket.questions]
                traces = [ticket.trace for ticket in tickets
                          for _ in ticket.questions]
                try:
                    answers = self.router.route_batch(
                        questions, max_candidates=max_candidates, traces=traces)
                    if len(answers) != len(questions):
                        raise BatchResultCountError(
                            f"route_batch returned {len(answers)} results for "
                            f"{len(questions)} questions")
                except Exception as error:  # settles every ticket of the group
                    for ticket in tickets:
                        ticket.error = error
                    continue
                self.metrics.observe_batch(len(questions))
                start = 0
                for ticket in tickets:
                    ticket.answers = answers[start:start + len(ticket.questions)]
                    start += len(ticket.questions)
        finally:
            with self._turn:
                for ticket in batch:
                    if not ticket.settled:  # an interrupt is unwinding the leader
                        ticket.error = RuntimeError("the leading decode was interrupted")
                self._leading = False
                self._turn.notify_all()

    def queue_depth(self) -> int:
        """Questions queued behind the running decode: the backlog that
        health judges."""
        with self._turn:
            return sum(len(ticket.questions) for ticket in self._tickets)

    # -- catalog change hook -------------------------------------------------
    def notify_catalog_changed(self) -> None:
        """Invalidate cached routes after the underlying catalog changes."""
        if self.cache is not None:
            self.cache.bump_version()

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-round-trip-safe snapshot (it may cross the cluster wire
        protocol verbatim): counters, QPS, latency percentiles, cache
        accounting, plus (for a router decoder) the size of the catalog slice
        this service decodes over -- which is what identifies a shard worker
        when the snapshot is read far from the process that produced it."""
        snapshot = self.metrics.snapshot()
        if isinstance(self.router, SchemaRouter):
            snapshot["num_databases"] = len(self.router.graph.catalog.database_names)
            # Constraint automaton states made so far: stands still once the
            # catalog's automaton is grown, jumps when its bound regrows it.
            constraint = self.router.constraint
            snapshot["constraint_states"] = (constraint.constraint_states
                                             if constraint is not None else 0)
        snapshot["cache"] = self.cache.stats() if self.cache is not None else None
        requests = snapshot["counters"].get("requests", 0)
        hits = snapshot["counters"].get("cache_hits", 0)
        snapshot["cache_hit_rate"] = round(hits / requests, 4) if requests else 0.0
        snapshot["traces"] = self.tracer.journal.stats()
        return snapshot

    def health(self) -> HealthReport:
        """This service's verdict: error rate, decode backlog, route cache.

        The report nests one ``route_cache`` child (when caching is on);
        child verdicts follow the rollup precedence in
        :mod:`repro.obs.health`."""
        own = HealthReport(component="routing_service")
        if self._closed:
            own.degrade("failing", "service is closed")
            return own
        error_rate_health(own, self.metrics.counters())
        queue_health(own, self.queue_depth())
        children = []
        if self.cache is not None:
            children.append(cache_health(self.cache.stats()))
        return rollup("routing_service", children, own=own)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Refuse new requests; a decode already running settles its
        tickets as usual."""
        self._closed = True

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
