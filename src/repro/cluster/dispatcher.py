"""Scatter-gather dispatch across shard targets.

The dispatcher scatters one wave to every shard, gathers the per-shard
candidate lists, and merges them into one deterministic top-k per question
with :func:`repro.core.router.merge_route_lists`.  Because every shard scores
with the same underlying model, pooled softmax normalization keeps the merged
ranking identical to what a monolithic router would prefer, and the
``(-score, database, tables)`` sort makes the result independent of shard
gather order.  A wave asks each shard each question once: within-wave
repeats collapse before the scatter, and the merged answer fans back out as
one fresh list per asked question.

There is one scatter path per backend.  An inproc fleet's scatter *is* its
:class:`repro.cluster.wave.ClusterWaveEngine`: one stacked decode.  Otherwise
the calling thread sends every shard's frame, then waits on each reply in
shard order itself, with no thread pool -- subprocess workers, where each
target is the ``send`` of a :class:`repro.cluster.replica.ReplicaSet` of
:class:`repro.cluster.procworker.ProcShardWorker` proxies that own their
request deadlines and raise :class:`ShardTimeoutError` themselves.  Targets
are senders (``target(questions, max_candidates) -> wait``, and ``wait()``
returns per-question route lists), so a stub answering at send serves too.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Sequence

from repro.core.router import RouteRow, SchemaRoute, merge_route_lists
from repro.obs.trace import Span, maybe_span
from repro.serving.cache import RouteCache

#: A shard target: ``(questions, max_candidates, trace=None) -> wait``;
#: ``wait()`` returns per-question lists of routes or, from a subprocess
#: worker, of the reply's ``(score, database, tables)`` rows, which stay rows
#: until the merge.
ShardTarget = Callable[..., Callable[[], "list[list[SchemaRoute | RouteRow]]"]]


class ClusterError(RuntimeError):
    """A shard (or all replicas of a shard) failed to answer."""


class ShardTimeoutError(ClusterError):
    """A shard did not answer within its timeout."""


class ClusterDispatcher:
    """Scatter ``route_batch`` across shards, gather, and merge top-k.

    With ``careful_targets`` and an ``escalation_threshold`` the dispatcher
    runs a two-tier cascade: every question goes through the (cheap) primary
    targets first, and only questions whose merged top-1 confidence -- the
    pooled softmax weight -- falls below the threshold are re-scattered to the
    careful tier (typically the same shards at a wider beam budget).  Ambiguous
    questions are exactly the low-confidence ones, so the cascade restores
    monolithic fidelity while paying wide-beam cost on a small fraction of
    traffic.

    With an ``escalated_cache`` the cascade remembers what it decided: the
    merged careful answer of every question it escalates, keyed like the
    shard caches (normalised question + ``max_candidates``).  The fast tier
    still answers every question and the gate is still judged on those
    answers each wave -- so ``escalations`` keeps counting *verdicts* -- but
    a needy question whose careful answer is remembered
    (``escalations_remembered``) costs no second scatter.  A merged answer
    is a function of the whole catalog, so whoever owns the cache bumps its
    version on any shard's change, after the shards themselves changed; an
    answer is remembered only if no bump landed since before its wave's fast
    scatter, and never from a partial gather.
    """

    def __init__(self, targets: Sequence[ShardTarget],
                 default_max_candidates: int = 5,
                 allow_partial: bool = False,
                 careful_targets: Sequence[ShardTarget] | None = None,
                 escalation_threshold: float | None = None,
                 wave_engine=None,
                 escalated_cache: RouteCache | None = None) -> None:
        if not targets:
            raise ValueError("the dispatcher needs at least one shard target")
        if careful_targets is not None and len(careful_targets) != len(targets):
            raise ValueError("careful_targets must pair up with targets")
        if escalation_threshold is not None and not 0.0 < escalation_threshold <= 1.0:
            raise ValueError("escalation_threshold must be in (0, 1]")
        self.targets = list(targets)
        self.careful_targets = list(careful_targets) if careful_targets else None
        self.escalation_threshold = escalation_threshold
        #: A :class:`repro.cluster.wave.ClusterWaveEngine` (or None): when
        #: set, both scatter tiers decode through one stacked kernel stream
        #: instead of one send per shard.
        self.wave_engine = wave_engine
        #: Merged careful-tier answers (tuples of routes) by question, or
        #: None: every escalation then scatters to the careful tier.
        self.escalated_cache = escalated_cache
        self.default_max_candidates = default_max_candidates
        self.allow_partial = allow_partial
        self._closed = False
        self._stats_lock = threading.Lock()
        self.shard_failures = 0
        #: Of the failures, how many were timeouts.  A partial gather that
        #: silently drops a slow shard is invisible to callers unless it is
        #: counted: operators watch this to tell "shard crashed" from "shard
        #: too slow for its budget".
        self.shards_timed_out = 0
        self.partial_gathers = 0
        #: Questions the gate judged needy, and of those, how many were
        #: answered from ``escalated_cache`` instead of a careful scatter.
        self.escalations = 0
        self.escalations_remembered = 0

    @property
    def num_shards(self) -> int:
        return len(self.targets)

    # -- request path --------------------------------------------------------
    def route_batch(self, questions: Sequence[str],
                    max_candidates: int | None = None,
                    trace=None) -> list[list[SchemaRoute]]:
        """Scatter the wave's distinct ``questions`` to every shard and merge.

        A wave asks each shard each question once: repeats (exact strings,
        not the caches' normalised keys) collapse before the scatter, so the
        gather, the merge, the gate, the memo and the careful scatter see
        each distinct question once, in first-seen order.  The return has
        one fresh list per *asked* question, in asked order.  ``escalations``
        and ``escalations_remembered`` count asked questions too: a needy
        question asked three times is three verdicts.

        Raises :class:`ClusterError` when a shard fails (or, with
        ``allow_partial``, only when *every* shard fails); a partial gather
        merges whatever answered and counts the miss in ``shard_failures``.

        With a ``trace`` (a ``repro.obs`` context or scope), the dispatch
        annotates the trace's root with ``distinct_questions`` and records
        one ``scatter`` span per shard (the shard-layer spans nest under it),
        a ``merge`` span (annotated ``escalations_remembered=n`` when the
        cascade answered ``n`` asked questions from memory), and -- only when
        something is re-scattered -- an ``escalation`` span covering the
        careful scatter; these spans count the distinct questions sent.
        """
        if self._closed:
            raise RuntimeError("the dispatcher has been closed")
        if not questions:
            return []
        distinct = list(dict.fromkeys(questions))
        if trace is not None:
            trace.annotate(distinct_questions=len(distinct))
        answer_of = dict(zip(distinct, self._route_distinct(
            distinct, questions, max_candidates, trace)))
        return [list(answer_of[question]) for question in questions]

    def _route_distinct(self, distinct: list[str], asked: Sequence[str],
                        max_candidates: int | None,
                        trace) -> "list[Sequence[SchemaRoute]]":
        """The cascade over ``distinct`` questions; ``asked`` (the wave with
        its repeats) weighs the escalation counters."""
        memo = self.escalated_cache
        # Read before the fast scatter: a careful answer is remembered only
        # if no catalog change landed between here and its ``put``.
        version = memo.catalog_version if memo is not None else None
        merged, merge_span = self._merge(
            self._gather(distinct, max_candidates, careful=False, trace=trace),
            distinct, max_candidates, trace)
        if self.careful_targets is None or self.escalation_threshold is None:
            return merged
        needy = [index for index, routes in enumerate(merged)
                 if not routes or routes[0].score < self.escalation_threshold]
        if not needy:
            return merged
        copies = Counter(asked)
        verdicts = sum(copies[distinct[index]] for index in needy)
        if memo is not None:
            known = memo.get_many([distinct[index] for index in needy],
                                  variant=max_candidates)
            unknown = []
            for index, routes in zip(needy, known):
                if routes is None:
                    unknown.append(index)
                else:
                    merged[index] = routes
            needy = unknown
        remembered = verdicts - sum(copies[distinct[index]] for index in needy)
        if remembered and merge_span is not None:
            merge_span.annotate(escalations_remembered=remembered)
        with self._stats_lock:
            self.escalations += verdicts
            self.escalations_remembered += remembered
        if not needy:
            return merged
        escalation_span = None
        escalation_trace = trace
        if trace is not None:
            escalation_span = trace.start_span("escalation", questions=len(needy))
            escalation_trace = trace.scoped(escalation_span)
        try:
            needy_questions = [distinct[index] for index in needy]
            gathered = self._gather(needy_questions, max_candidates, careful=True,
                                    trace=escalation_trace)
            careful, _ = self._merge(gathered, needy_questions, max_candidates,
                                     escalation_trace)
        except BaseException as exc:
            if escalation_span is not None:
                escalation_span.end(status="error",
                                    error=f"{type(exc).__name__}: {exc}")
            raise
        if escalation_span is not None:
            escalation_span.end()
        # A partial gather is an answer for now, not a fact about the catalog.
        memorable = memo is not None and len(gathered) == self.num_shards
        for index, routes in zip(needy, careful):
            merged[index] = routes
            if memorable:
                memo.put(distinct[index], tuple(routes), variant=max_candidates,
                         version=version)
        return merged

    def _gather(self, questions: list[str], max_candidates: int | None,
                careful: bool, trace=None) -> "list[list[list[SchemaRoute | RouteRow]]]":
        """One tier's answers, ``[shard][question]``; a shard that a partial
        gather dropped is absent from the outer list."""
        if self.wave_engine is not None:
            # The wave engine's single kernel stream IS the scatter.  An
            # engine failure is a whole-wave failure (there is no per-shard
            # partial gather on this path).
            try:
                return self.wave_engine.route_wave(
                    questions, max_candidates=max_candidates, careful=careful,
                    trace=trace)
            except Exception as error:
                with self._stats_lock:
                    self.shard_failures += 1
                raise ClusterError("wave decode failed") from error
        return self._scatter(self.careful_targets if careful else self.targets,
                             questions, max_candidates, trace)

    def _merge(self, gathered: "list[list[list[SchemaRoute | RouteRow]]]",
               questions: list[str],
               max_candidates: int | None,
               trace=None) -> "tuple[list[list[SchemaRoute]], Span | None]":
        """Merged top-k per question, and the ``merge`` span that timed it."""
        limit = max_candidates if max_candidates is not None else self.default_max_candidates
        with maybe_span(trace, "merge", shards=len(gathered),
                        questions=len(questions)) as span:
            merged = [
                merge_route_lists((shard_answers[index] for shard_answers in gathered),
                                  max_candidates=limit)
                for index in range(len(questions))
            ]
        return merged, span

    def _scatter(self, targets: Sequence[ShardTarget], questions: list[str],
                 max_candidates: int | None,
                 trace=None) -> "list[list[list[SchemaRoute | RouteRow]]]":
        # Every frame goes out before any reply is awaited (the workers decode
        # in parallel), and every sent frame is awaited before a failure is raised.
        legs = []
        for index, target in enumerate(targets):
            span = None
            kwargs = {}
            if trace is not None:
                span = trace.start_span("scatter", shard=index,
                                        questions=len(questions))
                kwargs = {"trace": trace.scoped(span)}
            try:
                wait = target(questions, max_candidates, **kwargs)
            except Exception as error:
                def wait(error=error):  # the send failed: the gather counts it
                    raise error
            legs.append((span, wait))
        gathered = []
        first_error: BaseException | None = None
        for span, wait in legs:
            try:
                gathered.append(wait())
            except Exception as error:
                if span is not None:
                    span.end(status="error", error=f"{type(error).__name__}: {error}")
                with self._stats_lock:
                    self.shard_failures += 1
                    if isinstance(error, ShardTimeoutError):
                        self.shards_timed_out += 1
                if first_error is None:
                    first_error = error
            else:
                if span is not None:
                    span.end()
        if first_error is not None:
            if not self.allow_partial or not gathered:
                raise ClusterError("shard dispatch failed") from first_error
            with self._stats_lock:
                self.partial_gathers += 1
        return gathered

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ClusterDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
