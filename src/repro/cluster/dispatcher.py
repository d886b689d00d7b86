"""Scatter-gather dispatch across shard targets.

The dispatcher scatters one wave to every shard, gathers the per-shard
candidate lists, and merges them into one deterministic top-k per question
with :func:`repro.core.router.merge_route_lists`.  Because every shard scores
with the same underlying model, pooled softmax normalization keeps the merged
ranking identical to what a monolithic router would prefer, and the
``(-score, database, tables)`` sort makes the result independent of shard
gather order.

There is one scatter path per backend.  An inproc fleet's scatter *is* its
:class:`repro.cluster.wave.ClusterWaveEngine`: one stacked decode, through
the monolith's own decode path (:func:`repro.core.router.route_wave`) over
every shard's router.  Otherwise
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
from typing import Callable, Sequence

from repro.core.router import RouteRow, SchemaRoute, merge_route_lists
from repro.obs.trace import maybe_span
from repro.serving.service import Provisional

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

    A dispatcher is a decoder, with no lifecycle of its own: a cluster serves
    through a :class:`repro.serving.RoutingService` over it, whose route
    cache, counters, within-wave collapse and ``close`` front every wave.
    """

    def __init__(self, targets: Sequence[ShardTarget],
                 default_max_candidates: int = 5,
                 allow_partial: bool = False,
                 careful_targets: Sequence[ShardTarget] | None = None,
                 escalation_threshold: float | None = None,
                 wave_engine=None) -> None:
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
        self.default_max_candidates = default_max_candidates
        self.allow_partial = allow_partial
        self._stats_lock = threading.Lock()
        #: Questions asked of the dispatcher: the denominator of its rates.
        self.questions = 0
        self.shard_failures = 0
        #: Of the failures, how many were timeouts.  A partial gather that
        #: silently drops a slow shard is invisible to callers unless it is
        #: counted: operators watch this to tell "shard crashed" from "shard
        #: too slow for its budget".
        self.shards_timed_out = 0
        self.partial_gathers = 0
        #: Questions the gate judged needy.
        self.escalations = 0

    @property
    def num_shards(self) -> int:
        return len(self.targets)

    # -- request path --------------------------------------------------------
    def route_batch(self, questions: Sequence[str],
                    max_candidates: int | None = None,
                    traces: Sequence | None = None) -> list[list[SchemaRoute]]:
        """Scatter ``questions`` to every shard and merge, one list each.

        Raises :class:`ClusterError` when a shard fails (or, with
        ``allow_partial``, only when *every* shard fails); a partial gather
        merges whatever answered, counts the miss in ``shard_failures`` and
        returns the answers it shaped as :class:`Provisional`.

        ``traces`` is the per-question list a :class:`RoutingService` hands
        its decoder; the dispatch records into the first trace (a coalesced
        wave scatters once): one ``scatter`` span per shard (the shard-layer
        spans nest under it), a ``merge`` span, and -- only when something is
        re-scattered -- an ``escalation`` span covering the careful scatter.
        """
        if not questions:
            return []
        trace = next((trace for trace in traces or () if trace is not None), None)
        with self._stats_lock:
            self.questions += len(questions)
        gathered = self._gather(questions, max_candidates, careful=False, trace=trace)
        partial = len(gathered) < self.num_shards
        merged = self._merge(gathered, questions, max_candidates, trace, partial)
        if self.careful_targets is None or self.escalation_threshold is None:
            return merged
        needy = [index for index, routes in enumerate(merged)
                 if not routes or routes[0].score < self.escalation_threshold]
        if not needy:
            return merged
        with self._stats_lock:
            self.escalations += len(needy)
        needy_questions = [questions[index] for index in needy]
        with maybe_span(trace, "escalation", questions=len(needy)) as span:
            scope = trace.scoped(span) if span is not None else None
            gathered = self._gather(needy_questions, max_candidates, careful=True,
                                    trace=scope)
            # The gate judged the fast merge, so a partial one taints the
            # careful answers too.
            careful = self._merge(gathered, needy_questions, max_candidates, scope,
                                  partial or len(gathered) < self.num_shards)
        for index, routes in zip(needy, careful):
            merged[index] = routes
        return merged

    def _gather(self, questions: list[str], max_candidates: int | None,
                careful: bool, trace=None) -> "list[list[list[SchemaRoute | RouteRow]]]":
        """One tier's answers, ``[shard][question]``; a shard that a partial
        gather dropped is absent from the outer list."""
        if self.wave_engine is not None:
            # The wave engine's single kernel stream IS the scatter.  An
            # engine failure is a whole-wave failure (there is no per-shard
            # partial gather on this path), so it fails every shard's leg --
            # one failure per shard, as ``_scatter`` and the replica sets
            # count it.
            try:
                return self.wave_engine.route_wave(
                    questions, max_candidates=max_candidates, careful=careful,
                    trace=trace)
            except Exception as error:
                with self._stats_lock:
                    self.shard_failures += self.num_shards
                raise ClusterError("wave decode failed") from error
        return self._scatter(self.careful_targets if careful else self.targets,
                             questions, max_candidates, trace)

    def _merge(self, gathered: "list[list[list[SchemaRoute | RouteRow]]]",
               questions: list[str], max_candidates: int | None,
               trace, partial: bool) -> list[list[SchemaRoute]]:
        """Merged top-k per question; :class:`Provisional` when ``partial``."""
        limit = max_candidates if max_candidates is not None else self.default_max_candidates
        with maybe_span(trace, "merge", shards=len(gathered), questions=len(questions)):
            merged = [
                merge_route_lists((shard_answers[index] for shard_answers in gathered),
                                  max_candidates=limit)
                for index in range(len(questions))
            ]
        return [Provisional(routes) for routes in merged] if partial else merged

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

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        with self._stats_lock:
            return {"questions": self.questions,
                    "shard_failures": self.shard_failures,
                    "shards_timed_out": self.shards_timed_out,
                    "partial_gathers": self.partial_gathers,
                    "escalations": self.escalations}
