"""Request-scoped tracing for the routing stack.

One :class:`TraceContext` per request (or per scatter wave) collects a tree
of :class:`Span` records: the root ``request`` span plus one child span per
stage the request passes through -- ``queue_wait``, ``encode``, ``decode``,
``parse``, per-shard ``scatter`` and ``wire`` spans, ``merge``, and
``escalation``.  Everything is in-process and lock-guarded; a subprocess
worker's spans cross the cluster wire as compact positional rows
(:meth:`TraceContext.span_rows`).

Design points:

* **Injectable clock.**  :class:`Tracer` takes a ``clock`` callable (default
  ``time.monotonic``), so tests drive time explicitly.
* **Zero-cost when off.**  A disabled tracer's ``start_trace`` returns
  ``None`` and every instrumentation site guards on that, so the traced hot
  path pays one ``is None`` check per stage.
* **Cheap when on.**  A traced wave of the e2e ``proc_cold`` fleet (two
  subprocess shards, waves of 8 questions, a 2-core box) costs the parent
  ~0.3 ms of CPU and its two workers ~0.5 ms together, against ~0.65 ms and
  ~1.1 ms when workers shipped span dicts that the parent rebuilt field by
  field (traced and untraced waves interleaved on one booted fleet).  What
  keeps it there: a span id is a random int, formatted only when read; a
  finished trace feeds its stage metrics in one call and lets go of its
  spans (no reference cycle is left for the cyclic collector); worker spans
  travel as rows of ints and strings and become :class:`Span` objects only
  when the trace is read.
* **Stage metrics.**  When the tracer is built over a
  :class:`repro.serving.metrics.MetricsRegistry`, a finished trace feeds the
  durations of its locally-recorded spans to ``observe_stages`` -- the
  stage-breakdown percentiles survive after the journal drops the trace
  itself.
* **Leak-proof finish.**  ``TraceContext.finish()`` force-closes any child
  span still open (an abandoned timeout thread, a crashed worker's scatter
  arm) with ``status="error"`` before the trace completes, so the journal
  never accumulates open traces.  A leaked thread that ends its span *after*
  the finish hits an idempotent no-op.
* **Remote stitching.**  Subprocess workers adopt the parent's trace id
  (:meth:`Tracer.adopt`), record their own spans, and return them in the
  ``route_response`` frame as :meth:`TraceContext.span_rows`;
  :meth:`TraceContext.add_remote_spans` keeps the rows, and the first read
  of the trace rebases their timestamps (the child runs on a different
  monotonic epoch) onto the parent's ``wire`` span and splices them into
  the tree (:func:`stitch_span_rows`).
* **Bounded journal.**  :class:`TraceJournal` tracks open traces and retains
  only the N slowest completed traces as exemplars -- the operator's "what do
  my worst requests look like" view, at O(N) memory forever.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from typing import Callable, Iterable, Sequence

#: Seeded from ``os.urandom`` at import, so every process (dispatcher and
#: subprocess workers alike) draws from an independent stream.  A shared PRNG
#: beats ``uuid.uuid4()`` here: ids are minted on the request hot path, and
#: uuid4 pays an ``os.urandom`` syscall per call for cryptographic strength
#: that trace ids do not need.
_ids = random.Random()


def _new_id() -> str:
    return f"{_ids.getrandbits(64):016x}"


class Span:
    """One timed operation inside a trace.

    ``started``/``ended`` are clock readings from the owning tracer's clock
    (monotonic seconds by default); ``ended is None`` marks an open span.
    ``remote=True`` marks a span stitched in from another process -- its
    timestamps have been rebased and it never feeds local stage metrics.

    A span's id is a random 64-bit int, formatted as hex only when read
    (``span_id``); its parent is held as the parent :class:`Span` itself, or
    as the id string a wire frame named, so opening a child formats nothing.
    """

    __slots__ = ("trace_id", "_id", "_parent", "name", "started", "ended",
                 "status", "error", "attributes", "remote", "_context")

    def __init__(self, context: "TraceContext | None", trace_id: str,
                 parent: "Span | str | None", name: str, started: float,
                 attributes: dict, ended: float | None = None,
                 status: str = "ok", error: str | None = None,
                 remote: bool = False) -> None:
        self.trace_id = trace_id
        self._id = _ids.getrandbits(64)
        self._parent = parent
        self.name = name
        self.started = started
        self.ended = ended
        self.status = status
        self.error = error
        self.attributes = attributes
        self.remote = remote
        self._context = context

    @property
    def span_id(self) -> str:
        return f"{self._id:016x}"

    @property
    def parent_id(self) -> str | None:
        parent = self._parent
        return parent.span_id if isinstance(parent, Span) else parent

    @property
    def duration_seconds(self) -> float | None:
        return None if self.ended is None else self.ended - self.started

    def annotate(self, **attributes: object) -> None:
        self.attributes.update(attributes)

    def end(self, status: str = "ok", error: str | None = None) -> None:
        """Close the span (idempotent: only the first call takes effect)."""
        context = self._context
        if context is not None:
            context._close_span(self, status, error)

    def to_dict(self) -> dict:
        """A JSON-safe record (the shape the journal retains)."""
        duration = self.duration_seconds
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started": self.started,
            "ended": self.ended,
            "duration_ms": round(duration * 1000.0, 3) if duration is not None else None,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "remote": self.remote,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.ended is None else f"{self.status}"
        return f"Span({self.name!r}, {state}, trace={self.trace_id})"


class TraceContext:
    """The spans of one request; hand out via :meth:`Tracer.start_trace`.

    Thread-safe: scatter arms and decode leaders open and close spans
    concurrently.  The context is *finished* exactly once (by whoever created
    it); spans started by threads that outlive the finish become detached
    no-ops instead of corrupting the completed record.
    """

    def __init__(self, tracer: "Tracer", trace_id: str, name: str,
                 parent_span_id: str | None = None,
                 attributes: dict | None = None) -> None:
        self._tracer = tracer
        self._clock = tracer._clock
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        #: Remote span rows not yet built: ``(rows, anchor, anchor end)``.
        self._remote: list[tuple[Sequence, Span, float]] = []
        self._finished = False
        self.root = self._new_span(name, parent_span_id, attributes or {})

    # -- span lifecycle ------------------------------------------------------
    def _new_span(self, name: str, parent: Span | str | None,
                  attributes: dict) -> Span:
        span = Span(self, self.trace_id, parent, name, self._clock(),
                    attributes)
        with self._lock:
            if self._finished:
                # A thread that outlived the finish: the span is detached
                # (never recorded, ``end()`` a no-op) instead of corrupting
                # the completed record.
                span._context = None
            else:
                self._spans.append(span)
        return span

    def _close_span(self, span: Span, status: str, error: str | None) -> None:
        with self._lock:
            if span.ended is not None:
                return
            span.ended = self._clock()
            span.status = status
            if error is not None:
                span.error = error

    def start_span(self, name: str, parent: Span | None = None,
                   **attributes: object) -> Span:
        """Open a child span (parented to the root unless given a parent)."""
        return self._new_span(name, parent if parent is not None else self.root,
                              attributes)

    def span(self, name: str, parent: Span | None = None,
             **attributes: object) -> "_Ending":
        """``with trace.span(...) as span:`` -- closed on exit, with an
        error status if the body raised."""
        span = self._new_span(name, parent if parent is not None else self.root,
                              attributes)
        return _Ending((span,), span)

    def annotate(self, **attributes: object) -> None:
        self.root.annotate(**attributes)

    def scoped(self, span: Span) -> "ScopedTrace":
        """A view of this context whose default parent is ``span``."""
        return ScopedTrace(self, span)

    # -- wire propagation ----------------------------------------------------
    def wire_context(self, parent: Span | None = None) -> dict:
        """The JSON-safe propagation payload a remote peer adopts from."""
        anchor = parent if parent is not None else self.root
        return {"trace_id": self.trace_id, "parent_span_id": anchor.span_id}

    def span_rows(self) -> list[list]:
        """This trace as the compact positional rows a peer ships back.

        One row per span, in recording order (a parent always precedes its
        children)::

            [parent, name, started_ns, ended_ns, status, error, attributes]

        ``parent`` is the row index of the span's parent, or ``None`` for a
        span whose parent is not in this trace (the adopted root, which the
        receiver hangs off its ``wire`` anchor).  Times are integer
        nanoseconds since the root started: only the layout survives a
        change of clock epoch anyway, and JSON writes and reads an int
        several times faster than a float.  The trace id, the span ids, the
        duration and the remote flag are left out: the receiver knows the
        first, mints the second and derives the rest.  Call it on a finished
        trace (every span closed).
        """
        spans = self.spans()
        origin = self.root.started
        position = {id(span): index for index, span in enumerate(spans)}
        return [[position.get(id(span._parent)), span.name,
                 round((span.started - origin) * 1e9),
                 round((span.ended - origin) * 1e9),
                 span.status, span.error, span.attributes]
                for span in spans]

    def add_remote_spans(self, rows: Sequence[Sequence], anchor: Span) -> None:
        """Splice the :meth:`span_rows` of a remote peer under ``anchor``.

        The rows are kept as they arrived and become :class:`Span` objects
        (:func:`stitch_span_rows`) only when the trace is read --
        :meth:`spans` and everything built on it, journal retention
        included -- so a trace nobody reads never pays for them.  The
        anchor's window is fixed now: an anchor still open ends at this
        instant for the rebase.
        """
        anchor_end = anchor.ended if anchor.ended is not None \
            else self._clock()
        with self._lock:
            if not self._finished:
                self._remote.append((rows, anchor, anchor_end))

    # -- completion ----------------------------------------------------------
    def finish(self, status: str = "ok", error: str | None = None) -> None:
        """Close the root span and complete the trace (idempotent).

        Any child span still open -- a timed-out scatter arm, an abandoned
        worker thread -- is force-closed with an error status first: traces
        complete with a full accounting instead of leaking open spans.
        """
        with self._lock:
            if self._finished:
                return
            self._finished = True
            now = self._clock()
            for span in self._spans:
                # A finished span's ``end()`` is a no-op, so the span lets go
                # of its context: no span <-> context cycle outlives the
                # trace, and a trace is freed by reference counting instead
                # of waiting for the cyclic garbage collector.
                span._context = None
                if span.ended is None and span is not self.root:
                    span.ended = now
                    span.status = "error"
                    span.error = error or "abandoned"
            root = self.root
            if root.ended is None:
                root.ended = now
                root.status = status
                if error is not None:
                    root.error = error
        self._tracer._complete(self)

    # -- introspection -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    def open_span_count(self) -> int:
        with self._lock:
            return sum(span.ended is None for span in self._spans)

    def spans(self) -> list[Span]:
        """Every recorded span.  Remote rows become spans, appended, on the
        first read after they arrive."""
        with self._lock:
            if self._remote:
                for rows, anchor, anchor_end in self._remote:
                    self._spans.extend(stitch_span_rows(rows, anchor, anchor_end))
                self._remote.clear()
            return list(self._spans)

    def span_dicts(self) -> list[dict]:
        return [span.to_dict() for span in self.spans()]

    def find_spans(self, name: str) -> list[Span]:
        return [span for span in self.spans() if span.name == name]

    def duration_seconds(self) -> float | None:
        return self.root.duration_seconds


def stitch_span_rows(rows: Sequence[Sequence], anchor: Span,
                     anchor_end: float) -> list[Span]:
    """Build a peer's :meth:`TraceContext.span_rows` as remote spans under
    ``anchor``, in one pass.

    The peer's clock shares no epoch with ours, so its window is rebased to
    be centered inside the anchor (wire) span's ``[started, anchor_end]``
    -- request serialization and reply parsing straddle it symmetrically,
    which is as close as two unsynchronized monotonic clocks get.  No
    per-field checks: the peer is a worker of this source tree, and rows of
    any other shape (a corrupt payload) are dropped whole -- the result is
    ``[]``.  Remote spans never feed local stage metrics (the remote side
    already recorded them against its own registry).
    """
    try:
        low = min(row[2] for row in rows)
        high = max(row[3] for row in rows)
        offset = (anchor.started + anchor_end) / 2.0 - (low + high) * 0.5e-9
        stitched: list[Span] = []
        for parent, name, started, ended, status, error, attributes in rows:
            stitched.append(Span(
                None, anchor.trace_id,
                anchor if parent is None else stitched[parent], name,
                started * 1e-9 + offset, attributes,
                ended=ended * 1e-9 + offset, status=status, error=error,
                remote=True))
    except (TypeError, ValueError, IndexError, KeyError):
        return []
    return stitched


class ScopedTrace:
    """A :class:`TraceContext` view rooted at one of its spans.

    Layers hand a scope down the call chain (dispatcher -> replica -> shard
    service) so spans opened deeper nest under the caller's span instead of
    the trace root.  Duck-compatible with :class:`TraceContext` for every
    downstream instrumentation site.
    """

    __slots__ = ("context", "parent")

    def __init__(self, context: TraceContext, parent: Span) -> None:
        self.context = context
        self.parent = parent

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def start_span(self, name: str, parent: Span | None = None,
                   **attributes: object) -> Span:
        return self.context._new_span(
            name, parent if parent is not None else self.parent, attributes)

    def span(self, name: str, parent: Span | None = None,
             **attributes: object) -> "_Ending":
        return self.context.span(
            name, parent=parent if parent is not None else self.parent,
            **attributes)

    def annotate(self, **attributes: object) -> None:
        self.parent.annotate(**attributes)

    def scoped(self, span: Span) -> "ScopedTrace":
        return ScopedTrace(self.context, span)

    def wire_context(self, parent: Span | None = None) -> dict:
        return self.context.wire_context(
            parent if parent is not None else self.parent)

    def add_remote_spans(self, rows: Sequence[Sequence], anchor: Span) -> None:
        self.context.add_remote_spans(rows, anchor)


class TraceJournal:
    """Bounded trace accounting: open traces + the N slowest exemplars.

    Completed traces are counted and then forgotten, except for the
    ``max_slow_traces`` slowest, whose full span trees are retained (a
    min-heap keyed by duration keeps insertion O(log N)).  ``stats()`` is
    JSON-round-trip-safe and cheap, so it rides along in every service
    snapshot; :meth:`slowest` returns the full exemplar records for
    debugging and tests.
    """

    def __init__(self, max_slow_traces: int = 8) -> None:
        if max_slow_traces < 0:
            raise ValueError("max_slow_traces must be non-negative")
        self.max_slow_traces = max_slow_traces
        self._lock = threading.Lock()
        self._open: dict[int, TraceContext] = {}
        self._slowest: list[tuple[float, int, dict]] = []
        self._sequence = itertools.count()
        self.completed = 0
        self.errors = 0

    # -- tracer hooks --------------------------------------------------------
    def _opened(self, context: TraceContext) -> None:
        with self._lock:
            self._open[id(context)] = context

    def _completed(self, context: TraceContext) -> None:
        duration = context.duration_seconds() or 0.0
        with self._lock:
            self._open.pop(id(context), None)
            self.completed += 1
            if context.root.status != "ok":
                self.errors += 1
            # Decide retention *before* building the record: serializing the
            # span tree is the expensive part, and most traces are not among
            # the N slowest -- they must cost nothing beyond the counters.
            retain = self.max_slow_traces > 0 and (
                len(self._slowest) < self.max_slow_traces
                or duration > self._slowest[0][0])
        if not retain:
            return
        record = {
            "trace_id": context.trace_id,
            "name": context.root.name,
            "status": context.root.status,
            "duration_ms": round(duration * 1000.0, 3),
            "num_spans": len(context.spans()),
            "spans": context.span_dicts(),
        }
        with self._lock:
            item = (duration, next(self._sequence), record)
            if len(self._slowest) < self.max_slow_traces:
                heapq.heappush(self._slowest, item)
            elif item[0] > self._slowest[0][0]:
                heapq.heapreplace(self._slowest, item)

    # -- reading -------------------------------------------------------------
    def open_trace_count(self) -> int:
        with self._lock:
            return len(self._open)

    def open_span_count(self) -> int:
        with self._lock:
            contexts = list(self._open.values())
        return sum(context.open_span_count() for context in contexts)

    def slowest(self) -> list[dict]:
        """Retained exemplars, slowest first, with their full span trees."""
        with self._lock:
            items = sorted(self._slowest, reverse=True)
        return [record for _, _, record in items]

    def find(self, trace_id: str) -> dict | None:
        for record in self.slowest():
            if record["trace_id"] == trace_id:
                return record
        return None

    def stats(self) -> dict:
        """A JSON-safe summary (exemplars are listed without their spans)."""
        with self._lock:
            contexts = list(self._open.values())
            items = sorted(self._slowest, reverse=True)
            completed = self.completed
            errors = self.errors
        return {
            "open_traces": len(contexts),
            "open_spans": sum(context.open_span_count() for context in contexts),
            "completed": completed,
            "errors": errors,
            "retained": len(items),
            "slowest": [
                {key: record[key] for key in
                 ("trace_id", "name", "status", "duration_ms", "num_spans")}
                for _, _, record in items
            ],
        }


class Tracer:
    """Creates traces, feeds stage metrics, and owns the journal.

    ``metrics`` is an optional :class:`repro.serving.metrics.MetricsRegistry`;
    when present, a finished trace feeds the durations of all its
    locally-recorded spans to ``observe_stages`` in one call.  ``enabled=False``
    turns :meth:`start_trace` into a ``None``-returning no-op (the untraced
    hot path); :meth:`adopt` ignores the flag, because a wire frame carrying
    a trace id *is* the instruction to trace.
    """

    def __init__(self, metrics=None, enabled: bool = True,
                 clock: Callable[[], float] = time.monotonic,
                 max_slow_traces: int = 8) -> None:
        self.metrics = metrics
        self.enabled = enabled
        self._clock = clock
        self.journal = TraceJournal(max_slow_traces=max_slow_traces)

    def start_trace(self, name: str = "request",
                    **attributes: object) -> TraceContext | None:
        if not self.enabled:
            return None
        context = TraceContext(self, _new_id(), name, attributes=attributes)
        self.journal._opened(context)
        return context

    def adopt(self, trace_id: str, parent_span_id: str | None,
              name: str = "worker", **attributes: object) -> TraceContext:
        """Join a trace started elsewhere (the worker child side)."""
        context = TraceContext(self, str(trace_id), name,
                               parent_span_id=parent_span_id,
                               attributes=attributes)
        self.journal._opened(context)
        return context

    # -- context hooks -------------------------------------------------------
    def _complete(self, context: TraceContext) -> None:
        # Once finished, no local span joins the context and every one is
        # closed: one call observes them all.
        if self.metrics is not None:
            self.metrics.observe_stages(
                [(span.name, span.ended - span.started)
                 for span in context._spans if not span.remote])
        self.journal._completed(context)


# -- instrumentation helpers ---------------------------------------------------
def distinct_traces(traces: Iterable | None) -> list:
    """The distinct non-``None`` contexts of a per-question trace list.

    A batched ``route_batch`` call may serve several requests that coalesced
    into one decode -- each stage should open one span per *request*,
    not per question, so repeated contexts collapse (by identity)."""
    if not traces:
        return []
    seen: set[int] = set()
    distinct = []
    for trace in traces:
        if trace is None or id(trace) in seen:
            continue
        seen.add(id(trace))
        distinct.append(trace)
    return distinct


class _Ending:
    """Closes its spans on exit -- ``ok``, or ``error`` naming the exception
    the body raised -- and enters as ``value``.  The one context manager
    behind :meth:`TraceContext.span`, :func:`stage_spans` and
    :func:`maybe_span`."""

    __slots__ = ("spans", "value")

    def __init__(self, spans: Sequence[Span], value: object) -> None:
        self.spans = spans
        self.value = value

    def __enter__(self):
        return self.value

    def __exit__(self, kind, error, traceback) -> None:
        if kind is None:
            for span in self.spans:
                span.end()
        else:
            message = f"{kind.__name__}: {error}"
            for span in self.spans:
                span.end(status="error", error=message)


def stage_spans(contexts: Sequence, name: str, **attributes: object) -> _Ending:
    """Open one ``name`` span on every context; close them all on exit.

    Enters as the span list so the body can annotate them (e.g. decode-engine
    counters); an exception closes every span with an error status."""
    spans = [context.start_span(name, **attributes) for context in contexts]
    return _Ending(spans, spans)


_UNTRACED = _Ending((), None)


def maybe_span(trace, name: str, **attributes: object) -> _Ending:
    """``trace.span(...)`` when tracing, a no-op entering as ``None``
    otherwise."""
    if trace is None:
        return _UNTRACED
    return trace.span(name, **attributes)
