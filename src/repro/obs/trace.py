"""Request-scoped tracing for the routing stack.

One :class:`TraceContext` per request (or per scatter wave) collects a tree
of :class:`Span` records: the root ``request`` span plus one child span per
stage the request passes through -- ``queue_wait``, ``encode``, ``decode``,
``parse``, per-shard ``scatter`` and ``wire`` spans, ``merge``, and
``escalation``.  Everything is in-process and lock-guarded; span payloads are
plain JSON-safe dicts so they can cross the cluster wire protocol verbatim.

Design points:

* **Injectable clock.**  :class:`Tracer` takes a ``clock`` callable (default
  ``time.monotonic``), so tests drive time explicitly.
* **Zero-cost when off.**  A disabled tracer's ``start_trace`` returns
  ``None`` and every instrumentation site guards on that, so the traced hot
  path pays one ``is None`` check per stage.
* **Stage metrics.**  When the tracer is built over a
  :class:`repro.serving.metrics.MetricsRegistry`, every locally-recorded span
  feeds ``observe_stage(name, duration)`` on close -- the stage-breakdown
  percentiles survive after the journal drops the trace itself.
* **Leak-proof finish.**  ``TraceContext.finish()`` force-closes any child
  span still open (an abandoned timeout thread, a crashed worker's scatter
  arm) with ``status="error"`` before the trace completes, so the journal
  never accumulates open traces.  A leaked thread that ends its span *after*
  the finish hits an idempotent no-op.
* **Remote stitching.**  Subprocess workers adopt the parent's trace id
  (:meth:`Tracer.adopt`), record their own spans, and return them in the
  ``route_response`` frame; :meth:`TraceContext.add_remote_spans` rebases
  their timestamps (the child runs on a different monotonic epoch) onto the
  parent's ``wire`` span and splices them into the tree.
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
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

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
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "started", "ended",
                 "status", "error", "attributes", "remote", "_context")

    def __init__(self, context: "TraceContext | None", trace_id: str, span_id: str,
                 parent_id: str | None, name: str, started: float,
                 attributes: dict) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started = started
        self.ended: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.attributes = attributes
        self.remote = False
        self._context = context

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
        """A JSON-safe payload (the shape workers ship over the wire)."""
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
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._open_count = 0
        self._finished = False
        self.root = self._new_span(name, parent_span_id, attributes or {})

    # -- span lifecycle ------------------------------------------------------
    def _new_span(self, name: str, parent_id: str | None, attributes: dict) -> Span:
        span = Span(self, self.trace_id, _new_id(), parent_id, name,
                    self._tracer._clock(), attributes)
        with self._lock:
            if self._finished:
                # A thread that outlived the finish: the span is detached
                # (never recorded, ``end()`` a no-op) instead of corrupting
                # the completed record.
                span._context = None
            else:
                self._spans.append(span)
                self._open_count += 1
        return span

    def _close_span(self, span: Span, status: str, error: str | None) -> None:
        with self._lock:
            if span.ended is not None:
                return
            span.ended = self._tracer._clock()
            span.status = status
            if error is not None:
                span.error = error
            self._open_count -= 1
        self._tracer._span_closed(span)

    def start_span(self, name: str, parent: Span | None = None,
                   **attributes: object) -> Span:
        """Open a child span (parented to the root unless given a parent)."""
        parent_id = parent.span_id if parent is not None else self.root.span_id
        return self._new_span(name, parent_id, dict(attributes))

    @contextmanager
    def span(self, name: str, parent: Span | None = None,
             **attributes: object) -> Iterator[Span]:
        span = self.start_span(name, parent=parent, **attributes)
        try:
            yield span
        except BaseException as exc:
            span.end(status="error", error=f"{type(exc).__name__}: {exc}")
            raise
        else:
            span.end()

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

    def add_remote_spans(self, payloads: Sequence[dict], anchor: Span) -> list[Span]:
        """Splice spans recorded by a remote peer under the ``anchor`` span.

        The peer's clock shares no epoch with ours, so its window is rebased
        to be centered inside the anchor (wire) span -- request serialization
        and reply parsing straddle it symmetrically, which is as close as two
        unsynchronized monotonic clocks get.  Parentless remote spans hang
        off the anchor; remote spans never feed local stage metrics (the
        remote side already recorded them against its own registry).
        """
        records = [payload for payload in payloads if isinstance(payload, dict)]
        if not records:
            return []
        starts = [float(record.get("started") or 0.0) for record in records]
        ends = [float(record.get("ended") or record.get("started") or 0.0)
                for record in records]
        anchor_end = anchor.ended if anchor.ended is not None else self._tracer._clock()
        offset = ((anchor.started + anchor_end) / 2.0
                  - (min(starts) + max(ends)) / 2.0)
        added: list[Span] = []
        for record in records:
            started = float(record.get("started") or 0.0) + offset
            span = Span(None, self.trace_id,
                        str(record.get("span_id") or _new_id()),
                        str(record["parent_id"]) if record.get("parent_id")
                        else anchor.span_id,
                        str(record.get("name") or "remote"), started,
                        dict(record.get("attributes") or {}))
            ended = record.get("ended")
            span.ended = float(ended) + offset if ended is not None else started
            span.status = str(record.get("status") or "ok")
            error = record.get("error")
            span.error = str(error) if error is not None else None
            span.remote = True
            added.append(span)
        with self._lock:
            if not self._finished:
                self._spans.extend(added)
        return added

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
            spans = list(self._spans)
        for span in spans:
            if span is not self.root and span.ended is None:
                span.end(status="error", error=error or "abandoned")
        self.root.end(status=status, error=error)
        self._tracer._complete(self)

    # -- introspection -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    def open_span_count(self) -> int:
        with self._lock:
            return self._open_count

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def span_dicts(self) -> list[dict]:
        return [span.to_dict() for span in self.spans()]

    def find_spans(self, name: str) -> list[Span]:
        return [span for span in self.spans() if span.name == name]

    def duration_seconds(self) -> float | None:
        return self.root.duration_seconds


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
        return self.context.start_span(
            name, parent=parent if parent is not None else self.parent, **attributes)

    @contextmanager
    def span(self, name: str, parent: Span | None = None,
             **attributes: object) -> Iterator[Span]:
        with self.context.span(
                name, parent=parent if parent is not None else self.parent,
                **attributes) as span:
            yield span

    def annotate(self, **attributes: object) -> None:
        self.parent.annotate(**attributes)

    def scoped(self, span: Span) -> "ScopedTrace":
        return ScopedTrace(self.context, span)

    def wire_context(self, parent: Span | None = None) -> dict:
        return self.context.wire_context(
            parent if parent is not None else self.parent)

    def add_remote_spans(self, payloads: Sequence[dict], anchor: Span) -> list[Span]:
        return self.context.add_remote_spans(payloads, anchor)


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
    when present, every locally-recorded span feeds
    ``observe_stage(span.name, duration)`` as it closes.  ``enabled=False``
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
        context = TraceContext(self, _new_id(), name, attributes=dict(attributes))
        self.journal._opened(context)
        return context

    def adopt(self, trace_id: str, parent_span_id: str | None,
              name: str = "worker", **attributes: object) -> TraceContext:
        """Join a trace started elsewhere (the worker child side)."""
        context = TraceContext(self, str(trace_id), name,
                               parent_span_id=parent_span_id,
                               attributes=dict(attributes))
        self.journal._opened(context)
        return context

    # -- context hooks -------------------------------------------------------
    def _span_closed(self, span: Span) -> None:
        if self.metrics is not None and not span.remote and span.ended is not None:
            self.metrics.observe_stage(span.name, span.ended - span.started)

    def _complete(self, context: TraceContext) -> None:
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


@contextmanager
def stage_spans(contexts: Sequence, name: str,
                **attributes: object) -> Iterator[list[Span]]:
    """Open one ``name`` span on every context; close them all on exit.

    Yields the span list so the body can annotate them (e.g. decode-engine
    counters); an exception closes every span with an error status."""
    spans = [context.start_span(name, **attributes) for context in contexts]
    try:
        yield spans
    except BaseException as exc:
        for span in spans:
            span.end(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    else:
        for span in spans:
            span.end()


@contextmanager
def maybe_span(trace, name: str, **attributes: object) -> Iterator[Span | None]:
    """``trace.span(...)`` when tracing, a no-op otherwise."""
    if trace is None:
        yield None
        return
    with trace.span(name, **attributes) as span:
        yield span
