"""In-memory spans recorded by the harness around calls into the program.

A span has a name, a start, an end, the span that caused it, and the id of
the wave it served.  The parent is the innermost span open on the calling
thread; a thread with none open (the micro-batcher's worker, a scatter pool
thread) is working for the one wave in flight -- there is a single caller --
so its spans hang off whatever span the caller is blocked in.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence


class Span:
    __slots__ = ("name", "start", "end", "parent", "wave", "tag")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 wave: int, tag: str | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.wave = wave
        self.tag = tag

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_seconds(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children are clipped to the span: a child on another thread may outlive
    the moment its parent stopped waiting for it."""
    clipped = [(max(child.start, span.start), min(child.end, span.end))
               for child in children
               if child.end > span.start and child.start < span.end]
    return span.seconds - covered_seconds(clipped)


def self_seconds_by_name(spans: Sequence[Span]) -> dict[str, float]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) \
            + self_seconds(span, children.get(id(span), ()))
    return totals


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        #: The span stack of the thread that opened the wave in flight.
        self._caller_stack: list[Span] = []
        self._wave = -1
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: str | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._caller_stack[-1] if self._caller_stack else None
        span = Span(name, self._clock(), parent, self._wave, tag)
        self.spans.append(span)  # list.append is atomic across threads
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close the innermost open span of this thread."""
        self._local.stack.pop()
        span.end = self._clock()

    @contextmanager
    def wave(self, wave_id: int) -> Iterator[Span]:
        """The root span of one front-door call."""
        self._wave = wave_id
        self._caller_stack = self._stack()
        root = self.begin("wave")
        try:
            yield root
        finally:
            self.finish(root)

    def wrap(self, function: Callable, name: str, tag: str | None = None,
             on_result: Callable | None = None) -> Callable:
        """``function`` with a span around every call (a plain function, so
        it still binds as a method when set on a class)."""
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            span = begin(name, tag)
            try:
                result = function(*args, **kwargs)
            finally:
                finish(span)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = function
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "tag": span.tag,
                    "start": span.start, "end": span.end, "wave": span.wave,
                    "parent": ids[id(span.parent)] if span.parent is not None else None,
                }) + "\n")
