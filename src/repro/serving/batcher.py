"""Micro-batching for routing requests.

Individual ``submit`` calls (typically from many request threads) are queued
and coalesced by a single worker thread into batches of up to
``max_batch_size`` requests, waiting at most ``max_wait_seconds`` after the
first queued request before dispatching.  The batch is routed with one
``route_batch`` call, which amortizes source encoding, tokenizer setup, and
constraint setup across the batch (paper §3.5 positions the router as the
cheap front of an LLM pipeline; batching is how that stays true under load).

Requests with different ``max_candidates`` are grouped within a batch so each
group still routes in one call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class BatcherConfig:
    """Coalescing parameters."""

    max_batch_size: int = 8
    #: How long the worker waits for the batch to fill after the first request.
    max_wait_seconds: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")


@dataclass
class _Request:
    question: str
    max_candidates: int | None
    future: Future
    #: Optional repro.obs trace context riding along with the request.
    trace: object | None = None
    queue_span: object | None = None


#: ``route_batch(questions, max_candidates) -> list of per-question results``.
#: Callables may additionally accept a third positional ``traces`` argument (a
#: per-question list of trace contexts); the batcher only passes it when at
#: least one request in the group carries a trace, so plain two-argument
#: callables keep working untraced.
RouteBatchFn = Callable[[Sequence[str], "int | None"], "list"]


class BatchResultCountError(RuntimeError):
    """A ``RouteBatchFn`` returned a different number of results than it was
    given questions, so no result can be matched to its request."""


class MicroBatcher:
    """Coalesces queued routing requests into batched ``route_batch`` calls."""

    def __init__(self, route_batch: RouteBatchFn, config: BatcherConfig | None = None,
                 on_batch: Callable[[int], None] | None = None) -> None:
        self._route_batch = route_batch
        self.config = config or BatcherConfig()
        self._on_batch = on_batch
        self._queue: deque[_Request] = deque()
        self._condition = threading.Condition()
        self._closed = False
        self.batches_dispatched = 0
        self.requests_dispatched = 0
        self._worker = threading.Thread(target=self._run, name="repro-serving-batcher",
                                        daemon=True)
        self._worker.start()

    # -- client side ---------------------------------------------------------
    def submit(self, question: str, max_candidates: int | None = None,
               trace=None) -> Future:
        """Queue one question; the future resolves to its routes.

        With a ``trace``, a ``queue_wait`` span covers the time from enqueue
        until the worker thread picks the request up for dispatch."""
        future: Future = Future()
        queue_span = trace.start_span("queue_wait") if trace is not None else None
        with self._condition:
            if self._closed:
                if queue_span is not None:
                    queue_span.end(status="error", error="batcher closed")
                raise RuntimeError("the batcher has been closed")
            self._queue.append(
                _Request(question, max_candidates, future, trace, queue_span))
            self._condition.notify()
        return future

    def queue_depth(self) -> int:
        """Requests enqueued but not yet collected by the worker thread —
        the backlog the health probe judges against ``max_batch_size``."""
        with self._condition:
            return len(self._queue)

    def close(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` the queue is served first."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            if not drain:
                while self._queue:
                    request = self._queue.popleft()
                    if request.queue_span is not None:
                        request.queue_span.end(status="error",
                                               error="batcher closed")
                    request.future.set_exception(RuntimeError("batcher closed"))
            self._condition.notify_all()
        self._worker.join(timeout=10.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- worker side ---------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._dispatch(batch)

    def _collect(self) -> list[_Request] | None:
        with self._condition:
            while not self._queue:
                if self._closed:
                    return None
                self._condition.wait()
            deadline = time.monotonic() + self.config.max_wait_seconds
            while len(self._queue) < self.config.max_batch_size and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(timeout=remaining)
            count = min(len(self._queue), self.config.max_batch_size)
            return [self._queue.popleft() for _ in range(count)]

    def _dispatch(self, batch: list[_Request]) -> None:
        self.batches_dispatched += 1
        self.requests_dispatched += len(batch)
        if self._on_batch is not None:
            self._on_batch(len(batch))
        for request in batch:
            if request.queue_span is not None:
                request.queue_span.annotate(batch_size=len(batch))
                request.queue_span.end()
        # Group by max_candidates so each group is a single route_batch call.
        groups: dict[int | None, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.max_candidates, []).append(request)
        for max_candidates, requests in groups.items():
            try:
                if any(request.trace is not None for request in requests):
                    results = self._route_batch(
                        [request.question for request in requests],
                        max_candidates,
                        [request.trace for request in requests])
                else:
                    results = self._route_batch(
                        [request.question for request in requests], max_candidates)
                if len(results) != len(requests):
                    raise BatchResultCountError(
                        f"route_batch returned {len(results)} results for "
                        f"{len(requests)} questions")
            except BaseException as error:  # propagate to every waiter
                for request in requests:
                    request.future.set_exception(error)
                continue
            for request, result in zip(requests, results):
                request.future.set_result(result)
