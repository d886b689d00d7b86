"""Admission control: token-bucket + pressure-gated load shedding.

Overload should degrade to *bounded-latency shedding*, not collapse: once a
service is saturated, every extra admitted request only lengthens the queue
everyone else waits in.  The :class:`AdmissionController` sits at the
:class:`repro.serving.RoutingService` front and decides, per request (or per
wave), whether to admit the decode or reject it immediately with a typed
:class:`AdmissionRejected` — a fast, allocation-light failure the client can
retry against ``retry_after_seconds``.

Three gates, all optional, judged in cheapest-first order:

1. **Queue depth** — the questions queued behind the service's running
   decode.  A deep backlog means admitted work would sit in line anyway;
   rejecting it keeps the queue (and therefore admitted latency) bounded.
   This is the queue-depth health signal acting instead of merely
   reporting.
2. **Burn-rate shedding** — the controller (or any monitor observer) feeds
   SLO fast-window burn via :meth:`observe_burn`.  At ``shed_burn`` the
   controller enters *shedding mode* and admits only every
   ``shed_admit_every``-th request (deterministic, so tests need no
   randomness); it leaves shedding only after the burn drops below
   ``recover_burn`` **and** ``min_shed_seconds`` have passed — hysteresis,
   so a burn flickering around the threshold cannot flap the mode.
3. **Token bucket** — a hard admitted-QPS ceiling with ``burst_requests``
   of headroom, refilled continuously on an injectable clock.

Cache hits never reach this module: the service admits *decodes*, because a
hit costs microseconds and shedding it would hurt the client without
protecting anything.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable


class AdmissionRejected(RuntimeError):
    """A request the admission controller refused to let in.

    ``reason`` is machine-readable (``"queue_depth"`` / ``"burn_rate"`` /
    ``"rate_limit"``); ``retry_after_seconds`` is the token-bucket refill
    estimate when the bucket was the gate that closed (None otherwise).
    """

    def __init__(self, reason: str, message: str,
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


#: Rejection reasons, in the order the gates are judged.
REJECT_REASONS = ("queue_depth", "burn_rate", "rate_limit")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of one admission controller (frozen, like every policy here)."""

    #: Admitted-decode QPS ceiling for the token bucket; None disables it.
    max_qps: float | None = None
    #: Bucket capacity in requests — how deep a burst may draw ahead of the
    #: refill rate before rejections start.
    burst_requests: float = 16.0
    #: Shed when this many questions are queued behind the running decode;
    #: None disables the queue gate.  Sits between the health policy's
    #: degraded (16) and failing (64) depths: shedding should start after
    #: "degraded" is visible but before the backlog is hopeless.
    queue_shed_depth: int | None = 32
    #: Enter shedding mode when the observed SLO fast burn reaches this.
    shed_burn: float = 2.0
    #: Leave shedding mode only once the burn drops below this...
    recover_burn: float = 1.0
    #: ...and the mode has been active at least this long (hysteresis).
    min_shed_seconds: float = 5.0
    #: While shedding, admit one request in this many (the rest are shed).
    #: 1 would admit everything; large values approach a full brown-out.
    shed_admit_every: int = 4

    def __post_init__(self) -> None:
        if self.max_qps is not None and self.max_qps <= 0:
            raise ValueError("max_qps must be positive (or None)")
        if self.burst_requests < 1:
            raise ValueError("burst_requests must be >= 1")
        if self.queue_shed_depth is not None and self.queue_shed_depth <= 0:
            raise ValueError("queue_shed_depth must be positive (or None)")
        if self.recover_burn > self.shed_burn:
            raise ValueError("need recover_burn <= shed_burn (hysteresis band)")
        if self.recover_burn <= 0:
            raise ValueError("burn thresholds must be positive")
        if self.min_shed_seconds < 0:
            raise ValueError("min_shed_seconds must be non-negative")
        if self.shed_admit_every < 1:
            raise ValueError("shed_admit_every must be >= 1")


class AdmissionController:
    """Thread-safe admission decisions under one :class:`AdmissionPolicy`."""

    def __init__(self, policy: AdmissionPolicy | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy or AdmissionPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(self.policy.burst_requests)
        self._refilled_at = clock()
        self._shedding = False
        self._shed_since: float | None = None
        self._shed_counter = 0
        self._burn = 0.0
        self.admitted = 0
        self.rejected = 0
        self.shed_events = 0
        self._rejected_by_reason = {reason: 0 for reason in REJECT_REASONS}

    # -- the decision --------------------------------------------------------
    def admit(self, weight: int = 1, queue_depth: int | None = None) -> None:
        """Admit ``weight`` requests or raise :class:`AdmissionRejected`.

        ``weight`` lets a wave (``submit_many``) be admitted atomically: the
        whole wave costs its cache-missing request count against the bucket.
        ``queue_depth`` is the questions already queued behind the running
        decode (None: not measured, no queue gate).
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        policy = self.policy
        with self._lock:
            if (policy.queue_shed_depth is not None and queue_depth is not None
                    and queue_depth >= policy.queue_shed_depth):
                self._reject_locked(
                    "queue_depth",
                    f"decode backlog {queue_depth} >= "
                    f"{policy.queue_shed_depth} questions",
                    weight)
            if self._shedding:
                self._shed_counter += 1
                if self._shed_counter % policy.shed_admit_every != 0:
                    self._reject_locked(
                        "burn_rate",
                        f"shedding load: SLO burn {self._burn:.2f} >= "
                        f"{policy.shed_burn:g}",
                        weight)
            if policy.max_qps is not None:
                self._refill_locked()
                if self._tokens < weight:
                    deficit = weight - self._tokens
                    self._reject_locked(
                        "rate_limit",
                        f"admitted rate at the {policy.max_qps:g} qps ceiling",
                        weight,
                        retry_after=deficit / policy.max_qps)
                self._tokens -= weight
            self.admitted += weight

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self._tokens + elapsed * self.policy.max_qps,
                               float(self.policy.burst_requests))
        self._refilled_at = now

    def _reject_locked(self, reason: str, message: str, weight: int,
                       retry_after: float | None = None) -> None:
        self.rejected += weight
        self._rejected_by_reason[reason] += weight
        raise AdmissionRejected(reason, message, retry_after_seconds=retry_after)

    # -- the feedback side ---------------------------------------------------
    def observe_burn(self, burn: float) -> bool:
        """Fold one SLO fast-burn reading in; returns the shedding state.

        Entering shedding is immediate at ``shed_burn``; leaving requires the
        burn below ``recover_burn`` *and* ``min_shed_seconds`` in the mode.
        """
        policy = self.policy
        with self._lock:
            self._burn = burn
            now = self._clock()
            if not self._shedding:
                if burn >= policy.shed_burn:
                    self._shedding = True
                    self._shed_since = now
                    self._shed_counter = 0
                    self.shed_events += 1
            elif (burn < policy.recover_burn
                    and now - self._shed_since >= policy.min_shed_seconds):
                self._shedding = False
                self._shed_since = None
            return self._shedding

    @property
    def shedding(self) -> bool:
        with self._lock:
            return self._shedding

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-safe snapshot (rides ``RoutingService.stats()``)."""
        with self._lock:
            now = self._clock()
            return {
                "shedding": self._shedding,
                "shed_active_seconds": (round(now - self._shed_since, 3)
                                        if self._shed_since is not None else 0.0),
                "shed_events": self.shed_events,
                "burn": round(self._burn, 4),
                "tokens": round(self._tokens, 3),
                "max_qps": self.policy.max_qps,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "rejected_by_reason": dict(self._rejected_by_reason),
            }
