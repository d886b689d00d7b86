"""Component health probes: per-layer verdicts rolled up bottom-up.

Every serving layer implements ``health() -> HealthReport``: a verdict in
``ok`` / ``degraded`` / ``failing`` plus machine-readable reasons and the
numbers that produced them.  Reports nest — a cluster's report carries one
child per replica set, which carries one child per worker — and the parent
verdict follows a fixed precedence (:func:`rollup`):

* any ``failing`` or ``degraded`` child makes the parent at least
  ``degraded`` (the cluster still serves, a slice of it does not);
* *all* children ``failing`` makes the parent ``failing`` (nothing left to
  serve from);
* the parent's own probes can always raise the verdict further, never lower
  it.

Thresholds live in one frozen :class:`HealthPolicy` so operators tune a
single object instead of per-layer magic numbers.  The probes themselves
judge plain ``stats()`` dicts — this module imports nothing from the serving
or cluster layers, so those layers can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Verdicts, mildest first.  Order is meaningful: :func:`worst_status`
#: compares by position.
STATUSES = ("ok", "degraded", "failing")
_RANK = {status: rank for rank, status in enumerate(STATUSES)}


def worst_status(*statuses: str) -> str:
    """The most severe of the given verdicts (``ok`` when none given)."""
    worst = "ok"
    for status in statuses:
        if _RANK[status] > _RANK[worst]:
            worst = status
    return worst


@dataclass
class HealthReport:
    """One component's verdict, its evidence, and its children's reports."""

    component: str
    status: str = "ok"
    reasons: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    children: list["HealthReport"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.status not in _RANK:
            raise ValueError(f"status must be one of {STATUSES}, "
                             f"not {self.status!r}")

    @property
    def is_ok(self) -> bool:
        return self.status == "ok"

    def degrade(self, status: str, reason: str) -> None:
        """Raise (never lower) the verdict, recording why."""
        self.status = worst_status(self.status, status)
        self.reasons.append(reason)

    def to_dict(self) -> dict:
        """A JSON-round-trip-safe rendering (what ``/healthz`` serves)."""
        return {
            "component": self.component,
            "status": self.status,
            "reasons": list(self.reasons),
            "details": dict(self.details),
            "children": [child.to_dict() for child in self.children],
        }


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds the probes judge against — one object, all layers."""

    #: Error-rate (errors / requests) bands; below ``min_requests`` the rate
    #: is not judged at all (a cold service with one failed request is not
    #: 100% broken, it is unmeasured).
    error_rate_degraded: float = 0.01
    error_rate_failing: float = 0.10
    min_requests: int = 20
    #: Route-cache hit-rate floor, judged only after ``cache_min_lookups``
    #: lookups so a cold cache is never flagged.
    cache_hit_rate_floor: float = 0.05
    cache_min_lookups: int = 50
    #: Version churn: invalidations per lookup above this ratio means the
    #: catalog version is being bumped faster than the cache can pay off.
    cache_churn_ratio: float = 0.5
    #: Questions queued behind a running decode: a burst of concurrent
    #: callers sharing the next decode is normal, a backlog this deep is
    #: sustained overload.
    queue_depth_degraded: int = 16
    queue_depth_failing: int = 64
    #: Dispatcher per-question rate ceilings (shard timeouts / escalations,
    #: both judged against the questions that reached the dispatcher, after
    #: ``min_requests`` of them).
    timeout_rate_degraded: float = 0.02
    timeout_rate_failing: float = 0.25
    escalation_rate_ceiling: float = 0.75
    #: A subprocess worker that has not answered anything for this long is
    #: presumed wedged; the probe re-checks with one ping before judging.
    #: The child answers frames in arrival order, so the pong waits behind
    #: every frame already on the pipe: a worker that misses the ping's
    #: deadline is reported ``failing`` (and killed by that deadline).
    heartbeat_max_age_seconds: float = 60.0
    #: Respawn velocity: more than ``max_respawns_in_window`` fresh boots
    #: inside ``respawn_window_seconds`` is a crash loop, not recovery.
    respawn_window_seconds: float = 300.0
    max_respawns_in_window: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate_degraded <= self.error_rate_failing:
            raise ValueError("need 0 <= error_rate_degraded <= error_rate_failing")
        if not 0.0 <= self.timeout_rate_degraded <= self.timeout_rate_failing:
            raise ValueError("need 0 <= timeout_rate_degraded <= timeout_rate_failing")
        if self.queue_depth_degraded > self.queue_depth_failing:
            raise ValueError("queue_depth_degraded must not exceed "
                             "queue_depth_failing")
        if self.min_requests < 0 or self.cache_min_lookups < 0:
            raise ValueError("min_requests / cache_min_lookups must be >= 0")
        if self.respawn_window_seconds <= 0:
            raise ValueError("respawn_window_seconds must be positive")


def rollup(component: str, children: list[HealthReport],
           own: HealthReport | None = None) -> HealthReport:
    """Combine child reports under one parent verdict.

    ``own`` carries the parent's self-probe results (status, reasons,
    details, and any children those probes already judged, which stay after
    ``children``); child verdicts can only raise it, per the precedence in
    the module docstring.
    """
    report = own if own is not None else HealthReport(component=component)
    report.component = component
    report.children = list(children) + report.children
    if children:
        failing = sum(1 for child in children if child.status == "failing")
        degraded = sum(1 for child in children if child.status == "degraded")
        if failing == len(children):
            report.degrade("failing", f"all {failing} children failing")
        elif failing:
            report.degrade(
                "degraded",
                f"{failing} of {len(children)} children failing: "
                + ", ".join(child.component for child in children
                            if child.status == "failing"))
        if degraded and failing != len(children):
            report.degrade(
                "degraded",
                f"{degraded} of {len(children)} children degraded: "
                + ", ".join(child.component for child in children
                            if child.status == "degraded"))
    return report


# -- stats-dict probes ---------------------------------------------------------
def error_rate_health(report: HealthReport, counters: dict,
                      policy: HealthPolicy) -> None:
    """Judge the ``errors`` / ``requests`` counters into ``report``."""
    requests = counters.get("requests", 0)
    errors = counters.get("errors", 0)
    report.details["requests"] = requests
    report.details["errors"] = errors
    if requests < policy.min_requests:
        return
    rate = errors / requests
    report.details["error_rate"] = round(rate, 4)
    if rate >= policy.error_rate_failing:
        report.degrade("failing",
                       f"error rate {rate:.1%} >= {policy.error_rate_failing:.1%}")
    elif rate >= policy.error_rate_degraded:
        report.degrade("degraded",
                       f"error rate {rate:.1%} >= {policy.error_rate_degraded:.1%}")


def cache_health(stats: dict | None, policy: HealthPolicy | None = None,
                 component: str = "route_cache") -> HealthReport:
    """Judge a :meth:`repro.serving.cache.RouteCache.stats` dict."""
    policy = policy or HealthPolicy()
    report = HealthReport(component=component)
    if not stats:
        report.details["enabled"] = False
        return report
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    lookups = hits + misses
    invalidations = stats.get("invalidations", 0)
    report.details.update(lookups=lookups,
                          hit_rate=stats.get("hit_rate", 0.0),
                          invalidations=invalidations,
                          catalog_version=stats.get("catalog_version", 0))
    if lookups < policy.cache_min_lookups:
        return report  # cold cache: unmeasured, not unhealthy
    hit_rate = hits / lookups
    if hit_rate < policy.cache_hit_rate_floor:
        report.degrade("degraded",
                       f"cache hit rate {hit_rate:.1%} below floor "
                       f"{policy.cache_hit_rate_floor:.1%}")
    churn = invalidations / lookups
    if churn > policy.cache_churn_ratio:
        report.degrade("degraded",
                       f"catalog version churn: {invalidations} invalidations "
                       f"over {lookups} lookups")
    return report


def queue_health(report: HealthReport, queue_depth: int,
                 policy: HealthPolicy) -> None:
    """Judge a decode backlog (questions queued behind a running decode)
    into ``report``."""
    report.details["queue_depth"] = queue_depth
    if queue_depth >= policy.queue_depth_failing:
        report.degrade("failing", f"decode backlog {queue_depth} >= "
                                  f"{policy.queue_depth_failing} questions")
    elif queue_depth >= policy.queue_depth_degraded:
        report.degrade("degraded", f"decode backlog {queue_depth} >= "
                                   f"{policy.queue_depth_degraded} questions")


def dispatcher_health(report: HealthReport, dispatcher: dict, requests: int,
                      policy: HealthPolicy) -> None:
    """Judge dispatcher timeout / escalation counters into ``report``, as
    rates over ``requests``: the questions that reached the dispatcher (a
    front cache hit never does)."""
    timed_out = dispatcher.get("shards_timed_out", 0)
    failures = dispatcher.get("shard_failures", 0)
    escalations = dispatcher.get("escalations", 0)
    report.details.update(shards_timed_out=timed_out, shard_failures=failures,
                          escalations=escalations)
    if requests < policy.min_requests:
        return
    timeout_rate = timed_out / requests
    report.details["timeout_rate"] = round(timeout_rate, 4)
    if timeout_rate >= policy.timeout_rate_failing:
        report.degrade("failing",
                       f"shard timeout rate {timeout_rate:.1%} >= "
                       f"{policy.timeout_rate_failing:.1%}")
    elif timeout_rate >= policy.timeout_rate_degraded:
        report.degrade("degraded",
                       f"shard timeout rate {timeout_rate:.1%} >= "
                       f"{policy.timeout_rate_degraded:.1%}")
    escalation_rate = escalations / requests
    report.details["escalation_rate"] = round(escalation_rate, 4)
    if escalation_rate > policy.escalation_rate_ceiling:
        report.degrade("degraded",
                       f"escalation rate {escalation_rate:.1%} above ceiling "
                       f"{policy.escalation_rate_ceiling:.1%} (fast tier "
                       f"confidence has collapsed)")
