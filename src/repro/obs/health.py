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

Thresholds are one set of module constants that every layer's probes read
(no layer has numbers of its own, and nothing tunes them per call).  The
probes themselves judge plain ``stats()`` dicts — this module imports
nothing from the serving or cluster layers, so those layers can import it
freely.
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


# -- thresholds: one set, all layers --------------------------------------------
#: Error-rate (errors / requests) bands; below :data:`MIN_REQUESTS` the rate
#: is not judged at all (a cold service with one failed request is not 100%
#: broken, it is unmeasured).
ERROR_RATE_DEGRADED = 0.01
ERROR_RATE_FAILING = 0.10
MIN_REQUESTS = 20
#: Route-cache hit-rate floor, judged only after :data:`CACHE_MIN_LOOKUPS`
#: lookups so a cold cache is never flagged.
CACHE_HIT_RATE_FLOOR = 0.05
CACHE_MIN_LOOKUPS = 50
#: Version churn: invalidations per lookup above this ratio means the catalog
#: version is being bumped faster than the cache can pay off.
CACHE_CHURN_RATIO = 0.5
#: Questions queued behind a running decode: a burst of concurrent callers
#: sharing the next decode is normal, a backlog this deep is sustained
#: overload.
QUEUE_DEPTH_DEGRADED = 16
QUEUE_DEPTH_FAILING = 64
#: Dispatcher per-question rate ceilings (shard timeouts / escalations, both
#: judged against the questions that reached the dispatcher, after
#: :data:`MIN_REQUESTS` of them).
TIMEOUT_RATE_DEGRADED = 0.02
TIMEOUT_RATE_FAILING = 0.25
ESCALATION_RATE_CEILING = 0.75
#: A subprocess worker that has not answered anything for this long is
#: presumed wedged; the probe re-checks with one ping before judging.  The
#: child answers frames in arrival order, so the pong waits behind every
#: frame already on the pipe: a worker that misses the ping's deadline is
#: reported ``failing`` (and killed by that deadline).
HEARTBEAT_MAX_AGE_SECONDS = 60.0
#: Respawn velocity: more than :data:`MAX_RESPAWNS_IN_WINDOW` respawns (the
#: boot is not one) inside :data:`RESPAWN_WINDOW_SECONDS` is a crash loop,
#: not recovery.
RESPAWN_WINDOW_SECONDS = 300.0
MAX_RESPAWNS_IN_WINDOW = 3


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
def error_rate_health(report: HealthReport, counters: dict) -> None:
    """Judge the ``errors`` / ``requests`` counters into ``report``."""
    requests = counters.get("requests", 0)
    errors = counters.get("errors", 0)
    report.details["requests"] = requests
    report.details["errors"] = errors
    if requests < MIN_REQUESTS:
        return
    rate = errors / requests
    report.details["error_rate"] = round(rate, 4)
    if rate >= ERROR_RATE_FAILING:
        report.degrade("failing", f"error rate {rate:.1%} >= {ERROR_RATE_FAILING:.1%}")
    elif rate >= ERROR_RATE_DEGRADED:
        report.degrade("degraded", f"error rate {rate:.1%} >= {ERROR_RATE_DEGRADED:.1%}")


def cache_health(stats: dict | None) -> HealthReport:
    """Judge a :meth:`repro.serving.cache.RouteCache.stats` dict."""
    report = HealthReport(component="route_cache")
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
    if lookups < CACHE_MIN_LOOKUPS:
        return report  # cold cache: unmeasured, not unhealthy
    hit_rate = hits / lookups
    if hit_rate < CACHE_HIT_RATE_FLOOR:
        report.degrade("degraded",
                       f"cache hit rate {hit_rate:.1%} below floor "
                       f"{CACHE_HIT_RATE_FLOOR:.1%}")
    churn = invalidations / lookups
    if churn > CACHE_CHURN_RATIO:
        report.degrade("degraded",
                       f"catalog version churn: {invalidations} invalidations "
                       f"over {lookups} lookups")
    return report


def queue_health(report: HealthReport, queue_depth: int) -> None:
    """Judge a decode backlog (questions queued behind a running decode)
    into ``report``."""
    report.details["queue_depth"] = queue_depth
    if queue_depth >= QUEUE_DEPTH_FAILING:
        report.degrade("failing", f"decode backlog {queue_depth} >= "
                                  f"{QUEUE_DEPTH_FAILING} questions")
    elif queue_depth >= QUEUE_DEPTH_DEGRADED:
        report.degrade("degraded", f"decode backlog {queue_depth} >= "
                                   f"{QUEUE_DEPTH_DEGRADED} questions")


def dispatcher_health(report: HealthReport, dispatcher: dict, requests: int) -> None:
    """Judge dispatcher timeout / escalation counters into ``report``, as
    rates over ``requests``: the questions that reached the dispatcher (a
    front cache hit never does)."""
    timed_out = dispatcher.get("shards_timed_out", 0)
    failures = dispatcher.get("shard_failures", 0)
    escalations = dispatcher.get("escalations", 0)
    report.details.update(shards_timed_out=timed_out, shard_failures=failures,
                          escalations=escalations)
    if requests < MIN_REQUESTS:
        return
    timeout_rate = timed_out / requests
    report.details["timeout_rate"] = round(timeout_rate, 4)
    if timeout_rate >= TIMEOUT_RATE_FAILING:
        report.degrade("failing",
                       f"shard timeout rate {timeout_rate:.1%} >= "
                       f"{TIMEOUT_RATE_FAILING:.1%}")
    elif timeout_rate >= TIMEOUT_RATE_DEGRADED:
        report.degrade("degraded",
                       f"shard timeout rate {timeout_rate:.1%} >= "
                       f"{TIMEOUT_RATE_DEGRADED:.1%}")
    escalation_rate = escalations / requests
    report.details["escalation_rate"] = round(escalation_rate, 4)
    if escalation_rate > ESCALATION_RATE_CEILING:
        report.degrade("degraded",
                       f"escalation rate {escalation_rate:.1%} above ceiling "
                       f"{ESCALATION_RATE_CEILING:.1%} (fast tier "
                       f"confidence has collapsed)")
