"""Serving subsystem: deploy a trained schema router as a service.

The paper's pitch (§3.5, Table 5) is that schema routing is *compact* — a
small model that sits in front of an LLM and answers "which database, which
tables?" cheaply at scale.  This package supplies the production half of that
claim:

* :mod:`repro.serving.checkpoint` -- versioned on-disk router checkpoints
  (JSON manifest + npz weights) so a service boots without retraining;
* :mod:`repro.serving.cache` -- a thread-safe LRU route cache whose only
  invalidation is the catalog version;
* :mod:`repro.serving.metrics` -- QPS, latency percentiles, batch-size
  histogram;
* :mod:`repro.serving.service` -- :class:`RoutingService`, the façade wiring
  all of the above behind ``submit`` / ``submit_many`` / ``stats``; its
  concurrent callers coalesce into shared decodes by group commit, on the
  callers' own threads;
* :mod:`repro.serving.loadgen` -- seeded request streams, one closed-loop
  driver (:class:`LoadGenerator`: clients back to back, or waves) and one
  open-loop driver (:class:`ScenarioDriver`: phases released on a schedule,
  lag measured from the scheduled release), both reporting a
  :class:`LoadReport` that counts errors apart from answered requests.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "RouteCache": "repro.serving.cache",
    "normalize_question": "repro.serving.cache",
    "CHECKPOINT_FORMAT": "repro.serving.checkpoint",
    "CHECKPOINT_VERSION": "repro.serving.checkpoint",
    "CheckpointError": "repro.serving.checkpoint",
    "load_manifest": "repro.serving.checkpoint",
    "load_router": "repro.serving.checkpoint",
    "save_router": "repro.serving.checkpoint",
    "LoadGenerator": "repro.serving.loadgen",
    "LoadReport": "repro.serving.loadgen",
    "ScenarioConfig": "repro.serving.loadgen",
    "ScenarioDriver": "repro.serving.loadgen",
    "ScenarioPhase": "repro.serving.loadgen",
    "WorkloadConfig": "repro.serving.loadgen",
    "named_scenario": "repro.serving.loadgen",
    "LatencyRecorder": "repro.serving.metrics",
    "MetricsRegistry": "repro.serving.metrics",
    "RoutingService": "repro.serving.service",
    "ServingConfig": "repro.serving.service",
})
