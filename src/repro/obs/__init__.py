"""Observability: request-scoped tracing, stage metrics, and exporters.

The serving stack records *where a request's time went* -- queue wait,
encode, decode steps, constraint masking, scatter fan-out, wire round-trips,
merge, escalation -- as a tree of spans per request:

* :mod:`repro.obs.trace` -- :class:`Tracer` / :class:`TraceContext` /
  :class:`Span`, the bounded :class:`TraceJournal` with slow-request exemplar
  retention, and remote-span stitching for subprocess workers;
* :mod:`repro.obs.export` -- zero-dependency renderers turning any
  ``stats()`` snapshot into Prometheus text format or JSON lines, plus the
  ``python -m repro.obs.export`` CLI;
* :mod:`repro.obs.health` -- :class:`HealthReport` /
  :class:`HealthPolicy` and the stats-dict probes behind every layer's
  ``health()``, rolled up bottom-up into one verdict;
* :mod:`repro.obs.slo` -- declarative :class:`SloSpec`s, the multi-window
  burn-rate :class:`SloEngine`, the deduplicating :class:`AlertJournal`,
  and EWMA stage-latency baselines;
* :mod:`repro.obs.monitor` -- the background :class:`Monitor` thread
  (snapshot → evaluate → journal on a loop);
* :mod:`repro.obs.httpd` -- the ``python -m repro.obs.httpd`` ops daemon
  serving ``/healthz`` ``/metrics`` ``/slo`` ``/alerts`` ``/traces``
  ``/stats``.

Span durations additionally feed per-stage
:class:`repro.serving.metrics.LatencyRecorder` reservoirs, so
``MetricsRegistry.snapshot()`` carries a stage-breakdown section even after
individual traces have been dropped from the journal.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Span": "repro.obs.trace",
    "ScopedTrace": "repro.obs.trace",
    "TraceContext": "repro.obs.trace",
    "TraceJournal": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "distinct_traces": "repro.obs.trace",
    "maybe_span": "repro.obs.trace",
    "stage_spans": "repro.obs.trace",
    "HealthPolicy": "repro.obs.health",
    "HealthReport": "repro.obs.health",
    "worst_status": "repro.obs.health",
    "flatten_snapshot": "repro.obs.export",
    "parse_json_lines": "repro.obs.export",
    "parse_prometheus": "repro.obs.export",
    "to_json_lines": "repro.obs.export",
    "to_prometheus": "repro.obs.export",
    "AlertJournal": "repro.obs.slo",
    "EwmaBaselineTracker": "repro.obs.slo",
    "SloEngine": "repro.obs.slo",
    "SloSpec": "repro.obs.slo",
    "default_slo_specs": "repro.obs.slo",
    "Monitor": "repro.obs.monitor",
    "OpsServer": "repro.obs.httpd",
})
