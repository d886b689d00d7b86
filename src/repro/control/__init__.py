"""The workload-adaptive control plane.

PR 6 made the system observable, PR 7 made it judge itself; this package
makes it *react*:

* :mod:`repro.control.admission` — token-bucket + queue-depth/burn-gated
  admission at the serving front, so overload degrades to bounded-latency
  shedding (a typed, fast :class:`AdmissionRejected`) instead of collapse;
* :mod:`repro.control.controller` — the :class:`Controller` closing the
  loop each monitor tick: SLO burn into admission, and the per-database
  routed-load window into :class:`repro.cluster.ClusterRebalancer` under
  hysteresis.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AdmissionController": "repro.control.admission",
    "AdmissionPolicy": "repro.control.admission",
    "AdmissionRejected": "repro.control.admission",
    "REJECT_REASONS": "repro.control.admission",
    "Controller": "repro.control.controller",
    "ControllerConfig": "repro.control.controller",
})
