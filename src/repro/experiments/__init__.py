"""Experiment harnesses that regenerate every table and figure of the paper.

Each module corresponds to one artefact of the evaluation section:

* :mod:`repro.experiments.routing`     -- Tables 3 & 4, Figure 7.
* :mod:`repro.experiments.efficiency`  -- Table 5.
* :mod:`repro.experiments.nl2sql`      -- Table 6.
* :mod:`repro.experiments.ablation`    -- Table 7.
* :mod:`repro.experiments.data_scaling`-- Figure 10.
* :mod:`repro.experiments.case_study`  -- Figures 8 & 9.

The shared :mod:`repro.experiments.context` builds (and caches) the synthetic
collections, baseline indexes, and the trained DBCopilot per collection so the
benchmark scripts do not repeat expensive work.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ExperimentConfig": "repro.experiments.configs",
    "default_config": "repro.experiments.configs",
    "CollectionContext": "repro.experiments.context",
    "get_context": "repro.experiments.context",
    "clear_context_cache": "repro.experiments.context",
})
