"""Synthetic dataset substrate.

The paper evaluates on Spider, BIRD, and Fiben (plus the Spider-syn and
Spider-real robustness variants).  Those corpora cannot be downloaded in this
offline environment, so this package generates synthetic analogues that match
their *shape*: the number and heterogeneity of databases, the table/column
scale, foreign-key topology, question styles, and -- for the robustness
variants -- the vocabulary mismatch between questions and schema identifiers.

The public entry points are the collection builders
(:func:`build_spider_like`, :func:`build_bird_like`, :func:`build_fiben_like`)
and the robustness transforms (:func:`make_synonym_variant`,
:func:`make_realistic_variant`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BenchmarkDataset": "repro.datasets.examples",
    "Example": "repro.datasets.examples",
    "DOMAINS": "repro.datasets.vocabulary",
    "DomainSpec": "repro.datasets.vocabulary",
    "EntitySpec": "repro.datasets.vocabulary",
    "SYNONYM_LEXICON": "repro.datasets.vocabulary",
    "DatabaseGenerator": "repro.datasets.generator",
    "GeneratorConfig": "repro.datasets.generator",
    "WorkloadGenerator": "repro.datasets.workload",
    "WorkloadConfig": "repro.datasets.workload",
    "CollectionConfig": "repro.datasets.collections",
    "build_spider_like": "repro.datasets.collections",
    "build_bird_like": "repro.datasets.collections",
    "build_fiben_like": "repro.datasets.collections",
    "build_collection": "repro.datasets.collections",
    "make_synonym_variant": "repro.datasets.robustness",
    "make_realistic_variant": "repro.datasets.robustness",
    "adapt_examples": "repro.datasets.adaptation",
    "dataset_statistics": "repro.datasets.adaptation",
})
