"""Reproduction of DBCopilot (EDBT 2025).

DBCopilot decouples schema-agnostic NL2SQL over massive databases into two
stages: *schema routing* (a compact generative-retrieval "copilot" model that
navigates a natural-language question to its target database and tables) and
*SQL generation* (a large language model prompted with the routed schema).

This package implements the full system described in the paper together with
every substrate it depends on, from scratch:

* :mod:`repro.schema` -- relational schema model (databases, tables, columns,
  foreign keys, joinability detection).
* :mod:`repro.engine` -- in-memory relational engine used to execute SQL and
  compute execution accuracy.
* :mod:`repro.sql` -- SQL AST, parser, executor, and metadata extraction.
* :mod:`repro.datasets` -- synthetic Spider/BIRD/Fiben-style corpora and the
  robustness variants (synonym substitution, explicit-mention removal).
* :mod:`repro.nn` -- a compact numpy autograd + Seq2Seq substrate for the
  differentiable search index (DSI) router.
* :mod:`repro.retrieval` -- BM25, dense, CRUSH, and DTR routing baselines.
* :mod:`repro.core` -- the DBCopilot contribution: schema graph, DFS
  serialization, training-data synthesis, schema router, and graph-constrained
  decoding.
* :mod:`repro.llm` -- simulated LLM SQL generation with the paper's prompt
  strategies and cost model.
* :mod:`repro.experiments` -- harnesses that regenerate every table and figure
  of the paper's evaluation section.
* :mod:`repro.serving` -- deployment: versioned router checkpoints, a
  thread-safe route cache, batched inference, metrics, and a load
  generator behind the :class:`RoutingService` façade.
* :mod:`repro.cluster` -- scale-out: partitioned catalogs served by shard
  workers behind a scatter-gather dispatcher with replication, rebalancing,
  and whole-cluster checkpoints (:class:`ClusterRoutingService`).

Top-level names are imported lazily so that ``import repro`` stays cheap and
sub-packages can be used independently.
"""

from __future__ import annotations

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Catalog": "repro.schema",
    "Column": "repro.schema",
    "Database": "repro.schema",
    "ForeignKey": "repro.schema",
    "Table": "repro.schema",
    "DBCopilot": "repro.core",
    "DBCopilotConfig": "repro.core",
    "SchemaGraph": "repro.core",
    "SchemaRoute": "repro.core",
    "SchemaRouter": "repro.core",
    "RoutingService": "repro.serving",
    "ServingConfig": "repro.serving",
    "ClusterConfig": "repro.cluster",
    "ClusterRoutingService": "repro.cluster",
})
