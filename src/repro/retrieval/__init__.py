"""Schema-routing baselines.

The paper compares its router against sparse retrieval (BM25), generic dense
retrieval (SXFMR / sentence transformers), LLM-enhanced retrieval (CRUSH4SQL's
hallucinate-then-retrieve), and a fine-tuned dense table retriever (DTR).
Each baseline retrieves *table documents* independently, ranks databases by
the average score of their retrieved tables, and forms candidate schemata from
the top database's retrieved tables -- exactly the protocol of §4.1.5.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TableDocument": "repro.retrieval.documents",
    "build_table_documents": "repro.retrieval.documents",
    "RankedTable": "repro.retrieval.base",
    "RoutingPrediction": "repro.retrieval.base",
    "SchemaRetriever": "repro.retrieval.base",
    "BM25Retriever": "repro.retrieval.bm25",
    "DenseRetriever": "repro.retrieval.dense",
    "LsaEncoder": "repro.retrieval.dense",
    "ContrastiveTableRetriever": "repro.retrieval.dtr",
    "CrushRetriever": "repro.retrieval.crush",
    "SchemaHallucinator": "repro.retrieval.crush",
    "prediction_from_table_ranking": "repro.retrieval.ranking",
    "RoutingScores": "repro.retrieval.metrics",
    "database_recall_at_k": "repro.retrieval.metrics",
    "evaluate_routing": "repro.retrieval.metrics",
    "mean_average_precision": "repro.retrieval.metrics",
    "table_recall_at_k": "repro.retrieval.metrics",
})
