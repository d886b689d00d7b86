"""Relational schema model.

The schema layer is the foundation shared by every other subsystem: the
synthetic dataset generators produce :class:`Database` objects, the schema
graph (paper §3.2) is built from a :class:`Catalog`, the retrieval baselines
index table documents derived from it, and the SQL layer validates queries
against it.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Column": "repro.schema.column",
    "ColumnType": "repro.schema.column",
    "ForeignKey": "repro.schema.table",
    "Table": "repro.schema.table",
    "Database": "repro.schema.database",
    "Catalog": "repro.schema.catalog",
    "jaccard_similarity": "repro.schema.joinability",
    "joinable_table_pairs": "repro.schema.joinability",
    "CatalogStatistics": "repro.schema.statistics",
    "describe_catalog": "repro.schema.statistics",
})
