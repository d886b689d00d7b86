"""SQL layer: AST, parser, executor, and metadata extraction.

The dialect covers the constructs produced by the synthetic workload generator
and required by the paper's evaluation: single-database SELECT queries with
joins, filters, aggregation, grouping, HAVING, ordering, limits, DISTINCT, and
(uncorrelated) IN / scalar sub-queries.

The dataset-adaptation step of the paper (§4.1.2) parses every SQL query to
extract its metadata (tables and columns) and forms the SQL query schema
``S = <D, T>`` from it; :func:`extract_metadata` provides that capability.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BinaryOp": "repro.sql.ast",
    "ColumnRef": "repro.sql.ast",
    "FuncCall": "repro.sql.ast",
    "InSubquery": "repro.sql.ast",
    "Join": "repro.sql.ast",
    "Literal": "repro.sql.ast",
    "OrderItem": "repro.sql.ast",
    "ScalarSubquery": "repro.sql.ast",
    "SelectItem": "repro.sql.ast",
    "SelectStatement": "repro.sql.ast",
    "Star": "repro.sql.ast",
    "TableRef": "repro.sql.ast",
    "SqlError": "repro.sql.errors",
    "SqlExecutionError": "repro.sql.errors",
    "SqlParseError": "repro.sql.errors",
    "parse_sql": "repro.sql.parser",
    "to_sql": "repro.sql.printer",
    "SqlExecutor": "repro.sql.executor",
    "QueryMetadata": "repro.sql.metadata",
    "extract_metadata": "repro.sql.metadata",
})
