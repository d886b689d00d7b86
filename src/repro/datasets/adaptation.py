"""Dataset adaptation (paper §4.1.2).

The paper adapts single-database NL2SQL datasets to the schema-agnostic
setting by (1) dropping the single-database constraint, (2) parsing every SQL
query to extract its metadata (tables and columns) and excluding queries that
cannot be parsed, and (3) forming instances ``(N, S, Q)`` from the question,
the extracted SQL query schema, and the query.

:func:`adapt_examples` applies the same procedure to synthetic examples --
re-deriving the schema from the SQL instead of trusting the generator -- and
:func:`dataset_statistics` summarises a dataset the way the paper's Table 2
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.examples import BenchmarkDataset, Example
from repro.schema.statistics import describe_catalog
from repro.sql.errors import SqlError
from repro.sql.metadata import extract_metadata


@dataclass(frozen=True)
class AdaptationReport:
    """Summary of an adaptation pass."""

    total: int
    kept: int
    dropped_unparseable: int
    corrected_tables: int


def adapt_examples(examples: list[Example]) -> tuple[list[Example], AdaptationReport]:
    """Re-derive each example's SQL query schema from its SQL text.

    Returns the kept examples (with tables/columns re-extracted from SQL) and
    a report of how many were dropped or corrected.
    """
    kept: list[Example] = []
    dropped = 0
    corrected = 0
    for example in examples:
        try:
            metadata = extract_metadata(example.sql)
        except SqlError:
            dropped += 1
            continue
        tables = tuple(sorted(metadata.tables))
        columns = tuple(sorted(
            f"{table}.{column}"
            for table, cols in metadata.tables.items()
            for column in cols
        ))
        if set(tables) != set(example.tables):
            corrected += 1
        kept.append(Example(
            question=example.question,
            database=example.database,
            tables=tables,
            sql=example.sql,
            columns=columns,
            difficulty=example.difficulty,
            template=example.template,
        ))
    report = AdaptationReport(
        total=len(examples),
        kept=len(kept),
        dropped_unparseable=dropped,
        corrected_tables=corrected,
    )
    return kept, report


def dataset_statistics(dataset: BenchmarkDataset) -> dict[str, object]:
    """The row this dataset contributes to the Table 2 reproduction."""
    stats = describe_catalog(dataset.catalog)
    return {
        "dataset": dataset.name,
        "train": len(dataset.train_examples),
        "test": len(dataset.test_examples),
        "databases": stats.num_databases,
        "tables": stats.num_tables,
        "columns": stats.num_columns,
        "foreign_keys": stats.num_foreign_keys,
        "mean_tables_per_db": round(stats.mean_tables_per_database, 2),
    }
