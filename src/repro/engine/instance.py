"""Database instances: schema plus stored rows.

A :class:`DatabaseInstance` couples a :class:`repro.schema.Database` schema
with the actual rows for each table, giving the SQL executor something to scan
and the joinability heuristic something to measure value overlap on.  A
:class:`CatalogInstance` is the collection of instances for a whole catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.relation import Relation, Row
from repro.engine.values import Value, coerce_value
from repro.schema.catalog import Catalog
from repro.schema.database import Database
from repro.utils.text import lookup_identifier, normalize_identifier


@dataclass
class DatabaseInstance:
    """Rows for every table of one database.

    ``version`` counts content changes: :meth:`insert` (and so
    :meth:`insert_many`) bumps it, reads never do.  Whoever remembers a result
    computed over these rows keeps the version it read and recomputes when it
    moved.  It is not part of equality or ``repr``: two instances holding the
    same rows are equal however they were filled.  Rows are changed through
    :meth:`insert`; an edit of ``tables`` in place is not counted.
    """

    schema: Database
    tables: dict[str, list[Row]] = field(default_factory=dict)
    version: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, rows in self.tables.items():
            if not self.schema.has_table(name):
                raise ValueError(f"rows supplied for unknown table {name!r}")
            width = len(self.schema.table(name).columns)
            if any(len(row) != width for row in rows):
                raise ValueError(f"rows supplied for table {name!r} are not {width} wide")
        for table in self.schema.tables:
            self.tables.setdefault(table.name, [])

    @property
    def name(self) -> str:
        return self.schema.name

    # -- data loading ---------------------------------------------------------
    def insert(self, table_name: str, values: Sequence[object]) -> None:
        """Insert one row, coercing each value to its column type."""
        table = self.schema.table(table_name)
        if len(values) != len(table.columns):
            raise ValueError(
                f"table {table.name!r} expects {len(table.columns)} values, got {len(values)}"
            )
        row = tuple(
            coerce_value(value, column.column_type)
            for value, column in zip(values, table.columns)
        )
        self.tables[table.name].append(row)
        self.version += 1

    def insert_many(self, table_name: str, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.insert(table_name, row)

    # -- access -----------------------------------------------------------------
    def row_count(self, table_name: str) -> int:
        return len(self.tables[self.schema.table(table_name).name])

    def scan(self, table_name: str, alias: str | None = None) -> Relation:
        """Return the table's rows as a relation with qualified column names.

        Stored rows had their arity checked on the way in (by the constructor
        or by :meth:`insert`), so the relation does not check widths again.
        """
        table = self.schema.table(table_name)
        prefix = normalize_identifier(alias) if alias else table.name
        columns = [f"{prefix}.{column.name}" for column in table.columns]
        return Relation.trusted(columns, list(self.tables[table.name]))

    def column_values(self) -> dict[str, dict[str, list[Value]]]:
        """Mapping ``table -> column -> values`` for joinability detection."""
        values: dict[str, dict[str, list[Value]]] = {}
        for table in self.schema.tables:
            rows = self.tables[table.name]
            values[table.name] = {
                column.name: [row[i] for row in rows]
                for i, column in enumerate(table.columns)
            }
        return values


@dataclass
class CatalogInstance:
    """Database instances for every database of a catalog."""

    catalog: Catalog
    instances: dict[str, DatabaseInstance] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in self.instances:
            if not self.catalog.has_database(name):
                raise ValueError(f"instance supplied for unknown database {name!r}")
        for database in self.catalog:
            self.instances.setdefault(database.name, DatabaseInstance(schema=database))

    def instance(self, database_name: str) -> DatabaseInstance:
        instance = lookup_identifier(self.instances, database_name)
        if instance is None:
            raise KeyError(f"no instance for database {normalize_identifier(database_name)!r}")
        return instance

    def __iter__(self):
        return iter(self.instances.values())
