"""Catalog: the set of all databases available for querying.

The catalog corresponds to the paper's :math:`\\mathcal{D}` -- the collection
of massive databases over which schema-agnostic NL2SQL operates.  It is the
input of schema graph construction (Algorithm 1) and of every retrieval
baseline's index-building step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.schema.database import Database
from repro.schema.table import Table
from repro.utils.text import lookup_identifier, normalize_identifier


@dataclass
class Catalog:
    """An ordered collection of :class:`Database` objects with unique names."""

    name: str = "catalog"
    databases: list[Database] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.name = normalize_identifier(self.name) or "catalog"
        #: name -> database, kept in step with ``databases`` by :meth:`add_database`.
        self._databases_by_name = {db.name: db for db in self.databases}
        if len(self._databases_by_name) != len(self.databases):
            raise ValueError("duplicate database names in catalog")

    # -- membership ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.databases)

    def __iter__(self) -> Iterator[Database]:
        return iter(self.databases)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self.has_database(name)

    @property
    def database_names(self) -> list[str]:
        return [db.name for db in self.databases]

    def has_database(self, name: str) -> bool:
        return lookup_identifier(self._databases_by_name, name) is not None

    def database(self, name: str) -> Database:
        database = lookup_identifier(self._databases_by_name, name)
        if database is None:
            raise KeyError(f"catalog has no database {normalize_identifier(name)!r}")
        return database

    def add_database(self, database: Database) -> None:
        if database.name in self._databases_by_name:
            raise ValueError(f"duplicate database {database.name!r} in catalog")
        self.databases.append(database)
        self._databases_by_name[database.name] = database

    # -- aggregate views ------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return sum(db.num_tables for db in self.databases)

    @property
    def num_columns(self) -> int:
        return sum(db.num_columns for db in self.databases)

    def iter_tables(self) -> Iterable[tuple[Database, Table]]:
        """Yield ``(database, table)`` pairs across the whole catalog."""
        for db in self.databases:
            for table in db.tables:
                yield db, table

    def table(self, database_name: str, table_name: str) -> Table:
        return self.database(database_name).table(table_name)

    def subset(self, database_names: Iterable[str]) -> "Catalog":
        """A new catalog restricted to the named databases (order preserved)."""
        wanted = {normalize_identifier(name) for name in database_names}
        return Catalog(
            name=self.name,
            databases=[db for db in self.databases if db.name in wanted],
        )
