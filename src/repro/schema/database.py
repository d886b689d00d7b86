"""Database: a named collection of tables plus foreign-key relationships."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schema.table import ForeignKey, Table, validate_foreign_keys
from repro.utils.text import lookup_identifier, normalize_identifier, tokenize_text


@dataclass
class Database:
    """A single database schema.

    A database owns its tables and the foreign keys between them.  It also
    records the *domain* it was generated from (e.g. ``"concerts"``), which
    the synthetic workload generator uses to phrase natural questions.
    """

    name: str
    tables: list[Table] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    domain: str = ""
    comment: str = ""

    def __post_init__(self) -> None:
        self.name = normalize_identifier(self.name)
        if not self.name:
            raise ValueError("database name must not be empty")
        #: name -> table, kept in step with ``tables`` by :meth:`add_table`
        #: (the only way tables are added after construction).
        self._tables_by_name = {table.name: table for table in self.tables}
        if len(self._tables_by_name) != len(self.tables):
            raise ValueError(f"duplicate table names in database {self.name!r}")
        validate_foreign_keys(self.tables, self.foreign_keys)

    # -- table access -------------------------------------------------------
    @property
    def table_names(self) -> list[str]:
        return [table.name for table in self.tables]

    def has_table(self, name: str) -> bool:
        return lookup_identifier(self._tables_by_name, name) is not None

    def table(self, name: str) -> Table:
        table = lookup_identifier(self._tables_by_name, name)
        if table is None:
            raise KeyError(f"database {self.name!r} has no table {normalize_identifier(name)!r}")
        return table

    def add_table(self, table: Table) -> None:
        if table.name in self._tables_by_name:
            raise ValueError(f"duplicate table {table.name!r} in database {self.name!r}")
        self.tables.append(table)
        self._tables_by_name[table.name] = table

    def add_foreign_key(self, foreign_key: ForeignKey) -> None:
        validate_foreign_keys(self.tables, [foreign_key])
        self.foreign_keys.append(foreign_key)

    # -- relationship queries -------------------------------------------------
    def foreign_keys_of(self, table_name: str) -> list[ForeignKey]:
        """Foreign keys in which ``table_name`` participates on either side."""
        normalized = normalize_identifier(table_name)
        return [fk for fk in self.foreign_keys if fk.involves(normalized)]

    def related_tables(self, table_name: str) -> list[str]:
        """Tables directly connected to ``table_name`` by a foreign key."""
        normalized = normalize_identifier(table_name)
        related: list[str] = []
        for fk in self.foreign_keys:
            if fk.source_table == normalized and fk.target_table != normalized:
                related.append(fk.target_table)
            elif fk.target_table == normalized and fk.source_table != normalized:
                related.append(fk.source_table)
        # preserve order but dedupe
        seen: set[str] = set()
        unique = []
        for name in related:
            if name not in seen:
                seen.add(name)
                unique.append(name)
        return unique

    def join_condition(self, left: str, right: str) -> ForeignKey | None:
        """Return a foreign key connecting two tables, if any (either direction)."""
        left_n = normalize_identifier(left)
        right_n = normalize_identifier(right)
        for fk in self.foreign_keys:
            if fk.source_table == left_n and fk.target_table == right_n:
                return fk
            if fk.source_table == right_n and fk.target_table == left_n:
                return fk.reversed()
        return None

    # -- aggregate properties ---------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def num_columns(self) -> int:
        return sum(len(table.columns) for table in self.tables)

    @property
    def words(self) -> list[str]:
        return tokenize_text(self.name)

    def schema_text(self, include_types: bool = False) -> str:
        """Multi-line ``table(columns)`` description used in prompts."""
        return "\n".join(table.schema_line(include_types) for table in self.tables)
