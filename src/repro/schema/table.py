"""Table and foreign-key definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.schema.column import Column, ColumnType
from repro.utils.text import normalize_identifier, singularize, tokenize_text


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key reference ``source_table.source_column -> target_table.target_column``."""

    source_table: str
    source_column: str
    target_table: str
    target_column: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_table", normalize_identifier(self.source_table))
        object.__setattr__(self, "source_column", normalize_identifier(self.source_column))
        object.__setattr__(self, "target_table", normalize_identifier(self.target_table))
        object.__setattr__(self, "target_column", normalize_identifier(self.target_column))

    def reversed(self) -> "ForeignKey":
        """The same relationship viewed from the referenced side."""
        return ForeignKey(
            source_table=self.target_table,
            source_column=self.target_column,
            target_table=self.source_table,
            target_column=self.source_column,
        )

    def involves(self, table_name: str) -> bool:
        name = normalize_identifier(table_name)
        return name in (self.source_table, self.target_table)


@dataclass
class Table:
    """A table: a named, ordered collection of :class:`Column` objects."""

    name: str
    columns: list[Column] = field(default_factory=list)
    comment: str = ""
    synonyms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.name = normalize_identifier(self.name)
        if not self.name:
            raise ValueError("table name must not be empty")
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise ValueError(f"duplicate column {column.name!r} in table {self.name!r}")
            seen.add(column.name)

    # -- column access ------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return normalize_identifier(name) in set(self.column_names)

    def column(self, name: str) -> Column:
        normalized = normalize_identifier(name)
        for column in self.columns:
            if column.name == normalized:
                return column
        raise KeyError(f"table {self.name!r} has no column {normalized!r}")

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise ValueError(f"duplicate column {column.name!r} in table {self.name!r}")
        self.columns.append(column)
        self.__dict__.pop("column_singular_words", None)

    @property
    def primary_key(self) -> Column | None:
        for column in self.columns:
            if column.is_primary_key:
                return column
        return None

    def text_columns(self) -> list[Column]:
        return [c for c in self.columns if c.column_type is ColumnType.TEXT and not c.is_primary_key]

    # -- text views ---------------------------------------------------------
    @property
    def words(self) -> list[str]:
        return tokenize_text(self.name)

    @cached_property
    def singular_words(self) -> frozenset[str]:
        """The singularised :attr:`words` of the table name, computed once."""
        return frozenset(singularize(word) for word in self.words)

    @cached_property
    def column_singular_words(self) -> frozenset[str]:
        """Union of the columns' :attr:`Column.singular_words`; computed once
        per table and again after :meth:`add_column`."""
        return frozenset().union(*(column.singular_words for column in self.columns))

    def flat_description(self, include_columns: bool = True) -> str:
        """Flat normalised text used by retrieval baselines (paper §4.1.5)."""
        parts = list(self.words)
        if include_columns:
            for column in self.columns:
                parts.extend(column.words)
        return " ".join(parts)

    def schema_line(self, include_types: bool = False) -> str:
        """``table(col1, col2, ...)`` line used in prompts (paper Figure 5)."""
        if include_types:
            cols = ", ".join(f"{c.name} {c.column_type.value}" for c in self.columns)
        else:
            cols = ", ".join(self.column_names)
        return f"{self.name}({cols})"


def validate_foreign_keys(tables: Sequence[Table], foreign_keys: Iterable[ForeignKey]) -> None:
    """Raise :class:`ValueError` if a foreign key references a missing table/column."""
    by_name = {table.name: table for table in tables}
    for fk in foreign_keys:
        for table_name, column_name in (
            (fk.source_table, fk.source_column),
            (fk.target_table, fk.target_column),
        ):
            table = by_name.get(table_name)
            if table is None:
                raise ValueError(f"foreign key references unknown table {table_name!r}")
            if not table.has_column(column_name):
                raise ValueError(
                    f"foreign key references unknown column {table_name}.{column_name}"
                )
