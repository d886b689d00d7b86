"""Column definitions for the relational schema model."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from repro.utils.text import normalize_identifier, singularize, tokenize_text


class ColumnType(str, Enum):
    """Logical column types understood by the engine and the SQL layer."""

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    DATE = "date"
    BOOLEAN = "boolean"

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INTEGER, ColumnType.REAL)


@dataclass(frozen=True)
class Column:
    """A single column of a table.

    Parameters
    ----------
    name:
        Identifier of the column (normalised to snake_case on creation).
    column_type:
        Logical type of the stored values.
    is_primary_key:
        Whether the column is (part of) the table's primary key.
    comment:
        Optional human-readable description; the schema questioner uses
        comments when available (paper §3.4 notes the questioner accepts
        richer schema detail than the router).
    """

    name: str
    column_type: ColumnType = ColumnType.TEXT
    is_primary_key: bool = False
    comment: str = ""
    synonyms: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        normalized = normalize_identifier(self.name)
        if not normalized:
            raise ValueError(f"column name {self.name!r} normalises to empty string")
        object.__setattr__(self, "name", normalized)

    @property
    def words(self) -> list[str]:
        """Words composing the identifier (used for retrieval documents)."""
        return tokenize_text(self.name)

    @cached_property
    def singular_words(self) -> frozenset[str]:
        """The singularised :attr:`words`, as the set question concepts are
        matched against; computed once (a column never changes)."""
        return frozenset(singularize(word) for word in self.words)

    def describe(self) -> str:
        """Readable one-line description used in prompts and documents."""
        label = f"{self.name} ({self.column_type.value})"
        if self.is_primary_key:
            label += " [primary key]"
        if self.comment:
            label += f" -- {self.comment}"
        return label
