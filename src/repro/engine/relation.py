"""Relations (row sets) and the relational operators the executor composes.

A :class:`Relation` is an immutable-ish list of rows with named, possibly
qualified columns (``table.column``).  The SQL executor builds its source with
the operators defined here -- scan (``DatabaseInstance.scan``) and hash join --
runs its bound expressions over the source's rows, and finishes the result
with distinct and limit.  Filtering, grouping, ordering and projection are
closures the executor binds per statement, not operators.

The public constructor (and :func:`from_records`) checks every row's width.
Operators derive rows from rows that already passed that check, so they build
their results with :meth:`Relation.trusted`, which does not look at the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.values import Value, canonical

Row = tuple[Value, ...]


def column_index(columns: Sequence[str], name: str) -> int:
    """Resolve a possibly-unqualified column name to its index in ``columns``.

    Unqualified names match any qualifier as long as the match is unique.
    Raises :class:`KeyError` for an unknown or ambiguous name.
    """
    if name in columns:
        return columns.index(name)
    suffix = "." + name
    matches = [i for i, col in enumerate(columns) if col.endswith(suffix)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"unknown column {name!r}; available: {list(columns)}")
    raise KeyError(f"ambiguous column {name!r}; candidates: "
                   f"{[columns[i] for i in matches]}")


@dataclass
class Relation:
    """A named-column row collection.

    Column names are qualified (``alias.column``) while flowing through the
    executor; projection at the end strips qualifiers for the final result.
    ``ordered`` says the statement that produced the rows had an ORDER BY, so
    their order is part of the result (execution accuracy compares ordered
    results as lists, unordered ones as multisets).
    """

    columns: list[str]
    rows: list[Row] = field(default_factory=list)
    ordered: bool = False

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match columns {len(self.columns)}"
                )

    @classmethod
    def trusted(cls, columns: list[str], rows: list[Row], ordered: bool = False) -> "Relation":
        """A relation over rows already known to be ``len(columns)`` wide."""
        relation = cls.__new__(cls)
        relation.columns = columns
        relation.rows = rows
        relation.ordered = ordered
        return relation

    # -- basic accessors ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        """See :func:`column_index`."""
        return column_index(self.columns, name)

    # -- operators ------------------------------------------------------------
    def hash_join(self, other: "Relation", left_index: int, right_index: int) -> "Relation":
        """Equi-join on column ``left_index`` of this relation and column
        ``right_index`` of ``other`` (inner join, NULLs never match)."""
        buckets: dict[object, list[Row]] = {}
        for row in other.rows:
            key = row[right_index]
            if key is not None:
                buckets.setdefault(canonical(key), []).append(row)
        rows: list[Row] = []
        for row in self.rows:
            key = row[left_index]
            if key is not None:
                for match in buckets.get(canonical(key), ()):
                    rows.append(row + match)
        return Relation.trusted(self.columns + other.columns, rows)

    def limit(self, count: int | None, offset: int = 0) -> "Relation":
        rows = self.rows[offset:]
        if count is not None:
            rows = rows[:count]
        return Relation.trusted(self.columns, rows, self.ordered)

    def distinct(self) -> "Relation":
        seen: set[tuple[object, ...]] = set()
        rows: list[Row] = []
        for row in self.rows:
            key = tuple(canonical(value) for value in row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return Relation.trusted(self.columns, rows, self.ordered)


def from_records(columns: Sequence[str], records: Iterable[Sequence[Value]]) -> Relation:
    """Build a relation from an iterable of row sequences."""
    return Relation(list(columns), [tuple(record) for record in records])
