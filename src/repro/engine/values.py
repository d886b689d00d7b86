"""Typed scalar values stored by the engine.

The engine keeps values as plain Python scalars (``int``, ``float``, ``str``,
``bool``, ``None``) but provides explicit coercion and comparison helpers so
the SQL executor behaves predictably across types -- in particular for the
NULL semantics and numeric/text comparisons that execution-accuracy evaluation
relies on.
"""

from __future__ import annotations

from typing import Union

from repro.schema.column import ColumnType

Value = Union[int, float, str, bool, None]


def coerce_value(raw: object, column_type: ColumnType) -> Value:
    """Coerce ``raw`` to the Python representation for ``column_type``.

    ``None`` always stays ``None`` (SQL NULL).  Raises :class:`ValueError`
    when the value cannot be represented in the requested type.
    """
    if raw is None:
        return None
    if column_type is ColumnType.INTEGER:
        if isinstance(raw, bool):
            return int(raw)
        return int(raw)
    if column_type is ColumnType.REAL:
        return float(raw)
    if column_type is ColumnType.BOOLEAN:
        if isinstance(raw, str):
            lowered = raw.strip().lower()
            if lowered in ("true", "t", "yes", "1"):
                return True
            if lowered in ("false", "f", "no", "0"):
                return False
            raise ValueError(f"cannot interpret {raw!r} as boolean")
        return bool(raw)
    # TEXT and DATE are stored as strings.
    return str(raw)


def compare_values(left: Value, right: Value) -> int:
    """Three-way comparison with SQL-ish NULL ordering (NULLs sort first).

    Returns -1, 0, or 1.  Mixed numeric comparisons are allowed; a number and
    a string are compared by their string forms, which keeps the comparison
    total (needed for deterministic ORDER BY).
    """
    kind = type(left)
    if kind is type(right) and (kind is int or kind is str or kind is float):
        # Same plain type, by far the usual case (columns are typed): the
        # comparisons the general path below would end up making.
        return (left > right) - (left < right)
    if left is None and right is None:
        return 0
    if left is None:
        return -1
    if right is None:
        return 1
    if isinstance(left, bool) or isinstance(right, bool):
        left_key: object = int(left) if isinstance(left, bool) else left
        right_key: object = int(right) if isinstance(right, bool) else right
    else:
        left_key, right_key = left, right
    if isinstance(left_key, (int, float)) and isinstance(right_key, (int, float)):
        if left_key < right_key:
            return -1
        if left_key > right_key:
            return 1
        return 0
    left_str, right_str = str(left_key), str(right_key)
    if left_str < right_str:
        return -1
    if left_str > right_str:
        return 1
    return 0


def values_equal(left: Value, right: Value) -> bool:
    """SQL equality: NULL is never equal to anything (including NULL)."""
    if left is None or right is None:
        return False
    return compare_values(left, right) == 0


def canonical(value: Value) -> object:
    """Canonical hashable form used for grouping, DISTINCT, and EX comparison.

    Integral floats collapse to ints so that ``COUNT(*) = 3`` and ``3.0``
    compare equal, mirroring how execution-accuracy scripts normalise results.
    """
    kind = type(value)
    if kind is int or kind is str:
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, float):
        return round(value, 6)
    return value
