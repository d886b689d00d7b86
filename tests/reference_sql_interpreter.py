"""The tree-walking SQL interpreter, kept verbatim as a test-only oracle.

Until the bind-then-run executor replaced it, this *was* ``repro.sql.executor``
(and the ``Relation`` operators it composed, and ``DatabaseInstance.scan``):
it re-resolves every column name per row, re-runs every sub-query per outer
row and re-evaluates both sides of every ORDER BY comparison.  It is slow and
it is the specification: ``tests/test_sql_planner.py`` asserts that the
executor in ``src/`` returns the same columns, the same rows in the same
order, or raises the same exception class, statement by statement -- the role
``diverse_beam_search_loop`` plays for the decode engine.

Only the names changed (``ReferenceRelation`` / ``ReferenceSqlExecutor``),
``scan`` moved from the instance onto the executor, and ``compare_values`` /
``values_equal`` / ``canonical`` are copied in as they were, so a fast path
added to ``repro.engine.values`` is checked against the plain definitions
too; nothing here may import ``repro.sql.executor``, ``repro.engine.relation``
or a function of ``repro.engine.values``.  One known defect is kept
on purpose: ``_numeric_sum`` accumulates integers in a float, so ``SUM`` over
integers beyond 2**53 is wrong here and right in ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.instance import DatabaseInstance
from repro.engine.values import Value
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InSubquery,
    Join,
    Literal,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
)
from repro.sql.errors import SqlExecutionError
from repro.sql.parser import parse_sql
from repro.utils.text import normalize_identifier

Row = tuple[Value, ...]


# -- repro.engine.values, as it was ---------------------------------------------
def compare_values(left: Value, right: Value) -> int:
    """Three-way comparison with SQL-ish NULL ordering (NULLs sort first).

    Returns -1, 0, or 1.  Mixed numeric comparisons are allowed; a number and
    a string are compared by their string forms, which keeps the comparison
    total (needed for deterministic ORDER BY).
    """
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
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, float):
        return round(value, 6)
    return value


# -- repro.engine.relation.Relation, as it was ------------------------------------
@dataclass
class ReferenceRelation:
    """A named-column row collection.

    Column names are qualified (``alias.column``) while flowing through the
    executor; projection at the end strips qualifiers for the final result.
    """

    columns: list[str]
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match columns {len(self.columns)}"
                )

    # -- basic accessors ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        """Resolve a possibly-unqualified column name to its index.

        Unqualified names match any qualifier as long as the match is unique.
        """
        if name in self.columns:
            return self.columns.index(name)
        suffix = "." + name
        matches = [i for i, col in enumerate(self.columns) if col.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"unknown column {name!r}; available: {self.columns}")
        raise KeyError(f"ambiguous column {name!r}; candidates: "
                       f"{[self.columns[i] for i in matches]}")

    def column_values(self, name: str) -> list[Value]:
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    # -- operators ------------------------------------------------------------
    def filter(self, predicate: Callable[[Row], bool]) -> "ReferenceRelation":
        return ReferenceRelation(list(self.columns), [row for row in self.rows if predicate(row)])

    def project(self, indices: Sequence[int], names: Sequence[str]) -> "ReferenceRelation":
        if len(indices) != len(names):
            raise ValueError("indices and names must align")
        rows = [tuple(row[i] for i in indices) for row in self.rows]
        return ReferenceRelation(list(names), rows)

    def rename(self, names: Sequence[str]) -> "ReferenceRelation":
        if len(names) != len(self.columns):
            raise ValueError("rename must preserve arity")
        return ReferenceRelation(list(names), list(self.rows))

    def cross_join(self, other: "ReferenceRelation") -> "ReferenceRelation":
        columns = list(self.columns) + list(other.columns)
        rows = [left + right for left in self.rows for right in other.rows]
        return ReferenceRelation(columns, rows)

    def hash_join(
        self,
        other: "ReferenceRelation",
        left_key: str,
        right_key: str,
    ) -> "ReferenceRelation":
        """Equi-join on ``left_key = right_key`` (inner join, NULLs never match)."""
        left_index = self.column_index(left_key)
        right_index = other.column_index(right_key)
        buckets: dict[object, list[Row]] = {}
        for row in other.rows:
            key = row[right_index]
            if key is None:
                continue
            buckets.setdefault(canonical(key), []).append(row)
        columns = list(self.columns) + list(other.columns)
        rows: list[Row] = []
        for row in self.rows:
            key = row[left_index]
            if key is None:
                continue
            for match in buckets.get(canonical(key), ()):
                rows.append(row + match)
        return ReferenceRelation(columns, rows)

    def sort(self, keys: Sequence[tuple[str, bool]]) -> "ReferenceRelation":
        """Sort by ``(column, descending)`` keys, NULLs first ascending."""
        import functools

        indices = [(self.column_index(name), descending) for name, descending in keys]

        def compare(left: Row, right: Row) -> int:
            for index, descending in indices:
                result = compare_values(left[index], right[index])
                if result != 0:
                    return -result if descending else result
            return 0

        return ReferenceRelation(list(self.columns), sorted(self.rows, key=functools.cmp_to_key(compare)))

    def limit(self, count: int | None, offset: int = 0) -> "ReferenceRelation":
        rows = self.rows[offset:]
        if count is not None:
            rows = rows[:count]
        return ReferenceRelation(list(self.columns), list(rows))

    def distinct(self) -> "ReferenceRelation":
        seen: set[tuple[object, ...]] = set()
        rows: list[Row] = []
        for row in self.rows:
            key = tuple(canonical(value) for value in row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return ReferenceRelation(list(self.columns), rows)

    def group_rows(self, key_columns: Sequence[str]) -> list[tuple[tuple[object, ...], list[Row]]]:
        """Group rows by the canonical values of ``key_columns`` (stable order)."""
        indices = [self.column_index(name) for name in key_columns]
        groups: dict[tuple[object, ...], list[Row]] = {}
        order: list[tuple[object, ...]] = []
        for row in self.rows:
            key = tuple(canonical(row[i]) for i in indices)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        return [(key, groups[key]) for key in order]


# -- repro.sql.executor, as it was ------------------------------------------------
@dataclass
class ReferenceSqlExecutor:
    """Executes SELECT statements against one :class:`DatabaseInstance`."""

    instance: DatabaseInstance

    # -- public API -----------------------------------------------------------
    def execute_sql(self, sql: str) -> ReferenceRelation:
        """Parse and execute a SQL string."""
        return self.execute(parse_sql(sql))

    def execute(self, statement: SelectStatement) -> ReferenceRelation:
        """Execute a parsed statement, returning the result relation."""
        source = self._build_source(statement)
        if statement.where is not None:
            where = statement.where
            source = source.filter(lambda row: _truthy(self._evaluate(where, source, row)))
        if statement.has_aggregates() or statement.group_by:
            result = self._execute_grouped(statement, source)
        else:
            result = self._execute_plain(statement, source)
        if statement.distinct:
            result = result.distinct()
        if statement.limit is not None:
            result = result.limit(statement.limit)
        return result

    # -- FROM / JOIN ------------------------------------------------------------
    def _build_source(self, statement: SelectStatement) -> ReferenceRelation:
        relation = self._scan(statement.from_table.table, statement.from_table.binding,
                              statement.from_table.database)
        for join in statement.joins:
            right = self._scan(join.table.table, join.table.binding, join.table.database)
            relation = self._apply_join(relation, right, join)
        return relation

    def _scan(self, table: str, binding: str, database: str | None) -> ReferenceRelation:
        if database is not None and database != self.instance.name:
            raise SqlExecutionError(
                f"query references database {database!r} but executing against "
                f"{self.instance.name!r}"
            )
        if not self.instance.schema.has_table(table):
            raise SqlExecutionError(
                f"unknown table {table!r} in database {self.instance.name!r}"
            )
        return self._scan_table(table, alias=binding)

    def _scan_table(self, table_name: str, alias: str | None = None) -> ReferenceRelation:
        """``DatabaseInstance.scan`` as it was: qualified names, a copy of the rows."""
        table = self.instance.schema.table(table_name)
        prefix = normalize_identifier(alias) if alias else table.name
        columns = [f"{prefix}.{column.name}" for column in table.columns]
        return ReferenceRelation(columns, list(self.instance.tables[table.name]))

    def _apply_join(self, left: ReferenceRelation, right: ReferenceRelation, join: Join) -> ReferenceRelation:
        condition = join.condition
        if not isinstance(condition.left, ColumnRef) or not isinstance(condition.right, ColumnRef):
            raise SqlExecutionError("JOIN conditions must compare two columns")
        # The ON clause may name the keys in either order; resolve each side
        # against the relation it actually belongs to, preferring the order as
        # written and falling back to the swapped assignment.
        for first, second in ((condition.left, condition.right), (condition.right, condition.left)):
            left_column = _resolve_column(left, first)
            right_column = _resolve_column(right, second)
            if left_column is not None and right_column is not None:
                return left.hash_join(right, left_column, right_column)
        raise SqlExecutionError(
            f"cannot resolve join condition {to_sql_condition(condition)}"
        )

    # -- plain (non-aggregated) SELECT ------------------------------------------
    def _execute_plain(self, statement: SelectStatement, source: ReferenceRelation) -> ReferenceRelation:
        ordered = self._order_rows(statement, source)
        names = [self._output_name(item, i) for i, item in enumerate(statement.select_items)]
        rows: list[Row] = []
        for row in ordered.rows:
            rows.append(tuple(
                self._evaluate(item.expression, ordered, row)
                for item in statement.select_items
            ))
        return ReferenceRelation(names, rows)

    def _order_rows(self, statement: SelectStatement, source: ReferenceRelation) -> ReferenceRelation:
        if not statement.order_by:
            return source
        import functools

        def compare(left: Row, right: Row) -> int:
            for item in statement.order_by:
                left_value = self._evaluate(item.expression, source, left)
                right_value = self._evaluate(item.expression, source, right)
                result = compare_values(left_value, right_value)
                if result != 0:
                    return -result if item.descending else result
            return 0

        return ReferenceRelation(list(source.columns), sorted(source.rows, key=functools.cmp_to_key(compare)))

    # -- aggregated SELECT --------------------------------------------------------
    def _execute_grouped(self, statement: SelectStatement, source: ReferenceRelation) -> ReferenceRelation:
        group_names = [ref.qualified() for ref in statement.group_by]
        if statement.group_by:
            groups = source.group_rows([self._resolve_name(source, ref) for ref in statement.group_by])
        else:
            groups = [((), list(source.rows))]
            group_names = []
        # Evaluate HAVING per group, then projections and ordering.
        surviving: list[tuple[tuple[object, ...], list[Row]]] = []
        for key, rows in groups:
            if statement.having is not None:
                value = self._evaluate_grouped(statement.having, source, rows)
                if not _truthy(value):
                    continue
            surviving.append((key, rows))
        # Ordering keys may be aggregates or grouped columns.
        if statement.order_by:
            surviving = self._order_groups(statement, source, surviving)
        names = [self._output_name(item, i) for i, item in enumerate(statement.select_items)]
        result_rows: list[Row] = []
        for _, rows in surviving:
            result_rows.append(tuple(
                self._evaluate_grouped(item.expression, source, rows)
                for item in statement.select_items
            ))
        del group_names  # group keys only influence evaluation, not output shape
        return ReferenceRelation(names, result_rows)

    def _order_groups(
        self,
        statement: SelectStatement,
        source: ReferenceRelation,
        groups: list[tuple[tuple[object, ...], list[Row]]],
    ) -> list[tuple[tuple[object, ...], list[Row]]]:
        import functools

        def compare(left: tuple[tuple[object, ...], list[Row]],
                    right: tuple[tuple[object, ...], list[Row]]) -> int:
            for item in statement.order_by:
                left_value = self._evaluate_grouped(item.expression, source, left[1])
                right_value = self._evaluate_grouped(item.expression, source, right[1])
                result = compare_values(left_value, right_value)
                if result != 0:
                    return -result if item.descending else result
            return 0

        return sorted(groups, key=functools.cmp_to_key(compare))

    # -- expression evaluation ------------------------------------------------------
    def _evaluate(self, expression: Expression, relation: ReferenceRelation, row: Row) -> Value:
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, ColumnRef):
            index = self._column_index(relation, expression)
            return row[index]
        if isinstance(expression, BinaryOp):
            return self._evaluate_binary(expression, relation, row)
        if isinstance(expression, InSubquery):
            value = self._evaluate(expression.expression, relation, row)
            members = self._subquery_values(expression.subquery)
            contained = any(values_equal(value, member) for member in members)
            return (not contained) if expression.negated else contained
        if isinstance(expression, ScalarSubquery):
            return self._scalar_subquery(expression.subquery)
        if isinstance(expression, FuncCall):
            raise SqlExecutionError(
                f"aggregate {expression.name.upper()} used outside of an aggregated query"
            )
        if isinstance(expression, Star):
            raise SqlExecutionError("'*' can only appear inside COUNT()")
        raise SqlExecutionError(f"cannot evaluate expression {expression!r}")

    def _evaluate_binary(self, expression: BinaryOp, relation: ReferenceRelation, row: Row) -> Value:
        operator = expression.operator
        if operator in ("and", "or"):
            left = _truthy(self._evaluate(expression.left, relation, row))
            right = _truthy(self._evaluate(expression.right, relation, row))
            return (left and right) if operator == "and" else (left or right)
        left_value = self._evaluate(expression.left, relation, row)
        right_value = self._evaluate(expression.right, relation, row)
        return _compare(operator, left_value, right_value)

    def _evaluate_grouped(self, expression: Expression, relation: ReferenceRelation, rows: list[Row]) -> Value:
        if isinstance(expression, FuncCall):
            return self._aggregate(expression, relation, rows)
        if isinstance(expression, BinaryOp):
            operator = expression.operator
            if operator in ("and", "or"):
                left = _truthy(self._evaluate_grouped(expression.left, relation, rows))
                right = _truthy(self._evaluate_grouped(expression.right, relation, rows))
                return (left and right) if operator == "and" else (left or right)
            left_value = self._evaluate_grouped(expression.left, relation, rows)
            right_value = self._evaluate_grouped(expression.right, relation, rows)
            return _compare(operator, left_value, right_value)
        if isinstance(expression, (Literal, ScalarSubquery, InSubquery)):
            representative = rows[0] if rows else tuple(None for _ in relation.columns)
            return self._evaluate(expression, relation, representative)
        if isinstance(expression, ColumnRef):
            # Grouped columns have a single value per group; take it from the
            # first row (SQL engines require the column to be in GROUP BY).
            if not rows:
                return None
            index = self._column_index(relation, expression)
            return rows[0][index]
        raise SqlExecutionError(f"cannot evaluate grouped expression {expression!r}")

    def _aggregate(self, call: FuncCall, relation: ReferenceRelation, rows: list[Row]) -> Value:
        if isinstance(call.argument, Star):
            values: list[Value] = [1] * len(rows)
        else:
            index = self._column_index(relation, call.argument)
            values = [row[index] for row in rows if row[index] is not None]
        if call.distinct:
            seen: set[object] = set()
            unique: list[Value] = []
            for value in values:
                key = canonical(value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            values = unique
        name = call.name
        if name == "count":
            return len(values)
        if not values:
            return None
        if name == "sum":
            return _numeric_sum(values)
        if name == "avg":
            total = _numeric_sum(values)
            return None if total is None else total / len(values)
        if name == "min":
            return _extreme(values, smallest=True)
        if name == "max":
            return _extreme(values, smallest=False)
        raise SqlExecutionError(f"unsupported aggregate {name!r}")

    # -- sub-queries -----------------------------------------------------------------
    def _subquery_values(self, statement: SelectStatement) -> list[Value]:
        result = self.execute(statement)
        if len(result.columns) != 1:
            raise SqlExecutionError("IN sub-query must project exactly one column")
        return [row[0] for row in result.rows]

    def _scalar_subquery(self, statement: SelectStatement) -> Value:
        result = self.execute(statement)
        if len(result.columns) != 1:
            raise SqlExecutionError("scalar sub-query must project exactly one column")
        if not result.rows:
            return None
        return result.rows[0][0]

    # -- name resolution ----------------------------------------------------------------
    def _column_index(self, relation: ReferenceRelation, ref: ColumnRef) -> int:
        try:
            return relation.column_index(ref.qualified())
        except KeyError:
            pass
        try:
            return relation.column_index(ref.name)
        except KeyError as error:
            raise SqlExecutionError(str(error)) from None

    def _resolve_name(self, relation: ReferenceRelation, ref: ColumnRef) -> str:
        return relation.columns[self._column_index(relation, ref)]

    def _output_name(self, item: SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        expression = item.expression
        if isinstance(expression, ColumnRef):
            return expression.name
        if isinstance(expression, FuncCall):
            argument = "*" if isinstance(expression.argument, Star) else expression.argument.name
            return f"{expression.name}_{argument}"
        return f"column_{position}"


# -- helpers -------------------------------------------------------------------
def _truthy(value: Value) -> bool:
    if value is None:
        return False
    return bool(value)


def _compare(operator: str, left: Value, right: Value) -> Value:
    if left is None or right is None:
        return False
    if operator == "like":
        return _like(str(left), str(right))
    ordering = compare_values(left, right)
    if operator == "=":
        return ordering == 0
    if operator in ("!=", "<>"):
        return ordering != 0
    if operator == "<":
        return ordering < 0
    if operator == "<=":
        return ordering <= 0
    if operator == ">":
        return ordering > 0
    if operator == ">=":
        return ordering >= 0
    raise SqlExecutionError(f"unsupported comparison operator {operator!r}")


def _like(value: str, pattern: str) -> bool:
    import re as _re

    regex = _re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return _re.fullmatch(regex, value, flags=_re.IGNORECASE) is not None


def _numeric_sum(values: list[Value]) -> Value:
    total = 0.0
    saw_float = False
    for value in values:
        if isinstance(value, bool):
            total += int(value)
        elif isinstance(value, (int, float)):
            saw_float = saw_float or isinstance(value, float)
            total += value
        else:
            raise SqlExecutionError(f"cannot SUM non-numeric value {value!r}")
    return total if saw_float else int(total)


def _extreme(values: list[Value], smallest: bool) -> Value:
    best = values[0]
    for value in values[1:]:
        ordering = compare_values(value, best)
        if (smallest and ordering < 0) or (not smallest and ordering > 0):
            best = value
    return best


def to_sql_condition(condition: BinaryOp) -> str:
    """Readable rendering of a join condition used in error messages."""
    left = condition.left.qualified() if isinstance(condition.left, ColumnRef) else repr(condition.left)
    right = condition.right.qualified() if isinstance(condition.right, ColumnRef) else repr(condition.right)
    return f"{left} {condition.operator} {right}"


def _resolve_column(relation: ReferenceRelation, ref: ColumnRef) -> str | None:
    """Resolve ``ref`` to one of ``relation``'s column names, or ``None``.

    Qualified references must match their qualifier exactly; unqualified
    references match any single column with that name.
    """
    if ref.table is not None:
        qualified = ref.qualified()
        return qualified if qualified in relation.columns else None
    try:
        return relation.columns[relation.column_index(ref.name)]
    except KeyError:
        return None
