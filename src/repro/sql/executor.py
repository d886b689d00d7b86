"""SQL executor: bind a :class:`SelectStatement` once, run it over the rows.

The dialect is the one the synthetic workload generator and the simulated LLM
produce: inner equi-joins, boolean filters, aggregation with grouping and
HAVING, ordering, limits, DISTINCT, and uncorrelated IN / scalar sub-queries.
Every referenced table and column is checked against the database schema, so
hallucinated schema elements in generated SQL fail loudly (and count against
execution accuracy), exactly as they would against a real DBMS.

``execute(statement)`` works in three steps, each done once per statement:

1. **Source.**  The FROM / JOIN tables are looked up in the schema, each
   join's ON columns become a pair of tuple indices, and the hash joins run.
   The source's qualified column list (``binding.column``) is the scope
   everything else binds against.
2. **Bind.**  Every expression -- WHERE, select items, HAVING, aggregate
   arguments, ORDER BY keys -- becomes a closure over a row tuple (or, in an
   aggregated statement, over the list of a group's rows).  A column
   reference resolves to a tuple index here, once, however many rows flow; a
   literal LIKE pattern is compiled here; a comparison operator becomes the
   set of orderings it accepts.
3. **Run.**  Filter, group, HAVING, order, project, DISTINCT, LIMIT: list
   comprehensions over the closures, with no name lookup, no ``isinstance``
   and no recursion over the syntax tree per row.

Two contracts come from the tree-walking interpreter this replaced (kept as
the test oracle ``tests/reference_sql_interpreter.py``), because execution
accuracy is defined by which statements run and what they return:

* **Errors surface when a row reaches them, not when they are bound.**  The
  interpreter resolved names while evaluating, so a hallucinated column in a
  WHERE over an empty table yields an empty result, while the same column
  under an un-grouped aggregate raises even with no rows (an aggregate always
  has its one group).  An unresolvable reference therefore binds to a closure
  that raises :class:`SqlExecutionError` when called.  Only the FROM / JOIN
  clause and the GROUP BY columns fail eagerly, as they always did.  AND / OR
  evaluate both sides (no short circuit), so an error on the right is reached
  whatever the left says.  ORDER BY computes a row's key once, when the first
  comparison needs it: never for a lone row, and a second key only on a tie
  of the first.
* **A sub-query runs at most once per execution, on first use.**  It is
  uncorrelated, so its value cannot depend on the outer row; it is executed
  (and bound: an unknown table inside it is an error of its first use) by the
  first row that evaluates it and the rows are kept until the outer statement
  returns.  An outer relation with no rows never runs it.  Nothing outlives
  ``execute``: there is no cache keyed by SQL text, statement or result, and
  executing a statement twice binds and runs it twice.  The one memo on this
  path is the NL2SQL judge's (``repro.llm.pipeline``): it keeps each gold
  query's *result* per database version, above this executor, and never
  serves a predicted query, which is the system under test.

Measured on the ``nl2sql_e2e`` benchmark row (tables of ~25 rows; traced, at
reference speed), when the judge still executed two statements per question,
the predicted and the gold one -- it now runs each of the 260 distinct gold
queries of the row's 900 questions once, so a pass executes 1 160 statements,
not 1 800: the interpreter spent 0.73 ms
of a question's 1.0 here -- a third of it resolving names per row per
expression through a list scan, most of the rest re-running sub-queries once
per outer row (9 240 ``execute`` calls for 1 800 statements) -- and this
executor spends 0.10 (2 048 calls), which took the row from ~900 to ~3 100
questions/s together with one parse fewer per question and the schema-side
memos of the simulated LLM.  Two things were measured and left out, each
worth 10-15 % of this layer but only 3-4 % of a question, and each a second
code path: a hashed IN probe for members of one plain type (``values_equal``
is not an equivalence in general -- ``5 = '5'`` but ``5.0 <> '5'`` -- so a set
only answers the homogeneous case), and a key-function sort for a single
ORDER BY key over one plain type.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from repro.engine.instance import DatabaseInstance
from repro.engine.relation import Relation, Row, column_index
from repro.engine.values import Value, canonical, compare_values, values_equal
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InSubquery,
    Literal,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
)
from repro.sql.errors import SqlExecutionError
from repro.sql.parser import parse_sql

#: A bound expression: called with a row in a plain statement, with the list
#: of a group's rows in an aggregated one.
Bound = Callable[[Any], Value]


@dataclass
class SqlExecutor:
    """Executes SELECT statements against one :class:`DatabaseInstance`."""

    instance: DatabaseInstance

    # -- public API -----------------------------------------------------------
    def execute_sql(self, sql: str) -> Relation:
        """Parse and execute a SQL string."""
        return self.execute(parse_sql(sql))

    def execute(self, statement: SelectStatement) -> Relation:
        """Execute a parsed statement, returning the result relation."""
        source = self._source(statement)
        return self._bind(statement, source.columns).run(source.rows)

    # -- FROM / JOIN ------------------------------------------------------------
    def _source(self, statement: SelectStatement) -> Relation:
        relation = self._scan(statement.from_table)
        for join in statement.joins:
            right = self._scan(join.table)
            left_index, right_index = _join_indices(relation.columns, right.columns,
                                                    join.condition)
            relation = relation.hash_join(right, left_index, right_index)
        return relation

    def _scan(self, ref: TableRef) -> Relation:
        if ref.database is not None and ref.database != self.instance.name:
            raise SqlExecutionError(
                f"query references database {ref.database!r} but executing against "
                f"{self.instance.name!r}"
            )
        if not self.instance.schema.has_table(ref.table):
            raise SqlExecutionError(
                f"unknown table {ref.table!r} in database {self.instance.name!r}"
            )
        return self.instance.scan(ref.table, alias=ref.alias)

    # -- binding ------------------------------------------------------------------
    def _bind(self, statement: SelectStatement, columns: list[str]) -> "_Plan":
        """Bind every clause of ``statement`` against the source ``columns``."""
        grouped = statement.has_aggregates() or bool(statement.group_by)
        bind = self._bind_group if grouped else self._bind_row
        return _Plan(
            names=[_output_name(item, position)
                   for position, item in enumerate(statement.select_items)],
            where=None if statement.where is None
            else self._bind_row(statement.where, columns),
            # Unlike every other reference, a GROUP BY column that does not
            # resolve is an error before any row is looked at.
            group_by=[self._resolve(columns, ref) for ref in statement.group_by]
            if grouped else None,
            having=None if statement.having is None or not grouped
            else self._bind_group(statement.having, columns),
            order_by=[(bind(item.expression, columns), item.descending)
                      for item in statement.order_by],
            select=[bind(item.expression, columns) for item in statement.select_items],
            distinct=statement.distinct,
            limit=statement.limit,
        )

    def _resolve(self, columns: list[str], ref: ColumnRef) -> int:
        """Index of ``ref`` in ``columns``: by its qualified name, else by its
        bare name (a wrong qualifier on a unique column name still resolves)."""
        try:
            return column_index(columns, ref.qualified())
        except KeyError:
            pass
        try:
            return column_index(columns, ref.name)
        except KeyError as error:
            raise SqlExecutionError(error.args[0]) from None

    def _bind_row(self, expression: Expression, columns: list[str]) -> Bound:
        """``expression`` as a function of one source row."""
        if isinstance(expression, Literal):
            value = expression.value
            return lambda _row: value
        if isinstance(expression, ColumnRef):
            try:
                return itemgetter(self._resolve(columns, expression))
            except SqlExecutionError as error:
                return _raiser(error)
        if isinstance(expression, BinaryOp):
            return _bind_binop(expression, self._bind_row(expression.left, columns),
                                self._bind_row(expression.right, columns))
        if isinstance(expression, InSubquery):
            return _membership(self._bind_row(expression.expression, columns),
                               self._subquery_values(expression.subquery, "IN"),
                               expression.negated)
        if isinstance(expression, ScalarSubquery):
            values = self._subquery_values(expression.subquery, "scalar")

            def scalar(_unit: Any) -> Value:
                rows = values()
                return rows[0] if rows else None

            return scalar
        if isinstance(expression, FuncCall):
            return _raiser(SqlExecutionError(
                f"aggregate {expression.name.upper()} used outside of an aggregated query"))
        if isinstance(expression, Star):
            return _raiser(SqlExecutionError("'*' can only appear inside COUNT()"))
        return _raiser(SqlExecutionError(f"cannot evaluate expression {expression!r}"))

    def _bind_group(self, expression: Expression, columns: list[str]) -> Bound:
        """``expression`` as a function of the rows of one group."""
        if isinstance(expression, FuncCall):
            return self._bind_aggregate(expression, columns)
        if isinstance(expression, BinaryOp):
            return _bind_binop(expression, self._bind_group(expression.left, columns),
                                self._bind_group(expression.right, columns))
        if isinstance(expression, (Literal, ScalarSubquery, InSubquery)):
            # Row expressions see the group's first row (all NULLs when the
            # one group of an un-grouped aggregate is empty).
            of_row = self._bind_row(expression, columns)
            nulls = (None,) * len(columns)
            return lambda rows: of_row(rows[0] if rows else nulls)
        if isinstance(expression, ColumnRef):
            # A grouped column has one value per group: the first row's.  An
            # empty group yields NULL before the name is even looked at.
            of_row = self._bind_row(expression, columns)
            return lambda rows: of_row(rows[0]) if rows else None
        return _raiser(SqlExecutionError(f"cannot evaluate grouped expression {expression!r}"))

    def _bind_aggregate(self, call: FuncCall, columns: list[str]) -> Bound:
        if isinstance(call.argument, Star):
            # COUNT(*), the only aggregate ``*`` is valid in; DISTINCT counts
            # a group's rows as one value.
            return (lambda rows: min(len(rows), 1)) if call.distinct else len
        reduce = _AGGREGATES[call.name]
        try:
            index = self._resolve(columns, call.argument)
        except SqlExecutionError as error:
            return _raiser(error)
        if call.distinct:
            return lambda rows: reduce(_distinct_values(
                [row[index] for row in rows if row[index] is not None]))
        return lambda rows: reduce([row[index] for row in rows if row[index] is not None])

    # -- sub-queries -----------------------------------------------------------------
    def _subquery_values(self, statement: SelectStatement, kind: str) -> Callable[[], list[Value]]:
        """The sub-query's one column of values: bound and run by the first
        call, kept for the later ones of this execution."""

        @functools.cache
        def values() -> list[Value]:
            result = self.execute(statement)
            if len(result.columns) != 1:
                raise SqlExecutionError(f"{kind} sub-query must project exactly one column")
            return [row[0] for row in result.rows]

        return values


@dataclass
class _Plan:
    """One statement bound against its source: what :meth:`run` does per row."""

    names: list[str]
    where: Bound | None
    #: ``None``: a plain statement, expressions are bound over rows.  A list
    #: (empty when aggregates have no GROUP BY): over the rows of a group.
    group_by: list[int] | None
    having: Bound | None
    order_by: list[tuple[Bound, bool]]
    select: list[Bound]
    distinct: bool
    limit: int | None

    def run(self, rows: list[Row]) -> Relation:
        where = self.where
        if where is not None:
            rows = [row for row in rows if where(row)]
        units: list[Any] = rows
        if self.group_by is not None:
            units = _group(rows, self.group_by)
            having = self.having
            if having is not None:
                units = [group for group in units if having(group)]
        if self.order_by:
            units = _order(units, self.order_by)
        select = self.select
        projected = [tuple([item(unit) for item in select]) for unit in units]
        result = Relation.trusted(self.names, projected, ordered=bool(self.order_by))
        if self.distinct:
            result = result.distinct()
        if self.limit is not None:
            result = result.limit(self.limit)
        return result


# -- run-time operators ----------------------------------------------------------
def _group(rows: list[Row], indices: list[int]) -> list[list[Row]]:
    """Rows grouped by the canonical values at ``indices``, groups in order of
    first appearance; no indices means one group, even of no rows."""
    if not indices:
        return [rows]
    groups: dict[tuple[object, ...], list[Row]] = {}
    for row in rows:
        groups.setdefault(tuple([canonical(row[i]) for i in indices]), []).append(row)
    return list(groups.values())


_UNSET: Any = object()


def _order(units: list[Any], order_by: list[tuple[Bound, bool]]) -> list[Any]:
    """``units`` stably sorted by the ``(key, descending)`` pairs.

    A unit's key is computed by the first comparison that needs it and kept:
    the first key once per unit, a later key only for units that tie on the
    keys before it -- and no key at all when there is nothing to compare.
    That is when the interpreter, which evaluated both sides inside every
    comparison, would first have raised on a key that cannot be evaluated.
    """
    memo = [[_UNSET] * len(order_by) for _ in units]

    def compare(left: int, right: int) -> int:
        left_keys, right_keys = memo[left], memo[right]
        for position, (key, descending) in enumerate(order_by):
            if left_keys[position] is _UNSET:
                left_keys[position] = key(units[left])
            if right_keys[position] is _UNSET:
                right_keys[position] = key(units[right])
            ordering = compare_values(left_keys[position], right_keys[position])
            if ordering:
                return -ordering if descending else ordering
        return 0

    return [units[index] for index in
            sorted(range(len(units)), key=functools.cmp_to_key(compare))]


# -- expression closures ------------------------------------------------------------
def _raiser(error: SqlExecutionError) -> Bound:
    """What an expression that cannot be evaluated binds to: the error is
    raised by the first row (or group) that reaches it."""

    def fail(_unit: Any) -> Value:
        raise error

    return fail


#: The ``compare_values`` orderings each comparison operator accepts.
_ACCEPTED_ORDERINGS = {
    "=": (0,), "!=": (-1, 1), "<>": (-1, 1),
    "<": (-1,), "<=": (-1, 0), ">": (1,), ">=": (0, 1),
}


def _bind_binop(expression: BinaryOp, left: Bound, right: Bound) -> Bound:
    """A connective or comparison over two bound operands.  Both operands are
    always evaluated, left first."""
    operator = expression.operator
    if operator == "and":
        def conjunction(unit: Any) -> Value:
            first, second = left(unit), right(unit)
            return bool(first and second)
        return conjunction
    if operator == "or":
        def disjunction(unit: Any) -> Value:
            first, second = left(unit), right(unit)
            return bool(first or second)
        return disjunction
    if operator == "like":
        pattern = expression.right
        # A literal pattern (the usual case) is compiled once, here.
        fixed = _like_regex(str(pattern.value)) \
            if isinstance(pattern, Literal) and pattern.value is not None else None

        def like(unit: Any) -> Value:
            value, wanted = left(unit), right(unit)
            if value is None or wanted is None:
                return False
            regex = fixed or _like_regex(str(wanted))
            return regex.fullmatch(str(value)) is not None
        return like
    accepted = _ACCEPTED_ORDERINGS[operator]

    def comparison(unit: Any) -> Value:
        first, second = left(unit), right(unit)
        if first is None or second is None:
            return False
        return compare_values(first, second) in accepted
    return comparison


def _like_regex(pattern: str) -> re.Pattern[str]:
    return re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."),
                      re.IGNORECASE)


def _membership(operand: Bound, members: Callable[[], list[Value]], negated: bool) -> Bound:
    """``operand [NOT] IN (sub-query)``: the operand first, then the members."""

    def contains(unit: Any) -> Value:
        value = operand(unit)
        found = any(values_equal(value, member) for member in members())
        return found is not negated
    return contains


# -- aggregates -----------------------------------------------------------------
def _distinct_values(values: list[Value]) -> list[Value]:
    seen: set[object] = set()
    unique: list[Value] = []
    for value in values:
        key = canonical(value)
        if key not in seen:
            seen.add(key)
            unique.append(value)
    return unique


def _numeric_sum(values: list[Value]) -> Value:
    """Integers (and booleans) add exactly; one float makes the sum a float,
    accumulated left to right."""
    saw_float = False
    for value in values:
        if isinstance(value, float):
            saw_float = True
        elif not isinstance(value, int):
            raise SqlExecutionError(f"cannot SUM non-numeric value {value!r}")
    if not saw_float:
        return sum(int(value) for value in values)
    total = 0.0
    for value in values:
        total += value
    return total


def _extreme(values: list[Value], smallest: bool) -> Value:
    best = values[0]
    for value in values[1:]:
        ordering = compare_values(value, best)
        if (smallest and ordering < 0) or (not smallest and ordering > 0):
            best = value
    return best


#: Aggregate name -> function of the argument's non-NULL values.  Every
#: aggregate but COUNT is NULL over no values.
_AGGREGATES: dict[str, Callable[[list[Value]], Value]] = {
    "count": len,
    "sum": lambda values: _numeric_sum(values) if values else None,
    "avg": lambda values: _numeric_sum(values) / len(values) if values else None,
    "min": lambda values: _extreme(values, smallest=True) if values else None,
    "max": lambda values: _extreme(values, smallest=False) if values else None,
}


# -- names ---------------------------------------------------------------------
def _output_name(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FuncCall):
        argument = "*" if isinstance(expression.argument, Star) else expression.argument.name
        return f"{expression.name}_{argument}"
    return f"column_{position}"


def _join_indices(left: list[str], right: list[str], condition: BinaryOp) -> tuple[int, int]:
    """Indices of a join's ON columns in the left and right column lists.

    The ON clause may name the keys in either order; each side is resolved
    against the relation it belongs to, preferring the order as written and
    falling back to the swapped assignment.
    """
    first, second = condition.left, condition.right
    if not isinstance(first, ColumnRef) or not isinstance(second, ColumnRef):
        raise SqlExecutionError("JOIN conditions must compare two columns")
    for left_ref, right_ref in ((first, second), (second, first)):
        left_index = _join_column(left, left_ref)
        right_index = _join_column(right, right_ref)
        if left_index is not None and right_index is not None:
            return left_index, right_index
    raise SqlExecutionError(
        f"cannot resolve join condition {first.qualified()} = {second.qualified()}")


def _join_column(columns: list[str], ref: ColumnRef) -> int | None:
    """Index of ``ref`` among ``columns``, or ``None``.

    Qualified references must match their qualifier exactly; unqualified
    references match any single column with that name.
    """
    if ref.table is not None:
        qualified = ref.qualified()
        return columns.index(qualified) if qualified in columns else None
    try:
        return column_index(columns, ref.name)
    except KeyError:
        return None
