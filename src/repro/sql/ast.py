"""SQL abstract syntax tree.

The AST is deliberately small: it models exactly the dialect the synthetic
workload generator emits and the simulated LLM produces, which in turn mirrors
the query shapes highlighted in the paper (multi-table joins through junction
tables, aggregation with grouping and ordering, nested sub-queries as in
Example 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.engine.values import Value

#: Aggregate function names understood by the executor.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")

#: Comparison operators (binary) understood by the executor.
COMPARISON_OPERATORS = ("=", "!=", "<>", "<", "<=", ">", ">=", "like")

#: Boolean connectives.
BOOLEAN_OPERATORS = ("and", "or")


@dataclass(frozen=True)
class Star:
    """``*`` -- only valid as the argument of ``COUNT``."""


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column, optionally qualified by a table or alias."""

    name: str
    table: str | None = None

    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A literal constant (number, string, boolean, NULL)."""

    value: Value


@dataclass(frozen=True)
class FuncCall:
    """An aggregate function call, e.g. ``COUNT(*)`` or ``AVG(t.col)``."""

    name: str
    argument: Union[ColumnRef, Star]
    distinct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        if self.name not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unsupported aggregate function {self.name!r}")
        if isinstance(self.argument, Star) and self.name != "count":
            raise ValueError(f"{self.name.upper()}(*) is not valid SQL")


@dataclass(frozen=True)
class BinaryOp:
    """A binary operation: comparison or boolean connective."""

    operator: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self) -> None:
        object.__setattr__(self, "operator", self.operator.lower())
        if self.operator not in COMPARISON_OPERATORS + BOOLEAN_OPERATORS:
            raise ValueError(f"unsupported operator {self.operator!r}")


@dataclass(frozen=True)
class InSubquery:
    """``expr IN (SELECT ...)`` or its negation."""

    expression: "Expression"
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery:
    """A sub-query used as a scalar value, e.g. ``population = (SELECT MAX(...) ...)``."""

    subquery: "SelectStatement"


Expression = Union[ColumnRef, Literal, FuncCall, BinaryOp, InSubquery, ScalarSubquery, Star]


@dataclass(frozen=True)
class SelectItem:
    """One projected expression with an optional alias."""

    expression: Expression
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause, optionally database-qualified and aliased."""

    table: str
    database: str | None = None
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name other clauses use to refer to this table's columns."""
        return self.alias or self.table


@dataclass(frozen=True)
class Join:
    """An ``INNER JOIN ... ON left = right`` clause."""

    table: TableRef
    condition: BinaryOp

    def __post_init__(self) -> None:
        if self.condition.operator != "=":
            raise ValueError("only equi-joins are supported")


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A full SELECT statement."""

    select_items: tuple[SelectItem, ...]
    from_table: TableRef
    joins: tuple[Join, ...] = ()
    where: Expression | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if not self.select_items:
            raise ValueError("SELECT must project at least one item")

    # -- structural helpers ---------------------------------------------------
    def table_refs(self) -> list[TableRef]:
        """All table references in this statement (not descending into sub-queries)."""
        return [self.from_table] + [join.table for join in self.joins]

    def has_aggregates(self) -> bool:
        """Whether any projected or ordering expression is an aggregate."""
        exprs: list[Expression] = [item.expression for item in self.select_items]
        exprs.extend(item.expression for item in self.order_by)
        if self.having is not None:
            exprs.append(self.having)
        return any(_contains_aggregate(expr) for expr in exprs)


def _contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, FuncCall):
        return True
    if isinstance(expression, BinaryOp):
        return _contains_aggregate(expression.left) or _contains_aggregate(expression.right)
    return False


def iter_subqueries(statement: SelectStatement) -> list[SelectStatement]:
    """Return all (recursively nested) sub-queries of ``statement``."""
    found: list[SelectStatement] = []

    def visit_expression(expression: Expression | None) -> None:
        if expression is None:
            return
        if isinstance(expression, BinaryOp):
            visit_expression(expression.left)
            visit_expression(expression.right)
        elif isinstance(expression, InSubquery):
            found.append(expression.subquery)
            found.extend(iter_subqueries(expression.subquery))
            visit_expression(expression.expression)
        elif isinstance(expression, ScalarSubquery):
            found.append(expression.subquery)
            found.extend(iter_subqueries(expression.subquery))

    for item in statement.select_items:
        visit_expression(item.expression)
    visit_expression(statement.where)
    visit_expression(statement.having)
    for order in statement.order_by:
        visit_expression(order.expression)
    return found
