"""Recursive-descent SQL parser for the dialect in :mod:`repro.sql.ast`.

The parser is used in two places that matter for the reproduction:

* Dataset adaptation (paper §4.1.2) parses every gold SQL query to extract its
  metadata; queries that fail to parse are excluded from the benchmark.
* Execution-accuracy evaluation parses the SQL text produced by the simulated
  LLM before executing it; malformed output counts as an incorrect prediction.

The lexing contract.  A statement is lexed once, by one ``findall`` over
``_TOKEN_PATTERN``, into two parallel lists: ``kinds`` (the small integers
``NUMBER`` / ``STRING`` / ``OPERATOR`` / ``WORD`` / ``KEYWORD`` / ``END``) and
``texts``.  Keywords are recognised at lex time and their text is lowered
there, so the grammar tests ``texts[i] == "from"`` and nothing else: no other
kind can spell a lowered keyword or an operator (a string keeps its quotes, a
``WORD`` is never a keyword), and an identifier is just ``kinds[i] == WORD``.
Both lists end in two ``END`` sentinels (text ``""``), so the grammar reads
``texts[i + 1]`` without a bounds check.  The pattern's last group is a
catch-all ``\\S``: a character no token starts with is a match like any other,
and the lexer -- which runs to completion before the grammar, as the tokenizer
it replaced did -- reports the first one.

The grammar methods take the cursor as an integer and return ``(node, next
cursor)``.  No token carries a position, because a position is only ever
needed for a :class:`SqlParseError` message: ``_fail`` turns the failing token
*index* into a character offset (and the token's original spelling) with one
``finditer`` over the same pattern, when an error is raised and not before.
Offsets index the string ``parse_sql`` was given.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NoReturn

from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPERATORS,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InSubquery,
    Join,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
)
from repro.sql.errors import SqlParseError

#: One group per token kind, in ``findall``'s tuple order (words first: most
#: tokens are words).  The kinds start with different characters, so their order
#: decides nothing; the catch-all must be last.  White space is consumed in front
#: of the token it precedes, so a token's offset is its *group's* start.
_TOKEN_PATTERN = re.compile(
    r"""\s*(?:
    ([A-Za-z_][A-Za-z0-9_]*)
  | (<>|!=|<=|>=|[=<>(),.*])
  | (\d+\.\d+|\d+)
  | ('(?:[^']|'')*')
  | (\S)
    )""",
    re.VERBOSE,
)
_findall = _TOKEN_PATTERN.findall
_finditer = _TOKEN_PATTERN.finditer

NUMBER, STRING, OPERATOR, WORD, KEYWORD, END = range(6)

_KEYWORDS = frozenset({
    "select", "distinct", "from", "join", "inner", "on", "where", "group", "by",
    "having", "order", "limit", "as", "and", "or", "in", "not", "asc", "desc",
    "null", "true", "false", "like",
})

_COMPARISONS = frozenset(COMPARISON_OPERATORS)


def _fail(sql: str, index: int, message: str) -> NoReturn:
    """Raise ``message`` at token ``index``; ``{!r}`` in it is the token as written."""
    match = next(islice(_finditer(sql), index, None), None)
    found, position = (match[match.lastindex], match.start(match.lastindex)) if match \
        else ("end of input", len(sql))
    raise SqlParseError(message.format(found), position)


def _lex(sql: str) -> tuple[list[int], list[str]]:
    kinds: list[int] = []
    texts: list[str] = []
    for word, operator, number, string, _ in _findall(sql):
        if word:
            lowered = word.lower()
            if lowered in _KEYWORDS:
                kinds.append(KEYWORD)
                texts.append(lowered)
            else:
                kinds.append(WORD)
                texts.append(word)
        elif operator:
            kinds.append(OPERATOR)
            texts.append(operator)
        elif number:
            kinds.append(NUMBER)
            texts.append(number)
        elif string:
            kinds.append(STRING)
            texts.append(string)
        else:
            _fail(sql, len(kinds), "unexpected character {!r}")
    kinds += (END, END)
    texts += ("", "")
    return kinds, texts


class _Parser:
    """The grammar over one statement's token lists."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._kinds, self._texts = _lex(sql)

    def _fail(self, index: int, message: str) -> NoReturn:
        _fail(self._sql, index, message)

    def _expected(self, index: int, what: str) -> NoReturn:
        self._fail(index, f"expected {what!r}, found {{!r}}")

    def _identifier(self, i: int) -> tuple[str, int]:
        kind = self._kinds[i]
        if kind == WORD:
            return self._texts[i], i + 1
        self._fail(i, "unexpected keyword {!r}" if kind == KEYWORD
                   else "expected identifier, found {!r}")

    def _alias(self, i: int) -> tuple[str | None, int]:
        """``AS name``, a bare name, or nothing."""
        if self._texts[i] == "as":
            return self._identifier(i + 1)
        if self._kinds[i] == WORD:
            return self._texts[i], i + 1
        return None, i

    # -- grammar -------------------------------------------------------------
    def parse_statement(self) -> SelectStatement:
        statement, i = self._select_statement(0)
        if self._kinds[i] != END:
            self._fail(i, "unexpected trailing input {!r}")
        return statement

    def _select_statement(self, i: int) -> tuple[SelectStatement, int]:
        texts = self._texts
        if texts[i] != "select":
            self._expected(i, "SELECT")
        i += 1
        distinct = texts[i] == "distinct"
        if distinct:
            i += 1
        item, i = self._select_item(i)
        select_items = [item]
        while texts[i] == ",":
            item, i = self._select_item(i + 1)
            select_items.append(item)
        if texts[i] != "from":
            self._expected(i, "FROM")
        from_table, i = self._table_ref(i + 1)
        joins: list[Join] = []
        while texts[i] == "join" or texts[i] == "inner":
            if texts[i] == "inner":
                i += 1
                if texts[i] != "join":
                    self._expected(i, "JOIN")
            table, i = self._table_ref(i + 1)
            if texts[i] != "on":
                self._expected(i, "ON")
            start = i + 1
            condition, i = self._comparison(start)
            if not isinstance(condition, BinaryOp):
                self._fail(start, "JOIN condition must be a comparison")
            joins.append(Join(table, condition))
        where = None
        if texts[i] == "where":
            where, i = self._boolean_expression(i + 1)
        group_by: list[ColumnRef] = []
        if texts[i] == "group":
            if texts[i + 1] != "by":
                self._expected(i + 1, "BY")
            column, i = self._column_ref(i + 2)
            group_by.append(column)
            while texts[i] == ",":
                column, i = self._column_ref(i + 1)
                group_by.append(column)
        having = None
        if texts[i] == "having":
            having, i = self._boolean_expression(i + 1)
        order_by: list[OrderItem] = []
        if texts[i] == "order":
            if texts[i + 1] != "by":
                self._expected(i + 1, "BY")
            order, i = self._order_item(i + 2)
            order_by.append(order)
            while texts[i] == ",":
                order, i = self._order_item(i + 1)
                order_by.append(order)
        limit = None
        if texts[i] == "limit":
            i += 1
            if self._kinds[i] != NUMBER:
                self._fail(i, "unexpected end of input" if self._kinds[i] == END
                           else "LIMIT expects a number, found {!r}")
            limit = int(float(texts[i]))
            i += 1
        return SelectStatement(
            select_items=tuple(select_items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        ), i

    def _select_item(self, i: int) -> tuple[SelectItem, int]:
        expression, i = self._value_expression(i, allow_star=True)
        alias, i = self._alias(i)
        return SelectItem(expression, alias), i

    def _table_ref(self, i: int) -> tuple[TableRef, int]:
        table, i = self._identifier(i)
        database = None
        if self._texts[i] == ".":
            database = table
            table, i = self._identifier(i + 1)
        alias, i = self._alias(i)
        return TableRef(table, database, alias), i

    def _order_item(self, i: int) -> tuple[OrderItem, int]:
        expression, i = self._value_expression(i, allow_star=False)
        descending = self._texts[i] == "desc"
        if descending or self._texts[i] == "asc":
            i += 1
        return OrderItem(expression, descending), i

    # -- expressions -----------------------------------------------------------
    def _boolean_expression(self, i: int) -> tuple[Expression, int]:
        left, i = self._boolean_term(i)
        while self._texts[i] == "or":
            right, i = self._boolean_term(i + 1)
            left = BinaryOp("or", left, right)
        return left, i

    def _boolean_term(self, i: int) -> tuple[Expression, int]:
        left, i = self._boolean_factor(i)
        while self._texts[i] == "and":
            right, i = self._boolean_factor(i + 1)
            left = BinaryOp("and", left, right)
        return left, i

    def _boolean_factor(self, i: int) -> tuple[Expression, int]:
        texts = self._texts
        # ``(expr AND ...)``; ``(SELECT ...)`` is a scalar sub-query, a value.
        if texts[i] == "(" and texts[i + 1] != "select":
            inner, i = self._boolean_expression(i + 1)
            if texts[i] != ")":
                self._expected(i, ")")
            return inner, i + 1
        return self._comparison(i)

    def _comparison(self, i: int) -> tuple[Expression, int]:
        left, i = self._value_expression(i, allow_star=False)
        text = self._texts[i]
        if text in _COMPARISONS:
            right, i = self._value_expression(i + 1, allow_star=False)
            return BinaryOp(text, left, right), i
        negated = text == "not"
        if negated:
            i += 1
            if self._texts[i] != "in":
                self._expected(i, "IN")
        elif text != "in":
            self._fail(i, "expected a comparison operator")
        subquery, i = self._parenthesised_select(i + 1)
        return InSubquery(left, subquery, negated), i

    def _parenthesised_select(self, i: int) -> tuple[SelectStatement, int]:
        if self._texts[i] != "(":
            self._expected(i, "(")
        statement, i = self._select_statement(i + 1)
        if self._texts[i] != ")":
            self._expected(i, ")")
        return statement, i + 1

    def _value_expression(self, i: int, allow_star: bool) -> tuple[Expression, int]:
        kind = self._kinds[i]
        text = self._texts[i]
        if kind == WORD:
            if self._texts[i + 1] == "(" and text.lower() in AGGREGATE_FUNCTIONS:
                return self._function_call(i)
            return self._column_ref(i)
        if kind == NUMBER:
            return Literal(float(text) if "." in text else int(text)), i + 1
        if kind == STRING:
            return Literal(text[1:-1].replace("''", "'")), i + 1
        if kind == KEYWORD:
            if text == "null":
                return Literal(None), i + 1
            if text == "true" or text == "false":
                return Literal(text == "true"), i + 1
            self._fail(i, "unexpected keyword {!r}")
        if text == "*":
            if not allow_star:
                self._fail(i, "'*' is not valid here")
            return Star(), i + 1
        if text == "(":
            statement, i = self._parenthesised_select(i)
            return ScalarSubquery(statement), i
        self._fail(i, "unexpected end of input" if kind == END
                   else "unexpected token {!r}")

    def _function_call(self, i: int) -> tuple[FuncCall, int]:
        """An aggregate whose name is at ``i`` and whose ``(`` is at ``i + 1``."""
        name = self._texts[i].lower()
        i += 2
        distinct = self._texts[i] == "distinct"
        if distinct:
            i += 1
        argument: ColumnRef | Star
        if self._texts[i] == "*":
            argument, i = Star(), i + 1
        else:
            argument, i = self._column_ref(i)
        if self._texts[i] != ")":
            self._expected(i, ")")
        return FuncCall(name, argument, distinct), i + 1

    def _column_ref(self, i: int) -> tuple[ColumnRef, int]:
        first, i = self._identifier(i)
        if self._texts[i] == ".":
            second, i = self._identifier(i + 1)
            return ColumnRef(second, first), i
        return ColumnRef(first), i


def parse_sql(sql: str) -> SelectStatement:
    """Parse a SQL string into a :class:`SelectStatement`.

    Accepted: one SELECT statement, white space around it, and one unbroken
    run of ``;`` after it (``"SELECT a FROM t ;;  "``).  ``;`` is not a token: one
    anywhere else is an unexpected character like any other.  Raises
    :class:`SqlParseError` for anything outside the supported dialect; its
    ``position`` indexes ``sql`` (leading white space is lexed over, not
    stripped), and end of input is where the statement stops, before that run.
    """
    text = sql and sql.rstrip()
    if not text:
        raise SqlParseError("empty SQL string")
    return _Parser(text.rstrip(";")).parse_statement()
