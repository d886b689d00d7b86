"""The regex-loop tokenizer and ``_peek`` / ``_advance`` parser, kept as a test-only oracle.

Until the lex-once, integer-cursor parser replaced it, this *was*
``repro.sql.parser``: ``_tokenize`` matches one token per loop turn into a
four-field ``_Token`` (kind, text, position, lowered text) and ``_Parser``
walks the token list through ``_peek`` / ``_advance`` / ``_check_*`` /
``_match_*`` / ``_expect_*``.  It is slow and it is the specification:
``tests/test_sql_parser_differential.py`` asserts that the parser in ``src/``
returns an equal syntax tree or raises the same exception class with the same
message and position, string by string -- the role
``reference_sql_interpreter`` plays for the executor.

The code is the parent's, with the two defects the replacing PR fixed in
``src/`` fixed here too (each marked ``# fix:``), so that the differential
can demand equality everywhere rather than carry exceptions:

* positions index the caller's string: ``parse_sql`` lexed a stripped copy and
  reported offsets into it, so every position was short by the leading
  whitespace;
* ``JOIN condition must be a comparison`` carries the position of the
  condition's first token (it had none).

The dead ``self._match_operator(";")`` in ``parse_statement`` is kept: it
never matches, which is why ``src/`` dropped it.  Nothing here may import
``repro.sql.parser``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
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

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<operator><>|!=|<=|>=|=|<|>|\(|\)|,|\.|\*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "join", "inner", "on", "where", "group", "by",
    "having", "order", "limit", "as", "and", "or", "in", "not", "asc", "desc",
    "null", "true", "false", "like",
}


class _Token(NamedTuple):
    kind: str  # "number" | "string" | "operator" | "word"
    text: str
    position: int
    #: ``text`` lowercased once, here, for the keyword checks (words only;
    #: for the other kinds it is ``text`` itself).
    lowered: str


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    while index < len(sql):
        match = _TOKEN_PATTERN.match(sql, index)
        if match is None:
            raise SqlParseError(f"unexpected character {sql[index]!r}", position=index)
        index = match.end()
        kind = match.lastgroup or ""
        if kind == "space":
            continue
        text = match.group()
        tokens.append(_Token(kind, text, match.start(),
                             text.lower() if kind == "word" else text))
    return tokens


class _Parser:
    """Stateful cursor over the token list."""

    def __init__(self, tokens: list[_Token], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._index = 0

    # -- cursor primitives --------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token | None:
        position = self._index + offset
        if position < len(self._tokens):
            return self._tokens[position]
        return None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlParseError("unexpected end of input", position=len(self._sql))
        self._index += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "word" and token.lowered in keywords

    def _match_keyword(self, *keywords: str) -> bool:
        if self._check_keyword(*keywords):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._match_keyword(keyword):
            token = self._peek()
            found = token.text if token else "end of input"
            position = token.position if token else len(self._sql)
            raise SqlParseError(f"expected {keyword.upper()!r}, found {found!r}", position)

    def _check_operator(self, *operators: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "operator" and token.text in operators

    def _match_operator(self, *operators: str) -> bool:
        if self._check_operator(*operators):
            self._advance()
            return True
        return False

    def _expect_operator(self, operator: str) -> None:
        if not self._match_operator(operator):
            token = self._peek()
            found = token.text if token else "end of input"
            position = token.position if token else len(self._sql)
            raise SqlParseError(f"expected {operator!r}, found {found!r}", position)

    def _identifier(self) -> str:
        token = self._peek()
        if token is None or token.kind != "word":
            found = token.text if token else "end of input"
            position = token.position if token else len(self._sql)
            raise SqlParseError(f"expected identifier, found {found!r}", position)
        if token.lowered in _KEYWORDS:
            raise SqlParseError(f"unexpected keyword {token.text!r}", token.position)
        self._advance()
        return token.text

    # -- grammar -------------------------------------------------------------
    def parse_statement(self) -> SelectStatement:
        statement = self._select_statement()
        # allow a trailing semicolon
        self._match_operator(";")
        if self._peek() is not None:
            token = self._peek()
            assert token is not None
            raise SqlParseError(f"unexpected trailing input {token.text!r}", token.position)
        return statement

    def _select_statement(self) -> SelectStatement:
        self._expect_keyword("select")
        distinct = self._match_keyword("distinct")
        select_items = [self._select_item()]
        while self._match_operator(","):
            select_items.append(self._select_item())
        self._expect_keyword("from")
        from_table = self._table_ref()
        joins: list[Join] = []
        while self._check_keyword("join", "inner"):
            self._match_keyword("inner")
            self._expect_keyword("join")
            table = self._table_ref()
            self._expect_keyword("on")
            first = self._peek()  # fix: the error below had no position
            condition = self._comparison()
            if not isinstance(condition, BinaryOp):
                assert first is not None  # _comparison raises at end of input
                raise SqlParseError("JOIN condition must be a comparison", first.position)
            joins.append(Join(table=table, condition=condition))
        where = None
        if self._match_keyword("where"):
            where = self._boolean_expression()
        group_by: list[ColumnRef] = []
        if self._check_keyword("group"):
            self._expect_keyword("group")
            self._expect_keyword("by")
            group_by.append(self._column_ref())
            while self._match_operator(","):
                group_by.append(self._column_ref())
        having = None
        if self._match_keyword("having"):
            having = self._boolean_expression()
        order_by: list[OrderItem] = []
        if self._check_keyword("order"):
            self._expect_keyword("order")
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._match_operator(","):
                order_by.append(self._order_item())
        limit = None
        if self._match_keyword("limit"):
            token = self._advance()
            if token.kind != "number":
                raise SqlParseError(f"LIMIT expects a number, found {token.text!r}", token.position)
            limit = int(float(token.text))
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
        )

    def _select_item(self) -> SelectItem:
        expression = self._value_expression(allow_star=True)
        alias = None
        if self._match_keyword("as"):
            alias = self._identifier()
        elif self._peek() is not None and self._peek().kind == "word" \
                and self._peek().lowered not in _KEYWORDS:
            alias = self._identifier()
        return SelectItem(expression=expression, alias=alias)

    def _table_ref(self) -> TableRef:
        first = self._identifier()
        database = None
        table = first
        if self._match_operator("."):
            database = first
            table = self._identifier()
        alias = None
        if self._match_keyword("as"):
            alias = self._identifier()
        elif self._peek() is not None and self._peek().kind == "word" \
                and self._peek().lowered not in _KEYWORDS:
            alias = self._identifier()
        return TableRef(table=table, database=database, alias=alias)

    def _order_item(self) -> OrderItem:
        expression = self._value_expression(allow_star=False)
        descending = False
        if self._match_keyword("desc"):
            descending = True
        else:
            self._match_keyword("asc")
        return OrderItem(expression=expression, descending=descending)

    # -- expressions -----------------------------------------------------------
    def _boolean_expression(self) -> Expression:
        left = self._boolean_term()
        while self._check_keyword("or"):
            self._advance()
            right = self._boolean_term()
            left = BinaryOp(operator="or", left=left, right=right)
        return left

    def _boolean_term(self) -> Expression:
        left = self._boolean_factor()
        while self._check_keyword("and"):
            self._advance()
            right = self._boolean_factor()
            left = BinaryOp(operator="and", left=left, right=right)
        return left

    def _boolean_factor(self) -> Expression:
        if self._check_operator("(") and self._is_boolean_group():
            self._expect_operator("(")
            inner = self._boolean_expression()
            self._expect_operator(")")
            return inner
        return self._comparison()

    def _is_boolean_group(self) -> bool:
        """Disambiguate ``(expr AND ...)`` from ``(SELECT ...)`` scalar sub-queries."""
        token = self._peek(1)
        return not (token is not None and token.kind == "word" and token.lowered == "select")

    def _comparison(self) -> Expression:
        left = self._value_expression(allow_star=False)
        if self._match_keyword("not"):
            self._expect_keyword("in")
            subquery = self._parenthesised_select()
            return InSubquery(expression=left, subquery=subquery, negated=True)
        if self._match_keyword("in"):
            subquery = self._parenthesised_select()
            return InSubquery(expression=left, subquery=subquery, negated=False)
        if self._check_keyword("like"):
            self._advance()
            right = self._value_expression(allow_star=False)
            return BinaryOp(operator="like", left=left, right=right)
        token = self._peek()
        if token is not None and token.kind == "operator" and token.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            right = self._value_expression(allow_star=False)
            return BinaryOp(operator=token.text, left=left, right=right)
        raise SqlParseError(
            "expected a comparison operator",
            token.position if token else len(self._sql),
        )

    def _parenthesised_select(self) -> SelectStatement:
        self._expect_operator("(")
        statement = self._select_statement()
        self._expect_operator(")")
        return statement

    def _value_expression(self, allow_star: bool) -> Expression:
        token = self._peek()
        if token is None:
            raise SqlParseError("unexpected end of input", position=len(self._sql))
        if token.kind == "operator" and token.text == "*":
            if not allow_star:
                raise SqlParseError("'*' is not valid here", token.position)
            self._advance()
            return Star()
        if token.kind == "operator" and token.text == "(":
            # scalar sub-query
            statement = self._parenthesised_select()
            return ScalarSubquery(subquery=statement)
        if token.kind == "number":
            self._advance()
            text = token.text
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "word":
            lowered = token.lowered
            if lowered == "null":
                self._advance()
                return Literal(None)
            if lowered in ("true", "false"):
                self._advance()
                return Literal(lowered == "true")
            if lowered in AGGREGATE_FUNCTIONS and self._peek(1) is not None \
                    and self._peek(1).kind == "operator" and self._peek(1).text == "(":
                return self._function_call()
            return self._column_ref()
        raise SqlParseError(f"unexpected token {token.text!r}", token.position)

    def _function_call(self) -> FuncCall:
        name_token = self._advance()
        self._expect_operator("(")
        distinct = self._match_keyword("distinct")
        if self._check_operator("*"):
            self._advance()
            argument: ColumnRef | Star = Star()
        else:
            argument = self._column_ref()
        self._expect_operator(")")
        return FuncCall(name=name_token.lowered, argument=argument, distinct=distinct)

    def _column_ref(self) -> ColumnRef:
        first = self._identifier()
        if self._match_operator("."):
            second = self._identifier()
            return ColumnRef(name=second, table=first)
        return ColumnRef(name=first)


def parse_sql(sql: str) -> SelectStatement:
    """Parse a SQL string into a :class:`SelectStatement`.

    Raises :class:`SqlParseError` for anything outside the supported dialect.
    """
    if not sql or not sql.strip():
        raise SqlParseError("empty SQL string")
    text = sql.strip().rstrip(";")
    try:
        tokens = _tokenize(text)
        return _Parser(tokens, text).parse_statement()
    except SqlParseError as error:  # fix: positions indexed ``text``, not ``sql``
        if error.position is None:
            raise
        message = str(error)[:-len(f" (at position {error.position})")]
        lead = len(sql) - len(sql.lstrip())
        raise SqlParseError(message, error.position + lead) from None
