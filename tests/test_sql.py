"""Tests for the SQL layer: parser, printer, executor, metadata."""

from __future__ import annotations

import pytest

from repro.sql import (
    SqlExecutionError,
    SqlExecutor,
    SqlParseError,
    extract_metadata,
    parse_sql,
    to_sql,
)
from repro.sql.ast import BinaryOp, Literal, iter_subqueries


class TestParser:
    def test_simple_select(self):
        statement = parse_sql("SELECT name FROM singer WHERE age > 30")
        assert statement.from_table.table == "singer"
        assert isinstance(statement.where, BinaryOp)

    def test_join_with_aliases(self):
        sql = ("SELECT s.name FROM singer_in_concert AS sic "
               "JOIN singer AS s ON sic.singer_id = s.singer_id")
        statement = parse_sql(sql)
        assert len(statement.joins) == 1
        assert statement.joins[0].table.alias == "s"

    def test_database_qualified_table(self):
        statement = parse_sql("SELECT a FROM world.city")
        assert statement.from_table.database == "world"

    def test_group_order_limit(self):
        statement = parse_sql(
            "SELECT venue, COUNT(*) FROM concert GROUP BY venue ORDER BY COUNT(*) DESC LIMIT 3")
        assert statement.group_by and statement.order_by and statement.limit == 3
        assert statement.order_by[0].descending

    def test_in_subquery_and_not_in(self):
        statement = parse_sql(
            "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM singer_in_concert)")
        subqueries = iter_subqueries(statement)
        assert len(subqueries) == 1

    def test_scalar_subquery(self):
        statement = parse_sql("SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)")
        assert iter_subqueries(statement)

    def test_string_escaping(self):
        statement = parse_sql("SELECT name FROM singer WHERE name = 'O''Brien'")
        literal = statement.where.right
        assert isinstance(literal, Literal) and literal.value == "O'Brien"

    def test_distinct_and_boolean_literals(self):
        statement = parse_sql("SELECT DISTINCT name FROM singer WHERE active = TRUE")
        assert statement.distinct

    @pytest.mark.parametrize("bad", [
        "", "SELECT", "SELECT FROM x", "SELECT a FROM", "DELETE FROM x",
        "SELECT a FROM t WHERE", "SELECT a FROM t GROUP", "SELECT a FROM order",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(SqlParseError):
            parse_sql(bad)

    @pytest.mark.parametrize("lead", ["", "   ", "\n\t "])
    @pytest.mark.parametrize("tail", ["", "  ", ";", " ;  ", ";;\n"])
    @pytest.mark.parametrize("sql, message, offset", [
        # With three leading spaces this said 26 and pointed at ' = '; it must say 29.
        ("SELECT a FROM t WHERE b = -1", "unexpected character '-'", 26),
        ("SELECT a FROM t WHERE WhErE b = 1", "unexpected keyword 'WhErE'", 22),
        ("SELECT a FROM t JOIN u ON a IN (SELECT b FROM u)",
         "JOIN condition must be a comparison", 26),
        ("SELECT a FROM t WHERE b =", "unexpected end of input", None),
    ])
    def test_error_positions_index_the_callers_string(self, lead, tail, sql, message, offset):
        text = lead + sql + tail
        with pytest.raises(SqlParseError) as caught:
            parse_sql(text)
        position = caught.value.position
        assert str(caught.value) == f"{message} (at position {position})"
        if offset is None:
            # End of input is where the statement stops: only the ignored tail follows.
            assert position >= len(lead + sql) and text[position:].strip("; \n") == ""
        else:
            assert position == len(lead) + offset and text[position] == sql[offset]

    @pytest.mark.parametrize("sql", ["SELECT a FROM t;", "SELECT a FROM t ;  ", "SELECT a FROM t;;"])
    def test_trailing_semicolons_are_accepted(self, sql):
        assert parse_sql(sql) == parse_sql("SELECT a FROM t")

    @pytest.mark.parametrize("sql, position", [("SELECT a; FROM t", 8), ("SELECT a FROM t; ;", 15),
                                               (";SELECT a FROM t", 0)])
    def test_a_semicolon_anywhere_else_is_an_unexpected_character(self, sql, position):
        with pytest.raises(SqlParseError, match="unexpected character ';'") as caught:
            parse_sql(sql)
        assert caught.value.position == position

    def test_keywords_match_in_any_case(self):
        statement = parse_sql("sElEcT DiStInCt Name fRoM Singer wHeRe Age Not In "
                              "(SELECT MAX(age) FROM singer) oRdEr By Name dEsC LiMiT 2")
        assert statement.distinct and statement.limit == 2
        assert statement.order_by[0].descending and statement.where.negated
        # Identifiers keep their spelling; only keywords are case-blind.
        assert statement.select_items[0].expression.name == "Name"
        assert statement.where.subquery.select_items[0].expression.name == "max"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT a FROM t nonsense nonsense")

    @pytest.mark.parametrize("sql", [
        "SELECT s.name FROM singer AS s WHERE s.age >= 30 AND s.country = 'France'",
        "SELECT COUNT(DISTINCT name) FROM singer",
        "SELECT venue FROM concert WHERE year < 2020 OR venue LIKE 'Grand%'",
        "SELECT AVG(age) FROM singer GROUP BY country HAVING COUNT(*) > 1",
        "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM singer_in_concert WHERE concert_id = 1) ORDER BY name ASC LIMIT 5",
    ])
    def test_roundtrip(self, sql):
        statement = parse_sql(sql)
        assert parse_sql(to_sql(statement)) == statement


class TestExecutor:
    @pytest.fixture
    def executor(self, concert_instance):
        return SqlExecutor(concert_instance)

    def test_filter(self, executor):
        result = executor.execute_sql("SELECT name FROM singer WHERE country = 'France'")
        assert sorted(row[0] for row in result.rows) == ["Alice", "Carol"]

    def test_join_through_junction(self, executor):
        sql = ("SELECT s.name FROM singer_in_concert AS sic "
               "JOIN singer AS s ON sic.singer_id = s.singer_id "
               "JOIN concert AS c ON sic.concert_id = c.concert_id WHERE c.year = 2022")
        result = executor.execute_sql(sql)
        assert sorted(row[0] for row in result.rows) == ["Alice", "Bob"]

    def test_aggregates(self, executor):
        assert executor.execute_sql("SELECT COUNT(*) FROM singer").rows == [(3,)]
        assert executor.execute_sql("SELECT MAX(age) FROM singer").rows == [(40,)]
        avg = executor.execute_sql("SELECT AVG(age) FROM singer").rows[0][0]
        assert avg == pytest.approx(95 / 3)

    def test_group_by_having_order(self, executor):
        sql = ("SELECT country, COUNT(*) AS n FROM singer GROUP BY country "
               "HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC")
        result = executor.execute_sql(sql)
        assert result.rows == [("France", 2)]

    def test_grouped_join_count(self, executor):
        sql = ("SELECT c.venue FROM singer_in_concert AS sic "
               "JOIN concert AS c ON sic.concert_id = c.concert_id "
               "GROUP BY c.venue ORDER BY COUNT(*) DESC LIMIT 1")
        assert executor.execute_sql(sql).rows == [("Grand Arena",)]

    def test_in_subquery(self, executor):
        sql = ("SELECT name FROM singer WHERE singer_id IN "
               "(SELECT singer_id FROM singer_in_concert WHERE concert_id = 2)")
        assert executor.execute_sql(sql).rows == [("Carol",)]

    def test_scalar_subquery(self, executor):
        sql = "SELECT name FROM singer WHERE age = (SELECT MIN(age) FROM singer)"
        assert executor.execute_sql(sql).rows == [("Carol",)]

    def test_distinct_and_limit(self, executor):
        result = executor.execute_sql("SELECT DISTINCT country FROM singer LIMIT 1")
        assert len(result.rows) == 1

    def test_like(self, executor):
        result = executor.execute_sql("SELECT venue FROM concert WHERE venue LIKE 'Grand%'")
        assert result.rows == [("Grand Arena",)]

    def test_order_by_expression_not_projected(self, executor):
        result = executor.execute_sql("SELECT name FROM singer ORDER BY age DESC")
        assert [row[0] for row in result.rows] == ["Bob", "Alice", "Carol"]

    def test_unknown_table_raises(self, executor):
        with pytest.raises(SqlExecutionError):
            executor.execute_sql("SELECT x FROM nonexistent")

    def test_unknown_column_raises(self, executor):
        with pytest.raises(SqlExecutionError):
            executor.execute_sql("SELECT missing_column FROM singer")

    def test_wrong_database_qualifier(self, executor):
        with pytest.raises(SqlExecutionError):
            executor.execute_sql("SELECT name FROM other_db.singer")

    def test_result_says_whether_its_order_counts(self, executor):
        assert executor.execute_sql("SELECT name FROM singer ORDER BY age").ordered
        assert executor.execute_sql(
            "SELECT DISTINCT country FROM singer ORDER BY country LIMIT 1").ordered
        assert not executor.execute_sql("SELECT name FROM singer").ordered
        # Only the statement's own ORDER BY counts, not a sub-query's.
        assert not executor.execute_sql(
            "SELECT name FROM singer WHERE age = (SELECT age FROM singer ORDER BY age LIMIT 1)"
        ).ordered

    def test_aggregate_outside_group_context(self, executor):
        # Aggregates in plain WHERE clauses are invalid in this dialect.
        with pytest.raises(SqlExecutionError):
            executor.execute_sql("SELECT name FROM singer WHERE MAX(age) > 10")


class TestMetadata:
    def test_tables_and_columns(self):
        metadata = extract_metadata(
            "SELECT s.name FROM singer AS s JOIN concert AS c ON s.singer_id = c.concert_id "
            "WHERE c.year = 2020")
        assert metadata.table_names == ["concert", "singer"]
        assert "name" in metadata.columns_of("singer")
        assert "year" in metadata.columns_of("concert")

    def test_subquery_tables_included(self):
        metadata = extract_metadata(
            "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM singer_in_concert)")
        assert "singer_in_concert" in metadata.table_names

    def test_aliases_resolved(self):
        metadata = extract_metadata("SELECT a.name FROM singer AS a")
        assert metadata.aliases["a"] == "singer"

    def test_accepts_parsed_statement(self):
        statement = parse_sql("SELECT name FROM singer")
        assert extract_metadata(statement).table_names == ["singer"]
