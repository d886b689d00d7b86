"""The lex-once, integer-cursor SQL parser against the parser it replaced.

Every string -- the fixture's gold and generated SQL, grammar-generated
workloads, seeded malformations of both, and a ``hypothesis`` sweep of the
SQL alphabet -- is parsed by ``repro.sql.parser`` and by
``reference_sql_parser`` (the old tokenizer and ``_peek`` / ``_advance``
parser); the outcome must be equal: the same syntax tree, or the same
exception class with the same message and the same position.  One spy test
pins the mechanism: a statement that parses never computes a position.
No timings.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_sql_parser
from repro.llm.sqlgen import HeuristicSqlGenerator
from repro.sql import SqlParseError, parse_sql
from repro.sql import parser as parser_module
from test_sql_planner import StatementConfig, StatementGenerator, shop_instance  # noqa: F401


def outcome(parse, sql: str) -> tuple:
    """What parsing came to: the tree, or the error with its message and position."""
    try:
        return ("tree", parse(sql))
    except Exception as error:  # ValueError from the syntax tree's own checks included
        return ("raised", type(error).__name__, str(error), getattr(error, "position", None))


def outcomes(strings) -> list[tuple]:
    """The parser's outcome per string, each checked against the reference's."""
    found = [outcome(parse_sql, sql) for sql in strings]
    differences = [f"{sql!r}\n  parser:    {new}\n  reference: {old}"
                   for sql, new in zip(strings, found)
                   if new != (old := outcome(reference_sql_parser.parse_sql, sql))]
    assert differences == []
    return found


# -- the corpora ----------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture_statements(spider_like, spider_like_test_examples) -> list[str]:
    """Every gold query of the fixture and what the simulated LLM writes for
    every test question (the statements ``nl2sql_e2e`` parses)."""
    generator = HeuristicSqlGenerator()
    gold = [example.sql for example in spider_like.train_examples + spider_like_test_examples]
    predicted = [generator.generate(example.question,
                                    spider_like.catalog.database(example.database),
                                    list(example.tables))
                 for example in spider_like_test_examples]
    return gold + predicted


GENERATED_SEEDS = range(20, 25)
GENERATED_PER_SEED = 200


def generated_statements(instance, seed: int) -> list[str]:
    generator = StatementGenerator(instance, StatementConfig(seed=seed))
    return [generator.statement() for _ in range(GENERATED_PER_SEED)]


JUNK = ["-", '"', ";", "%", "é"]
KEYWORD_SPELLINGS = ["select", "FROM", "Order", "by", "AS", "null", "Like", "desc", "IN"]


def malformations(sql: str, rng: random.Random) -> list[str]:
    """Broken neighbours of ``sql``, built from the reference tokenizer's view of it."""
    tokens = reference_sql_parser._tokenize(sql)
    texts = [token.text for token in tokens]
    join = " ".join
    broken = [join(texts[:count]) for count in range(len(texts))]
    broken += [join(texts[:index] + texts[index + 1:]) for index in range(len(texts))]
    broken += [join(texts[:index] + [texts[index + 1], texts[index]] + texts[index + 2:])
               for index in range(len(texts) - 1)]
    broken += [join(texts[:index] + ["*"] + texts[index + 1:]) for index in range(len(texts))]
    # A junk character glued to the front of each token, and to the end.
    for position in [token.position for token in tokens] + [len(sql)]:
        junk = rng.choice(JUNK)
        broken.append(sql[:position] + junk + sql[position:])
        broken.append(sql[:position] + f" {junk} " + sql[position:])
    # Keywords where a name goes: as an identifier, and as an alias after one.
    words = [index for index, token in enumerate(tokens)
             if token.kind == "word" and token.lowered not in reference_sql_parser._KEYWORDS]
    for index in words:
        keyword = rng.choice(KEYWORD_SPELLINGS)
        broken.append(join(texts[:index] + [keyword] + texts[index + 1:]))
        broken.append(join(texts[:index + 1] + [rng.choice(["AS", ""]), keyword]
                           + texts[index + 1:]))
    # A comparison turned into a sub-query test: after ``JOIN ... ON``, not a comparison.
    for index in [index for index, text in enumerate(texts) if text == "="]:
        broken.append(join(texts[:index] + ["IN (SELECT a FROM t)"] + texts[index + 1:]))
    return broken


def padded(sql: str, rng: random.Random) -> str:
    """``sql`` with white space and ``;`` around it, where positions could slip."""
    return rng.choice(["", " ", "\n\t  "]) + sql + rng.choice(["", ";", " ;  ", "  ", ";;\n"])


# -- the differential --------------------------------------------------------------
class TestDifferential:
    def test_fixture_statements(self, fixture_statements):
        assert len(fixture_statements) >= 2400
        trees = [parse_sql(sql) for sql in fixture_statements]
        assert trees == [reference_sql_parser.parse_sql(sql) for sql in fixture_statements]

    @pytest.mark.parametrize("seed", GENERATED_SEEDS)
    def test_generated_statements(self, shop_instance, seed):  # noqa: F811
        kinds = outcomes(generated_statements(shop_instance, seed))
        # The workload is the planner's: it parses, nearly all of it.
        assert sum(kind[0] == "tree" for kind in kinds) >= GENERATED_PER_SEED * 0.9

    def test_malformed_statements(self, fixture_statements, shop_instance):  # noqa: F811
        rng = random.Random(21)
        sample = rng.sample(sorted(set(fixture_statements)), 15) \
            + rng.sample(generated_statements(shop_instance, 29), 15)
        corpus = [broken for sql in sample for broken in malformations(sql, rng)]
        corpus += [padded(sql, rng) for sql in corpus[::3]]
        assert len(corpus) >= 5000
        kinds = outcomes(corpus)
        raised = [kind for kind in kinds if kind[0] == "raised"]
        # Both outcomes, every error family, and positions that are not all zero.
        assert len(raised) >= len(corpus) // 2 and len(kinds) - len(raised) >= 200
        for message in ("unexpected character", "unexpected end of input", "unexpected keyword",
                        "unexpected token", "unexpected trailing input", "expected identifier",
                        "expected 'FROM'", "expected ')'", "expected a comparison operator",
                        "is not valid here", "LIMIT expects a number",
                        "JOIN condition must be a comparison"):
            assert sum(message in kind[2] for kind in raised) >= 1, message
        assert len({kind[3] for kind in raised}) >= 50

    def test_error_positions_index_the_string_given(self, fixture_statements):
        """Independent of the reference: the offset points at the offending text."""
        rng = random.Random(22)
        for sql in rng.sample(fixture_statements, 100):
            for junk in JUNK[:2] + JUNK[3:]:
                position = rng.randrange(len(sql) + 1)
                if sql[:position].count("'") % 2:
                    continue  # inside a string literal, where anything goes
                text = padded(sql[:position] + junk + sql[position:], rng)
                with pytest.raises(SqlParseError) as caught:
                    parse_sql(text)
                assert text[caught.value.position] == junk, text

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(
        ["SELECT", "select", "From", "WHERE", "group", "BY", "Order", "having", "LIMIT", "as",
         "AND", "or", "Not", "IN", "like", "JOIN", "inner", "ON", "distinct", "asc", "DESC",
         "null", "True", "false", "a", "t", "T1", "name", "_x9", "count", "MAX", "sum",
         "1", "20", "1.5", "1.", ".5", "'a'", "'it''s'", "''", "'", "'SELECT'",
         "=", "!=", "<>", "<", "<=", ">", ">=", "(", ")", ",", ".", "*", "!", ";", "-", "%",
         '"', "é", " ", "  ", "\n", "\t "]), max_size=24),
        st.sampled_from(["", "SELECT ", "SELECT a FROM t ", "SELECT a FROM t WHERE "]),
        st.sampled_from(["", " "]))
    def test_alphabet_sweep(self, fragments, prefix, separator):
        sql = prefix + separator.join(fragments)
        assert outcome(parse_sql, sql) == outcome(reference_sql_parser.parse_sql, sql)


# -- the mechanism -------------------------------------------------------------------
class TestPositionsAreComputedOnTheErrorPathOnly:
    @pytest.fixture
    def located(self, monkeypatch) -> list[str]:
        """Every call of the position helper or of ``finditer``, by name."""
        calls: list[str] = []
        for name in ("_fail", "_finditer"):
            def spy(*args, name=name, original=getattr(parser_module, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(parser_module, name, spy)
        return calls

    def test_a_successful_parse_computes_no_position(self, fixture_statements, located):
        for sql in fixture_statements[::7]:
            parse_sql("  " + sql + " ;")
        assert located == []

    @pytest.mark.parametrize("sql", ["SELECT a FROM t WHERE b = -1", "SELECT a FROM",
                                     "SELECT a FROM t nonsense nonsense"])
    def test_a_failed_parse_computes_exactly_one(self, located, sql):
        with pytest.raises(SqlParseError):
            parse_sql(sql)
        assert located == ["_fail", "_finditer"]
