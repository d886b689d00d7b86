"""Tests for the shared utilities."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    ResultTable,
    SeededRng,
    Stopwatch,
    camel_to_snake,
    derive_seed,
    normalize_identifier,
    normalize_whitespace,
    pluralize,
    singularize,
    tokenize_text,
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = [SeededRng(5).randint(0, 100) for _ in range(10)]
        b = [SeededRng(5).randint(0, 100) for _ in range(10)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [SeededRng(1).randint(0, 10**6) for _ in range(5)]
        b = [SeededRng(2).randint(0, 10**6) for _ in range(5)]
        assert a != b

    def test_child_streams_are_independent(self):
        parent = SeededRng(3)
        child_a = parent.child("a")
        child_b = parent.child("b")
        assert [child_a.randint(0, 100) for _ in range(5)] != \
               [child_b.randint(0, 100) for _ in range(5)]

    def test_child_is_deterministic(self):
        assert SeededRng(3).child("x").randint(0, 10**6) == \
               SeededRng(3).child("x").randint(0, 10**6)

    def test_derive_seed_stable(self):
        assert derive_seed(10, "router") == derive_seed(10, "router")
        assert derive_seed(10, "router") != derive_seed(10, "questioner")

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SeededRng(0).choice([])

    def test_sample_clamps_to_population(self):
        assert sorted(SeededRng(0).sample([1, 2, 3], 10)) == [1, 2, 3]

    def test_shuffled_preserves_elements(self):
        items = list(range(20))
        shuffled = SeededRng(1).shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # input untouched

    def test_weighted_choice_respects_weights(self):
        rng = SeededRng(4)
        picks = {rng.weighted_choice(["a", "b"], [0.0, 1.0]) for _ in range(20)}
        assert picks == {"b"}

    def test_coin_probability_bounds(self):
        rng = SeededRng(9)
        assert not any(rng.coin(0.0) for _ in range(50))
        assert all(rng.coin(1.0) for _ in range(50))


class TestText:
    @pytest.mark.parametrize("raw, expected", [
        ("CamelCase", "camel_case"),
        ("mixedCaseName", "mixed_case_name"),
        ("already_snake", "already_snake"),
    ])
    def test_camel_to_snake(self, raw, expected):
        assert camel_to_snake(raw) == expected

    @pytest.mark.parametrize("raw, expected", [
        ("Singer In Concert", "singer_in_concert"),
        ("singer-in-concert", "singer_in_concert"),
        ("  WeirdName!! ", "weird_name"),
    ])
    def test_normalize_identifier(self, raw, expected):
        assert normalize_identifier(raw) == expected

    @pytest.mark.parametrize("raw, expected", [
        # Already normal: returned as it is, by the fast path ...
        ("singer_in_concert", "singer_in_concert"), ("t1", "t1"), ("a", "a"),
        # ... which must not mistake these for normal.
        ("a__b", "a_b"), ("_a", "a"), ("a_", "a"), ("a\n", "a"), ("", ""), ("_", ""),
        ("T1", "t1"), ("a.b", "a_b"), ("é", ""),
    ])
    def test_normalize_identifier_fast_path(self, raw, expected):
        assert normalize_identifier(raw) == expected

    def test_normalize_whitespace(self):
        assert normalize_whitespace("  a \n b\t c ") == "a b c"

    def test_tokenize_splits_identifiers(self):
        assert tokenize_text("singer_in_concert") == ["singer", "in", "concert"]

    @pytest.mark.parametrize("word, plural", [
        ("singer", "singers"),
        ("city", "cities"),
        ("match", "matches"),
        ("person", "people"),
        ("series", "series"),
    ])
    def test_pluralize(self, word, plural):
        assert pluralize(word) == plural

    @pytest.mark.parametrize("word", ["singer", "city", "match", "country", "company"])
    def test_singularize_inverts_pluralize(self, word):
        assert singularize(pluralize(word)) == word

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
                   min_size=1, max_size=20))
    def test_normalize_identifier_is_idempotent(self, raw):
        normalized = normalize_identifier(raw)
        if normalized:
            assert normalize_identifier(normalized) == normalized


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row("x", 1.234)
        rendered = table.render()
        assert "T" in rendered and "1.23" in rendered

    def test_add_row_wrong_arity(self):
        table = ResultTable(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only one")

    def test_to_records(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row("x", 2)
        assert table.to_records() == [{"a": "x", "b": "2"}]


class TestStopwatch:
    @pytest.fixture(autouse=True)
    def stepping_clock(self, monkeypatch):
        """``perf_counter`` as the stopwatch sees it: a quarter second later per reading."""
        readings = itertools.count()
        monkeypatch.setattr("repro.utils.timing.time.perf_counter",
                            lambda: next(readings) * 0.25)

    def test_measure_accumulates(self):
        stopwatch = Stopwatch()
        with stopwatch.measure("step"):
            pass
        with stopwatch.measure("step"):
            pass
        assert stopwatch.total("step") == 0.5
        assert stopwatch.counts["step"] == 2
        assert stopwatch.mean("step") == 0.25

    def test_unknown_section_is_zero(self):
        assert Stopwatch().total("missing") == 0.0

    def test_throughput(self):
        stopwatch = Stopwatch()
        with stopwatch.measure("work"):
            pass
        assert stopwatch.throughput("work", 10) == 40.0
