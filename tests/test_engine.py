"""Tests for the in-memory relational engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine import (
    DatabaseInstance,
    Relation,
    compare_values,
    results_equivalent,
)
from repro.engine.relation import from_records
from repro.engine.values import canonical, coerce_value, values_equal
from repro.schema import ColumnType


class TestValues:
    def test_coerce_integer(self):
        assert coerce_value("5", ColumnType.INTEGER) == 5
        assert coerce_value(True, ColumnType.INTEGER) == 1

    def test_coerce_boolean_strings(self):
        assert coerce_value("yes", ColumnType.BOOLEAN) is True
        assert coerce_value("0", ColumnType.BOOLEAN) is False
        with pytest.raises(ValueError):
            coerce_value("maybe", ColumnType.BOOLEAN)

    def test_none_stays_none(self):
        assert coerce_value(None, ColumnType.INTEGER) is None

    def test_compare_nulls_first(self):
        assert compare_values(None, 1) == -1
        assert compare_values(1, None) == 1
        assert compare_values(None, None) == 0

    def test_values_equal_null_semantics(self):
        assert not values_equal(None, None)
        assert values_equal(3, 3.0)

    def test_canonical_collapses_integral_floats(self):
        assert canonical(3.0) == canonical(3)
        assert canonical(True) == canonical(1)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_compare_is_antisymmetric(self, a, b):
        assert compare_values(a, b) == -compare_values(b, a)

    def test_compare_same_type_and_mixed(self):
        assert compare_values("b", "a") == 1 and compare_values("a", "a") == 0
        assert compare_values(1.5, 2.5) == -1 and compare_values(2, 2.0) == 0
        assert compare_values(True, 1) == 0 and compare_values(False, True) == -1
        # A number and a string compare by their string forms.
        assert compare_values(10, "9") == -1 and compare_values(5, "5") == 0


class TestRelation:
    @pytest.fixture
    def relation(self):
        return Relation(["t.a", "t.b"], [(1, "x"), (2, "y"), (2, "z")])

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            Relation(["a"], [(1, 2)])

    def test_column_index_qualified_and_bare(self, relation):
        assert relation.column_index("t.a") == 0
        assert relation.column_index("b") == 1
        with pytest.raises(KeyError):
            relation.column_index("missing")

    def test_ambiguous_bare_name(self):
        relation = Relation(["x.a", "y.a"], [])
        with pytest.raises(KeyError):
            relation.column_index("a")

    def test_hash_join_skips_nulls(self):
        left = Relation(["l.k"], [(1,), (None,)])
        right = Relation(["r.k", "r.v"], [(1, "a"), (1, "b")])
        joined = left.hash_join(right, 0, 0)
        assert joined.columns == ["l.k", "r.k", "r.v"]
        assert joined.rows == [(1, 1, "a"), (1, 1, "b")]

    def test_hash_join_matches_canonical_keys(self):
        left = Relation(["l.k"], [(1.0,), (True,), ("1",)])
        right = Relation(["r.k"], [(1,)])
        assert left.hash_join(right, 0, 0).rows == [(1.0, 1), (True, 1)]

    def test_limit_and_offset(self, relation):
        assert relation.limit(1).rows == [(1, "x")]
        assert len(relation.limit(None, offset=1)) == 2

    def test_distinct(self):
        relation = Relation(["a"], [(1,), (1,), (2,)])
        assert len(relation.distinct()) == 2

    def test_operators_keep_the_ordered_flag(self):
        relation = Relation(["a"], [(2,), (1,), (1,)], ordered=True)
        assert relation.distinct().ordered and relation.limit(1).ordered
        assert not Relation(["a"], [(1,)]).limit(1).ordered

    def test_trusted_skips_the_width_check(self):
        # Operators derive rows from checked rows, so they do not re-check;
        # the public constructor and from_records still do.
        assert Relation.trusted(["a"], [(1, 2)]).rows == [(1, 2)]
        with pytest.raises(ValueError):
            from_records(["a"], [[1, 2]])


class TestDatabaseInstance:
    def test_insert_validates_arity(self, concert_database):
        instance = DatabaseInstance(schema=concert_database)
        with pytest.raises(ValueError):
            instance.insert("singer", (1, "Alice"))

    def test_insert_unknown_table(self, concert_database):
        instance = DatabaseInstance(schema=concert_database)
        with pytest.raises(KeyError):
            instance.schema.table("missing")

    def test_scan_uses_alias(self, concert_instance):
        relation = concert_instance.scan("singer", alias="s")
        assert relation.columns[0] == "s.singer_id"
        assert len(relation) == 3

    def test_column_values(self, concert_instance):
        values = concert_instance.column_values()
        assert values["singer"]["name"] == ["Alice", "Bob", "Carol"]

    def test_version_moves_on_inserts_only(self, concert_database):
        instance = DatabaseInstance(schema=concert_database)
        assert instance.version == 0
        instance.insert("singer", (1, "Alice", "France", 30))
        assert instance.version == 1
        instance.insert_many("concert", [(1, "Grand Arena", 2022), (2, "Hall", 2014)])
        assert instance.version == 3
        instance.insert_many("concert", [])
        instance.scan("singer")
        instance.row_count("concert")
        instance.column_values()
        assert instance.version == 3
        # the same rows are equal, and print alike, however they were filled
        rebuilt = DatabaseInstance(schema=concert_database,
                                   tables={name: list(rows)
                                           for name, rows in instance.tables.items()})
        assert rebuilt.version == 0
        assert rebuilt == instance and repr(rebuilt) == repr(instance)


class TestResultComparison:
    def test_order_insensitive_by_default(self):
        a = Relation(["x"], [(1,), (2,)])
        b = Relation(["x"], [(2,), (1,)])
        assert results_equivalent(a, b)
        assert not results_equivalent(a, b, order_sensitive=True)

    def test_multiset_semantics(self):
        a = Relation(["x"], [(1,), (1,)])
        b = Relation(["x"], [(1,)])
        assert not results_equivalent(a, b)

    def test_failed_execution_never_matches(self):
        a = Relation(["x"], [(1,)])
        assert not results_equivalent(None, a)
        assert not results_equivalent(None, None)

    def test_numeric_normalisation(self):
        a = Relation(["x"], [(2.0,)])
        b = Relation(["x"], [(2,)])
        assert results_equivalent(a, b)

    def test_arity_mismatch(self):
        a = Relation(["x"], [(1,)])
        b = Relation(["x", "y"], [(1, 2)])
        assert not results_equivalent(a, b)
