"""Tests for the relational schema model."""

from __future__ import annotations

import pytest

from repro.schema import (
    Catalog,
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Table,
    describe_catalog,
    jaccard_similarity,
    joinable_table_pairs,
)


class TestColumn:
    def test_name_is_normalized(self):
        assert Column("Full Name").name == "full_name"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Column("  !! ")

    def test_describe_mentions_primary_key(self):
        assert "[primary key]" in Column("id", ColumnType.INTEGER, True).describe()

    def test_numeric_types(self):
        assert ColumnType.INTEGER.is_numeric and ColumnType.REAL.is_numeric
        assert not ColumnType.TEXT.is_numeric


class TestTable:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a"), Column("a")])

    def test_column_lookup(self):
        table = Table("t", [Column("a"), Column("b", ColumnType.INTEGER)])
        assert table.column("b").column_type is ColumnType.INTEGER
        with pytest.raises(KeyError):
            table.column("missing")

    def test_primary_key(self):
        table = Table("t", [Column("id", ColumnType.INTEGER, True), Column("x")])
        assert table.primary_key.name == "id"

    def test_schema_line(self):
        table = Table("t", [Column("a"), Column("b")])
        assert table.schema_line() == "t(a, b)"

    def test_singular_word_sets_are_computed_once_and_follow_add_column(self):
        table = Table("SingersInConcerts", [Column("concert_ids"), Column("stage_names")])
        assert table.singular_words == {"singer", "in", "concert"}
        assert table.columns[0].singular_words == {"concert", "id"}
        assert table.column_singular_words == {"concert", "id", "stage", "name"}
        assert table.column_singular_words is table.column_singular_words
        assert table.columns[0].singular_words is table.columns[0].singular_words
        table.add_column(Column("ticket_prices"))
        assert table.column_singular_words >= {"ticket", "price"}

    def test_flat_description_contains_column_words(self):
        table = Table("singer", [Column("net_worth", ColumnType.REAL)])
        assert "net" in table.flat_description() and "worth" in table.flat_description()


class TestDatabase:
    def test_foreign_key_validation(self):
        with pytest.raises(ValueError):
            Database(name="d", tables=[Table("a", [Column("x")])],
                     foreign_keys=[ForeignKey("a", "x", "missing", "y")])

    def test_related_tables(self, concert_database):
        related = concert_database.related_tables("singer_in_concert")
        assert set(related) == {"singer", "concert"}

    def test_join_condition_both_directions(self, concert_database):
        forward = concert_database.join_condition("singer_in_concert", "singer")
        backward = concert_database.join_condition("singer", "singer_in_concert")
        assert forward is not None and backward is not None
        assert forward.source_table == "singer_in_concert"
        assert backward.source_table == "singer"

    def test_add_table_duplicate(self, concert_database):
        with pytest.raises(ValueError):
            concert_database.add_table(Table("singer", [Column("x")]))

    def test_counts(self, concert_database):
        assert concert_database.num_tables == 3
        assert concert_database.num_columns == 9

    def test_table_lookup_by_any_spelling(self, concert_database):
        singer = concert_database.tables[0]
        for name in ("singer", "Singer", " singer ", "SingerInConcert"):
            assert concert_database.has_table(name)
        assert concert_database.table("Singer") is singer
        assert concert_database.table("Singer In Concert").name == "singer_in_concert"
        assert not concert_database.has_table("singers")
        with pytest.raises(KeyError, match="no table 'ghost_table'"):
            concert_database.table("GhostTable")

    def test_lookup_keeps_step_with_add_table(self, concert_database):
        assert not concert_database.has_table("venue")
        venue = Table("Venue", [Column("venue_id", ColumnType.INTEGER)])
        concert_database.add_table(venue)
        assert concert_database.table("venue") is venue
        assert concert_database.table_names[-1] == "venue"
        with pytest.raises(ValueError):
            concert_database.add_table(Table("venue", [Column("x")]))

    def test_duplicate_tables_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Database("d", tables=[Table("t", [Column("a")]), Table("T", [Column("b")])])


class TestCatalog:
    def test_membership(self, small_catalog):
        assert "concert_singer" in small_catalog
        assert "nope" not in small_catalog
        assert len(small_catalog) == 2

    def test_duplicate_database_rejected(self, concert_database):
        with pytest.raises(ValueError):
            Catalog(databases=[concert_database, concert_database])

    def test_database_lookup_keeps_step_with_add_database(self, small_catalog):
        assert small_catalog.database("World") is small_catalog.databases[1]
        assert not small_catalog.has_database("library")
        library = Database("Library", tables=[Table("book", [Column("title")])])
        small_catalog.add_database(library)
        assert small_catalog.database("library") is library and "Library" in small_catalog
        with pytest.raises(ValueError):
            small_catalog.add_database(Database("library"))
        with pytest.raises(KeyError, match="no database 'ghost'"):
            small_catalog.database("Ghost")

    def test_iter_tables(self, small_catalog):
        pairs = list(small_catalog.iter_tables())
        assert ("concert_singer", "singer") in [(db.name, t.name) for db, t in pairs]

    def test_subset(self, small_catalog):
        subset = small_catalog.subset(["world"])
        assert subset.database_names == ["world"]

    def test_statistics(self, small_catalog):
        stats = describe_catalog(small_catalog)
        assert stats.num_databases == 2
        assert stats.num_tables == 5
        assert stats.num_columns == small_catalog.num_columns
        assert stats.max_tables_per_database == 3


class TestJoinability:
    def test_jaccard(self):
        assert jaccard_similarity([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)
        assert jaccard_similarity([], []) == 0.0
        assert jaccard_similarity([1], [1]) == 1.0

    def test_foreign_keys_always_joinable(self, concert_database):
        pairs = joinable_table_pairs(concert_database)
        assert ("singer_in_concert", "singer") in pairs or ("singer", "singer_in_concert") in pairs

    def test_foreign_foreign_implicit_link(self, concert_database):
        pairs = joinable_table_pairs(concert_database)
        flattened = {frozenset(pair) for pair in pairs}
        # singer and concert both reference the junction table columns, but the
        # implicit link only exists when two tables reference the *same* column;
        # here they reference different columns, so no direct edge is required.
        assert frozenset(("singer_in_concert", "concert")) in flattened

    def test_value_overlap_joins(self, concert_database, concert_instance):
        values = concert_instance.column_values()
        # Make two columns overlap perfectly to trigger the Jaccard heuristic.
        values["singer"]["country"] = ["x", "y", "z"]
        values["concert"]["venue"] = ["x", "y", "z"]
        pairs = joinable_table_pairs(concert_database, values, threshold=0.9)
        assert frozenset(("singer", "concert")) in {frozenset(pair) for pair in pairs}
