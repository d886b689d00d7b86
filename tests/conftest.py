"""Shared fixtures: a small hand-written database and a tiny synthetic dataset."""

from __future__ import annotations

import pytest

from repro.datasets import CollectionConfig, build_collection, build_spider_like
from repro.datasets.robustness import make_realistic_variant, make_synonym_variant
from repro.engine import DatabaseInstance
from repro.schema import Catalog, Column, ColumnType, Database, ForeignKey, Table


@pytest.fixture
def concert_database() -> Database:
    """The paper's running example: singers, concerts, and their junction table."""
    return Database(
        name="concert_singer",
        tables=[
            Table("singer", [
                Column("singer_id", ColumnType.INTEGER, is_primary_key=True),
                Column("name"),
                Column("country"),
                Column("age", ColumnType.INTEGER),
            ]),
            Table("concert", [
                Column("concert_id", ColumnType.INTEGER, is_primary_key=True),
                Column("venue"),
                Column("year", ColumnType.INTEGER),
            ]),
            Table("singer_in_concert", [
                Column("singer_id", ColumnType.INTEGER),
                Column("concert_id", ColumnType.INTEGER),
            ]),
        ],
        foreign_keys=[
            ForeignKey("singer_in_concert", "singer_id", "singer", "singer_id"),
            ForeignKey("singer_in_concert", "concert_id", "concert", "concert_id"),
        ],
    )


@pytest.fixture
def concert_instance(concert_database) -> DatabaseInstance:
    instance = DatabaseInstance(schema=concert_database)
    instance.insert_many("singer", [
        (1, "Alice", "France", 30),
        (2, "Bob", "Japan", 40),
        (3, "Carol", "France", 25),
    ])
    instance.insert_many("concert", [
        (1, "Grand Arena", 2022),
        (2, "Riverside Hall", 2014),
    ])
    instance.insert_many("singer_in_concert", [(1, 1), (2, 1), (3, 2)])
    return instance


@pytest.fixture
def world_database() -> Database:
    return Database(
        name="world",
        tables=[
            Table("country", [
                Column("country_id", ColumnType.INTEGER, is_primary_key=True),
                Column("name"),
                Column("continent"),
                Column("population", ColumnType.INTEGER),
            ]),
            Table("city", [
                Column("city_id", ColumnType.INTEGER, is_primary_key=True),
                Column("name"),
                Column("population", ColumnType.INTEGER),
                Column("country_id", ColumnType.INTEGER),
            ]),
        ],
        foreign_keys=[ForeignKey("city", "country_id", "country", "country_id")],
    )


@pytest.fixture
def small_catalog(concert_database, world_database) -> Catalog:
    return Catalog(name="small", databases=[concert_database, world_database])


@pytest.fixture(scope="session")
def tiny_dataset():
    """A very small multi-database benchmark for integration-style tests."""
    config = CollectionConfig(name="tiny", num_databases=6, rows_per_table=12,
                              examples_per_database=8, seed=7)
    return build_collection(config)


@pytest.fixture(scope="session")
def spider_like():
    """The collection the end-to-end benchmark's fixture is built from."""
    return build_spider_like()


@pytest.fixture(scope="session")
def spider_like_test_examples(spider_like):
    """The 900 examples the ``nl2sql_e2e`` row answers: the test split with
    its regular, ``syn`` and ``real`` questions."""
    return (spider_like.test_examples
            + make_synonym_variant(spider_like).test_examples
            + make_realistic_variant(spider_like).test_examples)
