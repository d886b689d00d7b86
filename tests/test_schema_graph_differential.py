"""The dict-backed ``SchemaGraph`` against the networkx-backed one it replaced.

``tests/reference_schema_graph.py`` is the parent commit's class, verbatim.
Every query method must return the same values *in the same order* from both
-- order is what serialization, the decoding constraint and checkpoints
record -- over the conftest catalogs, ``build_spider_like()`` at default scale
(with value-overlap edges) and a hypothesis sweep of small catalogs with
foreign keys.  Unknown lookups raise the same exception type, with one
exception the replacement cannot keep: ``successors(unknown)`` raised
networkx's own ``NetworkXError`` and is now a ``KeyError`` like the rest
(nothing in ``src/`` catches either).  A checkpoint written from a router on
either graph loads, verifies and re-saves identically on the other.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from hypothesis import given, settings, strategies as st  # noqa: E402

import reference_schema_graph as reference  # noqa: E402

from repro.cluster import ClusterConfig, ClusterRoutingService, load_cluster, save_cluster  # noqa: E402
from repro.core import (  # noqa: E402
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
from repro.core.graph import ROOT_NODE, database_node, table_node  # noqa: E402
from repro.schema import Catalog, Column, ColumnType, Database, ForeignKey, Table  # noqa: E402
from repro.serving import load_router, save_router  # noqa: E402

UNKNOWN_TABLE = table_node("no_such_database", "no_such_table")


def _outcome(call):
    """A call's value, or the type of the exception it raised."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return type(error)


def assert_same_graph(new: SchemaGraph, old: reference.SchemaGraph) -> None:
    assert new.root == old.root == ROOT_NODE
    assert new.databases() == old.databases()
    assert (new.num_nodes(), new.num_edges()) == (old.num_nodes(), old.num_edges())
    assert new.joinable_edges() == old.joinable_edges()
    assert new.successors(ROOT_NODE) == old.successors(ROOT_NODE)
    assert new.node_name(ROOT_NODE) == old.node_name(ROOT_NODE)
    assert new.node_kind(ROOT_NODE).value == old.node_kind(ROOT_NODE).value
    for database in new.databases():
        tables = new.tables_of(database)
        assert tables == old.tables_of(database)
        assert new.has_database(database) and old.has_database(database)
        nodes = [database_node(database)] + [table_node(database, table) for table in tables]
        for node in nodes:
            assert new.successors(node) == old.successors(node)
            assert new.node_name(node) == old.node_name(node)
            assert new.node_kind(node).value == old.node_kind(node).value
        for table in tables:
            assert new.has_table(database, table) and old.has_table(database, table)
            assert new.table_neighbors(database, table) == old.table_neighbors(database, table)
        candidates = [(), ("no_such_table",), *itertools.chain.from_iterable(
            itertools.islice(itertools.permutations(tables, size), 40)
            for size in (1, 2, 3))]
        for candidate, connected in itertools.product(candidates, (True, False)):
            assert new.is_valid_schema(database, candidate, connected) \
                == old.is_valid_schema(database, candidate, connected)
    assert not new.is_valid_schema("no_such_database", ("t",))
    assert not old.is_valid_schema("no_such_database", ("t",))
    for method, arguments in (
            ("tables_of", ("no_such_database",)),
            ("table_neighbors", ("no_such_database", "no_such_table")),
            ("node_name", (UNKNOWN_TABLE,)),
            ("node_kind", (UNKNOWN_TABLE,)),
            ("has_database", ("no_such_database",)),
            ("has_table", ("no_such_database", "no_such_table"))):
        assert _outcome(lambda: getattr(new, method)(*arguments)) \
            == _outcome(lambda: getattr(old, method)(*arguments)), method
    # The one divergence: networkx's own error type left with networkx.
    assert _outcome(lambda: old.successors(UNKNOWN_TABLE)) is nx.NetworkXError
    assert _outcome(lambda: new.successors(UNKNOWN_TABLE)) is KeyError


def assert_same_construction(catalog: Catalog, instances=None) -> None:
    new = SchemaGraph.from_catalog(catalog, instances)
    old = reference.SchemaGraph.from_catalog(catalog, instances)
    assert_same_graph(new, old)
    # The checkpoint-restore path, each side rebuilt from the *other's* edges.
    assert_same_graph(SchemaGraph.from_components(catalog, old.joinable_edges()),
                      reference.SchemaGraph.from_components(catalog, new.joinable_edges()))
    bad_edge = [("no_such_database", "a", "b")]
    assert _outcome(lambda: SchemaGraph.from_components(catalog, bad_edge)) \
        is _outcome(lambda: reference.SchemaGraph.from_components(catalog, bad_edge)) \
        is ValueError


def test_conftest_catalogs(small_catalog, tiny_dataset):
    assert_same_construction(small_catalog)
    assert_same_construction(Catalog(name="empty"))
    assert_same_construction(tiny_dataset.catalog)
    assert_same_construction(tiny_dataset.catalog, tiny_dataset.instances)


def test_spider_like_at_default_scale(spider_like):
    assert_same_construction(spider_like.catalog)
    assert_same_construction(spider_like.catalog, spider_like.instances)


@st.composite
def catalogs(draw) -> Catalog:
    """1-3 databases of 1-5 three-column tables with arbitrary foreign keys
    (self-references, duplicates and shared targets included)."""
    databases = []
    for database_index in range(draw(st.integers(1, 3))):
        num_tables = draw(st.integers(1, 5))
        tables = [Table(f"t{index}", [Column("id", ColumnType.INTEGER, is_primary_key=True),
                                      Column("a", ColumnType.INTEGER),
                                      Column("b", ColumnType.INTEGER)])
                  for index in range(num_tables)]
        table_index = st.integers(0, num_tables - 1)
        column = st.sampled_from(["id", "a", "b"])
        keys = draw(st.lists(st.tuples(table_index, column, table_index, column), max_size=8))
        databases.append(Database(
            name=f"db{database_index}", tables=tables,
            foreign_keys=[ForeignKey(f"t{source}", source_column, f"t{target}", target_column)
                          for source, source_column, target, target_column in keys]))
    return Catalog(name="drawn", databases=databases)


@settings(max_examples=150, deadline=None)
@given(catalogs())
def test_hypothesis_sweep_of_small_catalogs(catalog):
    assert_same_construction(catalog)


# -- checkpoints cross over ----------------------------------------------------
def _masked_manifests(path) -> dict[str, str]:
    """Every manifest under ``path``, archive checksums masked (an ``.npz``
    carries zip timestamps on older numpy; arrays are compared by content)."""
    return {str(manifest.relative_to(path)):
            re.sub(r'"sha256": "[0-9a-f]+"', '"sha256": "*"', manifest.read_text())
            for manifest in sorted(path.rglob("*.json"))}


def assert_same_weights(path, router) -> None:
    """The weight archive of the router checkpoint at ``path`` holds exactly
    ``router``'s parameter arrays."""
    parameters = dict(router.model.named_parameters())
    with np.load(path / "weights.npz") as archive:
        assert sorted(archive.files) == sorted(parameters)
        for name, parameter in parameters.items():
            assert np.array_equal(archive[name], parameter.data), name


@pytest.fixture(scope="module")
def twin_routers():
    """One trained model behind a router on each graph implementation."""
    catalog = Catalog(name="twins", databases=[
        Database(name=f"shop{index}", tables=[
            Table("customer", [Column("customer_id", ColumnType.INTEGER, is_primary_key=True),
                               Column("name")]),
            Table(f"order{index}", [Column("order_id", ColumnType.INTEGER, is_primary_key=True),
                                    Column("customer_id", ColumnType.INTEGER)]),
            Table("item", [Column("item_id", ColumnType.INTEGER, is_primary_key=True),
                           Column("order_id", ColumnType.INTEGER)]),
        ], foreign_keys=[ForeignKey(f"order{index}", "customer_id", "customer", "customer_id"),
                         ForeignKey("item", "order_id", f"order{index}", "order_id")])
        for index in range(4)])
    graph = SchemaGraph.from_catalog(catalog)
    report = synthesize_training_data(SchemaSampler(graph, seed=5),
                                      TemplateQuestioner(catalog=catalog, seed=5),
                                      SynthesisConfig(num_samples=120))
    config = RouterConfig(epochs=4, embedding_dim=16, hidden_dim=24, num_beams=4,
                          beam_groups=2, seed=5)
    new = SchemaRouter(graph=graph, config=config)
    new.fit(report.examples)
    old = SchemaRouter(graph=reference.SchemaGraph.from_catalog(catalog), config=config)
    old.restore(new.model, new.source_vocabulary, new.target_vocabulary,
                new.training_losses)
    return new, old


def test_router_checkpoints_cross_over(twin_routers, tmp_path, monkeypatch):
    new, old = twin_routers
    from_new = save_router(new, tmp_path / "from-new")
    from_old = save_router(old, tmp_path / "from-old")
    assert _masked_manifests(from_new) == _masked_manifests(from_old)
    assert_same_weights(from_new, old)
    assert_same_weights(from_old, new)
    # The old graph's checkpoint loads under the new class and re-saves equal ...
    loaded = load_router(from_old)
    assert type(loaded.graph) is SchemaGraph
    assert_same_weights(from_old, loaded)
    assert _masked_manifests(save_router(loaded, tmp_path / "resaved-new")) \
        == _masked_manifests(from_old)
    # ... and the new graph's under the old class.
    monkeypatch.setattr("repro.serving.checkpoint.SchemaGraph", reference.SchemaGraph)
    loaded = load_router(from_new)
    assert type(loaded.graph) is reference.SchemaGraph
    assert_same_weights(from_new, loaded)
    assert _masked_manifests(save_router(loaded, tmp_path / "resaved-old")) \
        == _masked_manifests(from_new)
    question = "how many customers are there"
    assert loaded.route(question) == new.route(question) == old.route(question)


def test_cluster_checkpoints_cross_over(twin_routers, tmp_path, monkeypatch):
    new, old = twin_routers
    config = ClusterConfig(num_shards=2)
    with ClusterRoutingService.from_router(new, config) as built:
        from_new = save_cluster(built, tmp_path / "from-new")
    with monkeypatch.context() as patched:  # shard projections on the old graph
        patched.setattr("repro.cluster.shard.SchemaGraph", reference.SchemaGraph)
        with ClusterRoutingService.from_router(old, config) as built:
            assert all(type(replicas.workers[0].router.graph) is reference.SchemaGraph
                       for replicas in built.shards)
            from_old = save_cluster(built, tmp_path / "from-old")
    assert len(_masked_manifests(from_new)) == 2  # cluster, master
    assert _masked_manifests(from_new) == _masked_manifests(from_old)
    with load_cluster(from_old) as loaded:  # old graph's fleet under the new class
        assert type(loaded.master_router.graph) is SchemaGraph
        assert_same_weights(from_old / "master", new)
        resaved = save_cluster(loaded, tmp_path / "resaved")
    assert _masked_manifests(resaved) == _masked_manifests(from_old)
