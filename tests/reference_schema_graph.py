"""The parent commit's networkx-backed ``SchemaGraph``, kept verbatim as the
oracle for ``tests/test_schema_graph_differential.py``.

``repro.core.graph`` now holds the graph on two plain dicts; this file is the
module it replaced (``src/repro/core/graph.py`` at the commit before), body
unchanged -- so it carries its own ``NodeKind`` (compare kinds by ``.value``)
and builds the same node tuples.  Needs ``networkx`` (the ``dev`` extra);
nothing under ``src/`` does.
"""

from __future__ import annotations

from enum import Enum

import networkx as nx

from repro.engine.instance import CatalogInstance
from repro.schema.catalog import Catalog
from repro.schema.joinability import DEFAULT_JACCARD_THRESHOLD, joinable_table_pairs


class NodeKind(str, Enum):
    """Type tag attached to every graph node."""

    ROOT = "root"
    DATABASE = "database"
    TABLE = "table"


#: The single root node (set of all databases).
ROOT_NODE = ("root",)


def database_node(database: str) -> tuple[str, str]:
    return ("database", database)


def table_node(database: str, table: str) -> tuple[str, str, str]:
    return ("table", database, table)


class SchemaGraph:
    """The heterogeneous schema graph over a catalog."""

    def __init__(self, catalog: Catalog, graph: nx.DiGraph) -> None:
        self.catalog = catalog
        self.graph = graph

    # -- construction (Algorithm 1) -------------------------------------------
    @classmethod
    def from_catalog(cls, catalog: Catalog, instances: CatalogInstance | None = None,
                     jaccard_threshold: float = DEFAULT_JACCARD_THRESHOLD) -> "SchemaGraph":
        """Build the schema graph for ``catalog``.

        When ``instances`` is provided, value-overlap Joinable edges are added
        using the Jaccard heuristic (threshold 0.85 by default, §4.1.5);
        otherwise only declared foreign-key relationships produce table edges.
        """
        graph = nx.DiGraph()
        graph.add_node(ROOT_NODE, kind=NodeKind.ROOT)
        for database in catalog:
            db_node = database_node(database.name)
            graph.add_node(db_node, kind=NodeKind.DATABASE, name=database.name)
            graph.add_edge(ROOT_NODE, db_node, relation="includes")
            for table in database.tables:
                t_node = table_node(database.name, table.name)
                graph.add_node(t_node, kind=NodeKind.TABLE, name=table.name,
                               database=database.name)
                graph.add_edge(db_node, t_node, relation="includes")
            column_values = None
            if instances is not None:
                column_values = instances.instance(database.name).column_values()
            # Joinable covers Primary-Foreign and Foreign-Foreign relations.
            for left, right in joinable_table_pairs(database, column_values,
                                                    threshold=jaccard_threshold):
                left_node = table_node(database.name, left)
                right_node = table_node(database.name, right)
                graph.add_edge(left_node, right_node, relation="joinable")
                graph.add_edge(right_node, left_node, relation="joinable")
        return cls(catalog=catalog, graph=graph)

    @classmethod
    def from_components(cls, catalog: Catalog,
                        joinable_edges: "list[tuple[str, str, str]] | tuple" = ()) -> "SchemaGraph":
        """Rebuild a graph from a catalog plus explicit joinable table pairs.

        This is the checkpoint-restore path: a saved graph records its
        ``(database, left_table, right_table)`` joinable pairs so the exact
        edge set is reproduced without re-running the Jaccard heuristic (which
        would need the original table instances).
        """
        graph = nx.DiGraph()
        graph.add_node(ROOT_NODE, kind=NodeKind.ROOT)
        for database in catalog:
            db_node = database_node(database.name)
            graph.add_node(db_node, kind=NodeKind.DATABASE, name=database.name)
            graph.add_edge(ROOT_NODE, db_node, relation="includes")
            for table in database.tables:
                t_node = table_node(database.name, table.name)
                graph.add_node(t_node, kind=NodeKind.TABLE, name=table.name,
                               database=database.name)
                graph.add_edge(db_node, t_node, relation="includes")
        for database_name, left, right in joinable_edges:
            left_node = table_node(database_name, left)
            right_node = table_node(database_name, right)
            if left_node not in graph or right_node not in graph:
                raise ValueError(
                    f"joinable edge references unknown table: {database_name}.{left}"
                    f" <-> {database_name}.{right}"
                )
            graph.add_edge(left_node, right_node, relation="joinable")
            graph.add_edge(right_node, left_node, relation="joinable")
        return cls(catalog=catalog, graph=graph)

    # -- queries ------------------------------------------------------------------
    @property
    def root(self) -> tuple[str, ...]:
        return ROOT_NODE

    def databases(self) -> list[str]:
        return [self.graph.nodes[node]["name"]
                for node in self.graph.successors(ROOT_NODE)]

    def tables_of(self, database: str) -> list[str]:
        db_node = database_node(database)
        if db_node not in self.graph:
            raise KeyError(f"unknown database {database!r}")
        return [self.graph.nodes[node]["name"]
                for node in self.graph.successors(db_node)
                if self.graph.nodes[node]["kind"] is NodeKind.TABLE]

    def table_neighbors(self, database: str, table: str) -> list[str]:
        """Tables connected to ``table`` by a table relation (joinable edge)."""
        t_node = table_node(database, table)
        if t_node not in self.graph:
            raise KeyError(f"unknown table {database}.{table}")
        neighbors = []
        for successor in self.graph.successors(t_node):
            if self.graph.nodes[successor]["kind"] is NodeKind.TABLE:
                neighbors.append(self.graph.nodes[successor]["name"])
        return neighbors

    def has_database(self, database: str) -> bool:
        return database_node(database) in self.graph

    def has_table(self, database: str, table: str) -> bool:
        return table_node(database, table) in self.graph

    def successors(self, node: tuple) -> list[tuple]:
        return list(self.graph.successors(node))

    def node_name(self, node: tuple) -> str:
        if node == ROOT_NODE:
            return "<root>"
        return self.graph.nodes[node]["name"]

    def node_kind(self, node: tuple) -> NodeKind:
        return self.graph.nodes[node]["kind"]

    # -- validity --------------------------------------------------------------------
    def is_valid_schema(self, database: str, tables: tuple[str, ...] | list[str],
                        require_connected: bool = True) -> bool:
        """Check that ``<database, tables>`` is a valid SQL query schema.

        Validity requires every table to exist in the database and -- when
        ``require_connected`` -- the tables to form a connected subgraph under
        table relations (single tables are trivially connected).
        """
        if not self.has_database(database):
            return False
        table_list = list(tables)
        if not table_list:
            return False
        for table in table_list:
            if not self.has_table(database, table):
                return False
        if not require_connected or len(table_list) == 1:
            return True
        undirected = set()
        for table in table_list:
            for neighbor in self.table_neighbors(database, table):
                if neighbor in table_list:
                    undirected.add(frozenset((table, neighbor)))
        # Connectivity via union-find over the induced edges.
        parent = {table: table for table in table_list}

        def find(item: str) -> str:
            while parent[item] != item:
                parent[item] = parent[parent[item]]
                item = parent[item]
            return item

        for edge in undirected:
            left, right = tuple(edge)
            parent[find(left)] = find(right)
        roots = {find(table) for table in table_list}
        return len(roots) == 1

    def joinable_edges(self) -> list[tuple[str, str, str]]:
        """Undirected joinable table pairs as ``(database, left, right)``, each once."""
        edges: list[tuple[str, str, str]] = []
        seen: set[tuple[str, frozenset[str]]] = set()
        for source, target, data in self.graph.edges(data=True):
            if data.get("relation") != "joinable":
                continue
            database = source[1]
            key = (database, frozenset((source[2], target[2])))
            if key in seen:
                continue
            seen.add(key)
            edges.append((database, source[2], target[2]))
        return edges

    # -- statistics -----------------------------------------------------------------
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def num_edges(self) -> int:
        return self.graph.number_of_edges()
