"""Catalog-change handling: reassigning databases between live shards.

The master router defines the universe of databases the cluster *can* serve
(its trained model and vocabularies cover them); the assignment defines which
of them each shard *does* serve.  Rebalancing moves databases within that
universe without retraining:

* :meth:`ClusterRebalancer.add_database` attaches a currently-unassigned
  database (e.g. one that was detached earlier, or deliberately held back at
  cluster build time) to the least-loaded shard;
* :meth:`ClusterRebalancer.remove_database` detaches a database, so no shard
  routes questions to it any more;
* :meth:`ClusterRebalancer.move_database` relocates a database to a specific
  shard (manual hot-shard mitigation).

Every operation re-projects only the affected shard's replicas -- its fast
and careful routers swapped in one assignment, the other shards untouched --
and then calls the cluster's ``notify_catalog_changed()``, which bumps the
catalog version and stales the front's cached answers (the fleet's only
cache): those are merged across all shards, so any shard's change stales
them.
"""

from __future__ import annotations

from repro.cluster.service import ClusterRoutingService


class RebalanceError(RuntimeError):
    """An invalid rebalance request (unknown database, bad shard, ...)."""


class ClusterRebalancer:
    """Applies catalog changes to a live :class:`ClusterRoutingService`."""

    def __init__(self, cluster: ClusterRoutingService) -> None:
        if cluster.master_router is None:
            raise RebalanceError("rebalancing needs the cluster's master router "
                                 "(build the cluster with from_router/load_cluster)")
        self.cluster = cluster

    # -- helpers -------------------------------------------------------------
    def _known(self, database: str) -> None:
        if database not in self.cluster.master_router.graph.catalog.database_names:
            raise RebalanceError(f"database {database!r} is outside the master "
                                 "router's catalog; retrain to add truly new data")

    def _reassign_shard(self, shard_id: int, databases: tuple[str, ...]) -> None:
        """Re-project one shard's replicas; the version moves last, once the
        shard answers for the new catalog."""
        cluster = self.cluster
        cluster.assignment = cluster.assignment.replace_shard(shard_id, databases)
        cluster.shards[shard_id].set_databases(databases, cluster.master_router)
        cluster.notify_catalog_changed()

    def least_loaded_shard(self) -> int:
        """The shard with the fewest tables (ties -> lowest shard id)."""
        catalog = self.cluster.master_router.graph.catalog
        loads = []
        for shard_id, databases in enumerate(self.cluster.assignment.shards):
            loads.append((sum(catalog.database(name).num_tables for name in databases),
                          shard_id))
        return min(loads)[1]

    # -- operations ----------------------------------------------------------
    def add_database(self, database: str, shard_id: int | None = None) -> int:
        """Attach ``database`` to a shard (least-loaded unless given).

        Returns the shard id it landed on.
        """
        self._known(database)
        assigned = set(self.cluster.assignment.database_names)
        if database in assigned:
            raise RebalanceError(f"database {database!r} is already served by "
                                 f"shard {self.cluster.shard_of(database)}")
        if shard_id is None:
            shard_id = self.least_loaded_shard()
        if not 0 <= shard_id < self.cluster.num_shards:
            raise RebalanceError(f"no shard {shard_id} in a "
                                 f"{self.cluster.num_shards}-shard cluster")
        databases = self.cluster.assignment.shards[shard_id] + (database,)
        self._reassign_shard(shard_id, databases)
        return shard_id

    def remove_database(self, database: str) -> int:
        """Detach ``database`` from its shard; returns the shard id it left."""
        try:
            shard_id = self.cluster.shard_of(database)
        except KeyError as error:
            raise RebalanceError(f"database {database!r} is not currently served") from error
        databases = tuple(name for name in self.cluster.assignment.shards[shard_id]
                          if name != database)
        self._reassign_shard(shard_id, databases)
        return shard_id

    def move_database(self, database: str, shard_id: int) -> None:
        """Relocate ``database`` to ``shard_id`` (both shards re-projected)."""
        if not 0 <= shard_id < self.cluster.num_shards:
            raise RebalanceError(f"no shard {shard_id} in a "
                                 f"{self.cluster.num_shards}-shard cluster")
        try:
            source = self.cluster.shard_of(database)
        except KeyError as error:
            raise RebalanceError(f"database {database!r} is not currently served") from error
        if source == shard_id:
            return
        self.remove_database(database)
        self.add_database(database, shard_id=shard_id)
