"""Shard workers: one routing service per catalog partition.

A :class:`ShardWorker` owns everything one shard needs to serve its slice of
the catalog: a *projected* router (the trained model restricted to the shard's
sub-graph) and a :class:`repro.serving.RoutingService` with its own route
cache and metrics.  :meth:`ShardWorker.from_projection` is the one way a shard
is built -- by ``ClusterRoutingService.from_router``, by ``load_cluster`` for
an inproc fleet, and by each subprocess worker from the master router it
loads -- so a shard is the same object whichever backend serves it.

Projection shares the master model and vocabularies (decoding stays
bit-identical for sequences inside the shard) while the graph constraint and
hypothesis parsing only admit the shard's databases.  Because every shard
scores with the same model, raw scores are directly comparable across shards
-- the property the dispatcher's merge relies on.  Projected routers also run
with a reduced beam budget of plain (one-group) beams, derived from the
master's and the shard count, never configured: under the default escalation
cascade the fast tier decodes with a single beam and the careful tier with
``max(2, num_beams // num_shards)``; with the cascade disabled the single
pass uses ``max(1, num_beams // num_shards)`` (see
:meth:`ClusterConfig.shard_beams_for`).  A shard only has to surface the best
candidates of its own partition, which is where the cluster's single-core
speedup comes from.
"""

from __future__ import annotations

from repro.core.graph import SchemaGraph
from repro.core.router import SchemaRoute, SchemaRouter
from repro.serving.service import RoutingService, ServingConfig


def project_router(master: SchemaRouter, database_names: tuple[str, ...] | list[str],
                   num_beams: int | None = None) -> SchemaRouter:
    """Restrict a trained ``master`` router to ``database_names``.

    The projected router shares the master's model and vocabularies (no
    training, no copying of weights) but decodes under the sub-catalog's graph
    constraint, so it can only ever emit schemata of its own shard.  An empty
    ``database_names`` yields a router that routes every question to ``[]``.
    With a ``num_beams`` budget the projection decodes that many plain beams
    (one group); without one it keeps the master's search.
    """
    if not master.is_trained:
        raise ValueError("cannot project an untrained router")
    wanted = set(database_names)
    unknown = wanted - set(master.graph.catalog.database_names)
    if unknown:
        raise ValueError(f"databases not in the master catalog: {sorted(unknown)}")
    sub_catalog = master.graph.catalog.subset(database_names)
    edges = [edge for edge in master.graph.joinable_edges() if edge[0] in wanted]
    config = master.config
    if num_beams is not None:
        config = config.ablated(num_beams=num_beams, beam_groups=1)
    projected = SchemaRouter(graph=SchemaGraph.from_components(sub_catalog, edges),
                             config=config)
    projected.restore(master.model, master.source_vocabulary,
                      master.target_vocabulary, master.training_losses)
    return projected


class ShardWorker:
    """One shard of the cluster: a projected router behind a RoutingService.

    A worker optionally carries a second, *careful* decode tier: the same
    model and sub-graph re-wrapped with a wider beam budget
    (``escalation_num_beams``).  The dispatcher routes every question through
    the fast tier first and re-asks the careful tier only when the merged
    answer's confidence is low, so the wide beams are paid for exactly where
    they matter.
    """

    def __init__(self, shard_id: int, databases: tuple[str, ...], router: SchemaRouter,
                 serving_config: ServingConfig | None = None,
                 escalation_num_beams: int | None = None) -> None:
        self.shard_id = shard_id
        self.databases = tuple(databases)
        self.serving_config = serving_config or ServingConfig()
        self.escalation_num_beams = escalation_num_beams
        self.service = RoutingService(router, self.serving_config)
        self.careful_service: RoutingService | None = None
        if escalation_num_beams is not None:
            self.careful_service = RoutingService(self._careful_router(router),
                                                  self.serving_config)

    def _careful_router(self, fast: SchemaRouter) -> SchemaRouter:
        """The fast router's graph, model and vocabularies under the
        escalation beam budget, as a router of its own (own constraint memos
        and tries)."""
        careful = SchemaRouter(graph=fast.graph, config=fast.config.ablated(
            num_beams=self.escalation_num_beams, beam_groups=1))
        careful.restore(fast.model, fast.source_vocabulary,
                        fast.target_vocabulary, fast.training_losses)
        return careful

    @classmethod
    def from_projection(cls, shard_id: int, databases: tuple[str, ...],
                        master: SchemaRouter,
                        serving_config: ServingConfig | None = None,
                        num_beams: int | None = None,
                        escalation_num_beams: int | None = None) -> "ShardWorker":
        """``master`` projected onto ``databases`` at the given beam budgets
        (``escalation_num_beams`` adds the careful tier)."""
        router = project_router(master, databases, num_beams=num_beams)
        return cls(shard_id, databases, router, serving_config=serving_config,
                   escalation_num_beams=escalation_num_beams)

    # -- request path --------------------------------------------------------
    @property
    def router(self) -> SchemaRouter:
        return self.service.router

    def route_batch(self, questions: list[str], max_candidates: int | None = None,
                    careful: bool = False, trace=None) -> list[list[SchemaRoute]]:
        """Route one scatter wave (cache-aware, deduplicated within the wave).

        ``careful=True`` decodes through the escalation tier (wide beams)
        and raises ``ValueError`` on a worker built without one.  A
        caller-provided ``trace`` scope threads through to the service so
        encode/decode/parse spans nest under the dispatcher's scatter span.
        """
        if careful and self.careful_service is None:
            raise ValueError(f"shard {self.shard_id} has no careful tier")
        service = self.careful_service if careful else self.service
        return service.submit_many(questions, max_candidates=max_candidates,
                                   trace=trace)

    def send_route_batch(self, questions: list[str], max_candidates: int | None = None,
                         careful: bool = False, trace=None):
        """:meth:`route_batch`, answered inside the send; ``wait`` returns it."""
        routes = self.route_batch(questions, max_candidates, careful, trace=trace)
        return lambda: routes

    # -- rebalance hook ------------------------------------------------------
    def set_databases(self, databases: tuple[str, ...], master: SchemaRouter) -> None:
        """Re-project this shard onto a new database set (rebalancing).

        Swaps the routers under each service's route lock and bumps *this*
        shard's cache versions; other shards' caches are untouched.
        """
        router = project_router(master, databases,
                                num_beams=self.router.config.num_beams)
        self.databases = tuple(databases)
        self.service.replace_router(router)
        if self.careful_service is not None:
            self.careful_service.replace_router(self._careful_router(router))

    def notify_catalog_changed(self) -> None:
        self.service.notify_catalog_changed()
        if self.careful_service is not None:
            self.careful_service.notify_catalog_changed()

    # -- introspection / lifecycle ------------------------------------------
    def health(self, policy=None):
        """Both decode tiers' verdicts rolled up under one worker report."""
        from repro.obs.health import rollup

        fast = self.service.health(policy)
        fast.component = "fast_tier"
        children = [fast]
        if self.careful_service is not None:
            careful = self.careful_service.health(policy)
            careful.component = "careful_tier"
            children.append(careful)
        report = rollup(f"shard-{self.shard_id}-worker", children)
        report.details["databases"] = len(self.databases)
        return report

    def stats(self) -> dict:
        stats = self.service.stats()
        stats["shard_id"] = self.shard_id
        stats["databases"] = list(self.databases)
        if self.careful_service is not None:
            stats["careful"] = self.careful_service.stats()
        return stats

    def close(self) -> None:
        self.service.close()
        if self.careful_service is not None:
            self.careful_service.close()

    def __repr__(self) -> str:
        return f"ShardWorker(shard_id={self.shard_id}, databases={list(self.databases)})"
