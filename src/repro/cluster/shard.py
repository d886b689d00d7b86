"""Shard workers: one projected router per catalog partition.

A :class:`ShardWorker` is what one shard needs to serve its slice of the
catalog: a *projected* router (the trained model restricted to the shard's
sub-graph) and, under the escalation cascade, a careful twin at a wider beam
budget -- no cache, counters or lock: the cluster's front owns the fleet's
one route cache.  :meth:`ShardWorker.from_projection` is the one way a shard
is built -- by the cluster's ``from_router``, by ``load_cluster`` for
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
    """One shard of the cluster: a projected router and, optionally, a
    careful one.

    The careful tier is the same model and sub-graph re-wrapped with a wider
    beam budget (``escalation_num_beams``).  The dispatcher routes every
    question through the fast tier first and re-asks the careful tier only
    when the merged answer's confidence is low, so the wide beams are paid
    for exactly where they matter.

    A shard holds no cache, counters or lock: every fleet request enters
    through the cluster's front, whose route cache answers repeats and whose
    group commit runs one dispatch at a time, so a shard only ever sees the
    front's distinct misses.  :attr:`routers` is the ``(fast, careful)``
    pair, replaced in one assignment by a rebalance, so a reader that takes
    it once never pairs a new fast tier with an old careful tier.
    """

    def __init__(self, shard_id: int, databases: tuple[str, ...], router: SchemaRouter,
                 escalation_num_beams: int | None = None) -> None:
        self.shard_id = shard_id
        self.databases = tuple(databases)
        self.escalation_num_beams = escalation_num_beams
        self.routers = (router, self._careful_router(router))

    def _careful_router(self, fast: SchemaRouter) -> SchemaRouter | None:
        """The fast router's graph, model and vocabularies under the
        escalation beam budget, as a router of its own (own constraint memos
        and tries); None without a careful tier."""
        if self.escalation_num_beams is None:
            return None
        careful = SchemaRouter(graph=fast.graph, config=fast.config.ablated(
            num_beams=self.escalation_num_beams, beam_groups=1))
        careful.restore(fast.model, fast.source_vocabulary,
                        fast.target_vocabulary, fast.training_losses)
        return careful

    @classmethod
    def from_projection(cls, shard_id: int, databases: tuple[str, ...],
                        master: SchemaRouter,
                        num_beams: int | None = None,
                        escalation_num_beams: int | None = None) -> "ShardWorker":
        """``master`` projected onto ``databases`` at the given beam budgets
        (``escalation_num_beams`` adds the careful tier)."""
        router = project_router(master, databases, num_beams=num_beams)
        return cls(shard_id, databases, router,
                   escalation_num_beams=escalation_num_beams)

    # -- request path --------------------------------------------------------
    @property
    def router(self) -> SchemaRouter:
        return self.routers[0]

    @property
    def careful_router(self) -> SchemaRouter | None:
        return self.routers[1]

    def route_batch(self, questions: list[str], max_candidates: int | None = None,
                    careful: bool = False, trace=None) -> list[list[SchemaRoute]]:
        """Decode one scatter wave, one answer per question.

        ``careful=True`` decodes through the escalation tier (wide beams)
        and raises ``ValueError`` on a worker built without one.  A
        caller-provided ``trace`` scope gets the encode/decode/parse spans,
        so they nest under the dispatcher's scatter span.
        """
        router = self.routers[careful]
        if router is None:
            raise ValueError(f"shard {self.shard_id} has no careful tier")
        return router.route_batch(list(questions), max_candidates, traces=(trace,))

    def send_route_batch(self, questions: list[str], max_candidates: int | None = None,
                         careful: bool = False, trace=None):
        """:meth:`route_batch`, answered inside the send; ``wait`` returns it."""
        routes = self.route_batch(questions, max_candidates, careful, trace=trace)
        return lambda: routes

    # -- rebalance hook ------------------------------------------------------
    def set_databases(self, databases: tuple[str, ...], master: SchemaRouter) -> None:
        """Re-project this shard onto a new database set (rebalancing): both
        tiers are rebuilt first and swapped in by one assignment."""
        router = project_router(master, databases,
                                num_beams=self.router.config.num_beams)
        self.databases = tuple(databases)
        self.routers = (router, self._careful_router(router))

    # -- introspection / lifecycle ------------------------------------------
    def health(self, policy=None):
        """A projected router has nothing to probe: the shard's verdict is
        its replica set's quarantine state."""
        from repro.obs.health import HealthReport

        report = HealthReport(component=f"shard-{self.shard_id}-worker")
        report.details["databases"] = len(self.databases)
        return report

    def stats(self) -> dict:
        """The shard's catalog slice, and the constraint automaton states
        both tiers have made so far (they stand still once grown)."""
        return {"shard_id": self.shard_id, "databases": list(self.databases),
                "constraint_states": sum(
                    router.constraint.constraint_states for router in self.routers
                    if router is not None and router.constraint is not None)}

    def close(self) -> None:
        """Nothing to release: a projected router holds no thread or file."""

    def __repr__(self) -> str:
        return f"ShardWorker(shard_id={self.shard_id}, databases={list(self.databases)})"
