"""Shard workers: one projected router per catalog partition.

A :class:`ShardWorker` is what one shard needs to serve its slice of the
catalog: a *projected* router (the trained model restricted to the shard's
sub-graph) and, under the escalation cascade, a careful twin -- no cache,
counters or lock: the cluster's front owns the fleet's one route cache.
Constructing a :class:`ShardWorker` is the one way a shard is built -- by the
cluster's ``from_router``, by ``load_cluster`` for an inproc fleet, and by
each subprocess worker from the master router it loads -- so a shard is the
same object whichever backend serves it.

Projection shares the master model and vocabularies (decoding stays
bit-identical for sequences inside the shard) while the graph constraint and
hypothesis parsing only admit the shard's databases.  Because every shard
scores with the same model, raw scores are directly comparable across shards
-- the property the dispatcher's merge relies on.  What each tier searches
is one rule of the master's search, the shard count and whether the fleet
has a careful tier, never configured: :func:`shard_search`.  A fleet of one
shard decodes the master's own search, so it answers as the merged monolith.
"""

from __future__ import annotations

from repro.core.graph import SchemaGraph
from repro.core.router import RouterConfig, SchemaRoute, SchemaRouter


def shard_search(master: RouterConfig, num_shards: int,
                 careful_tier: bool) -> tuple[RouterConfig, RouterConfig | None]:
    """The ``(fast, careful)`` searches of every shard of a ``num_shards``
    fleet cut from a router searching with ``master``; ``careful`` is None
    for a fleet without the cascade.

    One shard is the master itself: its single pass, or its careful tier,
    decodes the master's own (diverse) search.  Over more shards a shard
    decodes plain beams in one group -- diversity spreads a monolithic beam
    across databases, which the partition already did -- and only has to
    surface its own best candidates, the cross-shard merge recovering the
    global top-k: ``max(1, num_beams // num_shards)`` beams without the
    cascade, ``max(2, num_beams // num_shards)`` in the careful tier.  The
    cascade's fast tier decodes one beam at every shard count.
    """
    def plain(num_beams: int) -> RouterConfig:
        return master.ablated(num_beams=num_beams, beam_groups=1)

    share = master.num_beams // num_shards
    if careful_tier:
        return plain(1), master if num_shards == 1 else plain(max(2, share))
    return master if num_shards == 1 else plain(max(1, share)), None


def _restored(source: SchemaRouter, graph: SchemaGraph,
              config: RouterConfig) -> SchemaRouter:
    """``source``'s model and vocabularies under ``graph`` and ``config``, as
    a router of its own (own constraint memos and tries)."""
    router = SchemaRouter(graph=graph, config=config)
    router.restore(source.model, source.source_vocabulary,
                   source.target_vocabulary, source.training_losses)
    return router


def project_router(master: SchemaRouter, database_names: tuple[str, ...] | list[str],
                   config: RouterConfig) -> SchemaRouter:
    """Restrict a trained ``master`` router to ``database_names``.

    The projected router shares the master's model and vocabularies (no
    training, no copying of weights) but decodes under the sub-catalog's graph
    constraint, so it can only ever emit schemata of its own shard.  An empty
    ``database_names`` yields a router that routes every question to ``[]``.
    It searches with ``config``.
    """
    if not master.is_trained:
        raise ValueError("cannot project an untrained router")
    wanted = set(database_names)
    unknown = wanted - set(master.graph.catalog.database_names)
    if unknown:
        raise ValueError(f"databases not in the master catalog: {sorted(unknown)}")
    sub_catalog = master.graph.catalog.subset(database_names)
    edges = [edge for edge in master.graph.joinable_edges() if edge[0] in wanted]
    return _restored(master, SchemaGraph.from_components(sub_catalog, edges), config)


class ShardWorker:
    """One shard of the cluster: a projected router and, optionally, a
    careful one.

    ``master`` projected onto ``databases`` at the searches
    :func:`shard_search` gives one shard of ``num_shards`` (``careful_tier``
    adds the careful router, the fast one's model and sub-graph re-wrapped
    with the wider search).  The dispatcher routes every question through the
    fast tier first and re-asks the careful tier only when the merged
    answer's confidence is low, so the wide beams are paid for exactly where
    they matter.

    A shard holds no cache, counters or lock: every fleet request enters
    through the cluster's front, whose route cache answers repeats and whose
    group commit runs one dispatch at a time, so a shard only ever sees the
    front's distinct misses.  :attr:`routers` is the ``(fast, careful)``
    pair, replaced in one assignment by a rebalance, so a reader that takes
    it once never pairs a new fast tier with an old careful tier.
    """

    def __init__(self, shard_id: int, databases: tuple[str, ...], master: SchemaRouter,
                 num_shards: int = 1, careful_tier: bool = False) -> None:
        self.shard_id = shard_id
        #: The rule's inputs besides the master: every projection, at boot
        #: and on a rebalance, derives both tiers' searches from them.
        self.num_shards = num_shards
        self.careful_tier = careful_tier
        self.set_databases(databases, master)

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
        """Project ``master`` onto ``databases`` (at boot, and on a
        rebalance): both tiers are built first and swapped in by one
        assignment."""
        fast, careful = shard_search(master.config, self.num_shards, self.careful_tier)
        router = project_router(master, databases, fast)
        self.databases = tuple(databases)
        self.routers = (router, None if careful is None
                        else _restored(router, router.graph, careful))

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
