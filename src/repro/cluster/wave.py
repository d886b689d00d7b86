"""Cluster-native dense wave decode: one kernel stream for the whole fleet.

An inproc fleet's shards share one interpreter and decode the master's one
model object, so :class:`ClusterWaveEngine` routes every shard's rows through
*one* :func:`repro.core.router.route_wave` call -- the path a monolith's
``route_batch`` takes as a wave of one router.  Each (shard, question) row
ranks exactly the ids its own shard's constraint allows and parses against
its own shard's graph.  The kernel is the one exact kernel, so a question
gets the same doubles in every wave, and from a shard's own decode.

A wave holds no cache and takes no lock: the cluster's front answers
repeats from its route cache and runs one dispatch at a time, so every
question of a wave decodes on every shard.  The wave reads each shard's
routers once, at its start, and checks that they stack, so a rebalance that
swaps them lands between waves for this engine, never inside one.

Every inproc fleet decodes this way, however it was booted: projection
(``from_router``, ``load_cluster``, a rebalance) shares the master model and
vocabularies by reference and gives every shard one search; a fleet that
cannot stack fails at construction, or fails its next wave after a swap --
a failure every replica set counts.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.router import SchemaRoute, SchemaRouter, route_wave
from repro.obs import maybe_span

#: Decode knobs that must agree across every shard of a wave: the stacked
#: grid has one (groups, slots) shape, one step budget and one decode
#: backend for all rows.
_UNIFORM_FIELDS = ("num_beams", "beam_groups", "diverse_beam",
                   "diversity_penalty", "max_source_length",
                   "max_decode_length", "constrained_decoding",
                   "decode_backend")


def _check_stackable(routers: Sequence[SchemaRouter]) -> None:
    """Raise ``ValueError`` unless ``routers`` can decode as one wave: one
    decode config, one model object, one pair of vocabulary objects."""
    base = routers[0]
    for router in routers[1:]:
        for field in _UNIFORM_FIELDS:
            if getattr(router.config, field) != getattr(base.config, field):
                raise ValueError(
                    f"wave decode requires uniform shard decode configs: "
                    f"{field} differs ({getattr(router.config, field)!r} "
                    f"vs {getattr(base.config, field)!r})")
        if router.model is not base.model:
            raise ValueError("wave decode requires every shard to decode "
                             "one model object")
        if router.source_vocabulary is not base.source_vocabulary \
                or router.target_vocabulary is not base.target_vocabulary:
            raise ValueError("wave decode requires every shard to share "
                             "one pair of vocabulary objects")


class ClusterWaveEngine:
    """Decodes whole scatter waves through one stacked kernel stream."""

    def __init__(self, replica_sets: Sequence) -> None:
        if not replica_sets:
            raise ValueError("a wave engine needs at least one shard")
        if any(replica_set.num_replicas != 1 for replica_set in replica_sets):
            raise ValueError("an inproc shard is one worker: replicas are a "
                             "subprocess-fleet knob")
        #: A wave settles each set's success / failure counters.
        self.replica_sets = list(replica_sets)
        self.workers = [replica_set.workers[0] for replica_set in self.replica_sets]
        self.has_careful_tier = all(worker.careful_router is not None
                                    for worker in self.workers)
        # A fleet that cannot stack (another model, mismatched beam budgets)
        # fails at construction time.
        for careful in (False, True) if self.has_careful_tier else (False,):
            self._routers(careful)

    def _routers(self, careful: bool) -> list[SchemaRouter]:
        """The requested tier of every shard's current routers, checked."""
        routers = [worker.routers[careful] for worker in self.workers]
        _check_stackable(routers)
        return routers

    def route_wave(self, questions: Sequence[str],
                   max_candidates: int | None = None, careful: bool = False,
                   trace=None) -> list[list[list[SchemaRoute]]]:
        """Route one wave across every shard; returns ``[shard][question]``.

        ``careful=True`` decodes through the escalation tier and raises
        ``ValueError`` on a fleet without one, like
        :meth:`ShardWorker.route_batch`.
        """
        if careful and not self.has_careful_tier:
            raise ValueError("the fleet has no careful tier")
        with maybe_span(trace, "wave_decode", shards=len(self.workers),
                        questions=len(questions), careful=careful) as span:
            try:
                # A shard swapped onto routers that cannot stack fails the
                # wave like a failed decode: every replica set counts it.
                answers = route_wave(
                    self._routers(careful), questions, max_candidates,
                    traces=None if span is None else [trace.scoped(span)])
            except BaseException:
                self._note_replicas(ok=False)
                raise
        self._note_replicas(ok=True)
        return answers

    def _note_replicas(self, ok: bool) -> None:
        for replica_set in self.replica_sets:
            replica_set.note_attempt(ok)
