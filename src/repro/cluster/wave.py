"""Cluster-native dense wave decode: one kernel stream for the whole fleet.

An inproc fleet's shards share one interpreter and decode the master's one
model object, so instead of K separate decode loops per wave,
:class:`ClusterWaveEngine` stacks every shard's beams into *one* decode: each
(shard, pending-question) pair becomes a virtual question of a single
:func:`repro.core.router.decode_wave` call over
``DecodeKernel(master model)``, tagged with its shard index so each row ranks
exactly the token ids its own shard's constraint allows, as in a shard's own
``RoutingService``.  The kernel is the one exact kernel, so a question gets
the same doubles in every wave, and from a shard's own decode.

Around the stacked decode each shard's service runs its one request path,
:meth:`~repro.serving.service.RoutingService.consult` then
:meth:`~repro.serving.service.RoutingService.commit` -- the cache, counters
and within-wave dedup of ``submit_many`` itself, so a cache warmed by either
is hit by the other.  A wave holds the route lock of every shard of its tier
from cache probe to cache put: concurrent callers take turns, and a rebalance
swaps routers between waves, never under one.

Every inproc fleet decodes this way, however it was booted: projection
(``from_router``, ``load_cluster``, a rebalance) shares the master model and
vocabularies by reference and gives every shard one beam budget, and a fleet
that cannot stack fails at construction.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence

from repro.core.router import SchemaRoute, SchemaRouter, decode_wave
from repro.nn.seq2seq import DecodeKernel
from repro.nn.tokenizer import WordTokenizer
from repro.obs import maybe_span

#: Decode knobs that must agree across every shard of a wave: the stacked
#: grid has one (groups, slots) shape and one step budget for all rows.
_UNIFORM_FIELDS = ("num_beams", "beam_groups", "diverse_beam",
                   "diversity_penalty", "max_source_length",
                   "max_decode_length", "constrained_decoding",
                   "decode_backend")

#: The engine counters a wave reports per shard (``stats["per_tag"]``).
_DECODE_COUNTERS = ("steps", "beam_rows", "live_beams", "ranked_tokens",
                    "questions_compacted")


class _WaveTier:
    """One decode tier (fast or careful) of every shard, stacked.

    Holds the per-shard serving objects (for caches and counters), the
    routers (for constraints and parsing), and the :class:`DecodeKernel` over
    their one model that decodes all of them at once.  Built against a
    snapshot of each service's current router; the engine rebuilds a tier
    whenever a rebalance swapped a router out from under it.
    """

    def __init__(self, services: Sequence, routers: Sequence[SchemaRouter]) -> None:
        self.services = list(services)
        self.routers = list(routers)
        base = self.routers[0]
        for router in self.routers[1:]:
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
        self.kernel = DecodeKernel(base.model)
        self.max_source_length = base.config.max_source_length
        self.pad_id = base.source_vocabulary.pad_id
        self.source_tokenizer = WordTokenizer(base.source_vocabulary)


class ClusterWaveEngine:
    """Decodes whole scatter waves through one stacked kernel stream."""

    def __init__(self, replica_sets: Sequence) -> None:
        if not replica_sets:
            raise ValueError("a wave engine needs at least one shard")
        if any(replica_set.num_replicas != 1 for replica_set in replica_sets):
            raise ValueError("an inproc shard is one worker: replicas are a "
                             "subprocess-fleet knob")
        #: A wave settles each set's success / failure counters like one
        #: ``ReplicaSet.route_batch`` call per shard would.
        self.replica_sets = list(replica_sets)
        self.workers = [replica_set.workers[0] for replica_set in self.replica_sets]
        self.has_careful_tier = all(worker.careful_service is not None
                                    for worker in self.workers)
        self._tiers: dict[bool, _WaveTier] = {}
        self._stats_lock = threading.Lock()
        self._waves = 0
        self._careful_waves = 0
        self._questions = 0
        self._shard_counters = [
            {"shard_id": worker.shard_id, **dict.fromkeys(_DECODE_COUNTERS, 0)}
            for worker in self.workers
        ]
        # Build tiers eagerly so a fleet that cannot stack (another model,
        # mismatched beam budgets) fails at construction time.
        for careful in (False, True) if self.has_careful_tier else (False,):
            with self._locked_tier(careful):
                pass

    @contextmanager
    def _locked_tier(self, careful: bool) -> Iterator[_WaveTier]:
        """The requested tier, with every shard's route lock held.

        Locks are taken in shard order (a shard's own ``submit_many`` and
        ``replace_router`` only ever hold one), so waves serialise per tier,
        and the tier -- rebuilt here if a rebalance swapped any router --
        cannot go stale before the block ends.
        """
        services = [(worker.careful_service if careful else worker.service)
                    for worker in self.workers]
        with ExitStack() as stack:
            routers = [stack.enter_context(service.exclusive_router())
                       for service in services]
            tier = self._tiers.get(careful)
            if tier is None or any(cached is not router for cached, router
                                   in zip(tier.routers, routers)):
                tier = self._tiers[careful] = _WaveTier(services, routers)
            yield tier

    # -- request path --------------------------------------------------------
    def route_wave(self, questions: Sequence[str],
                   max_candidates: int | None = None, careful: bool = False,
                   trace=None) -> list[list[list[SchemaRoute]]]:
        """Route one wave across every shard; returns ``[shard][question]``.

        ``careful=True`` decodes through the escalation tier and raises
        ``ValueError`` on a fleet without one, like
        :meth:`ShardWorker.route_batch`.  Each shard's service consults and
        commits the wave exactly as its own ``submit_many`` would.
        """
        if careful and not self.has_careful_tier:
            raise ValueError("the fleet has no careful tier")
        questions = list(questions)
        stats: dict = {}
        started = time.monotonic()  # lock wait counts, as in submit_many
        with self._locked_tier(careful) as tier:
            consulted = [service.consult(questions, max_candidates)
                         for service in tier.services]
            with maybe_span(trace, "wave_decode", shards=len(self.workers),
                            questions=len(questions), careful=careful) as span:
                try:
                    answers = self._decode_pending(
                        tier, questions, [pending for _, pending, _ in consulted],
                        [service.variant(max_candidates) for service in tier.services],
                        stats, trace.scoped(span) if span is not None else None)
                except BaseException:
                    for service, verdict in zip(tier.services, consulted):
                        service.count_failed(verdict)
                    self._note_replicas(ok=False)
                    raise
            for service, verdict, shard_answers in zip(tier.services, consulted, answers):
                service.commit(questions, verdict, shard_answers, max_candidates, started)
        self._note_replicas(ok=True)
        self._note_wave(stats, len(questions), careful)
        return [results for results, _, _ in consulted]

    def _decode_pending(self, tier: _WaveTier, questions: list[str],
                        pending_per_shard: list[list[int]],
                        variants: list[int | None], stats: dict,
                        trace) -> list[list[list[SchemaRoute]]]:
        """Every shard's answers for its pending indices, decoded stacked."""
        needed = sorted({index for pending in pending_per_shard
                         for index in pending})
        if not needed:
            return [[] for _ in pending_per_shard]
        # Encode each missing question once for the whole fleet: every shard
        # decodes the one model, so shard 0's encoding is every shard's.
        with maybe_span(trace, "encode", questions=len(needed)):
            encoded_of = dict(zip(needed, tier.routers[0].model.encode_numpy_batch(
                [tier.source_tokenizer.encode_text(
                    questions[index], max_length=tier.max_source_length)
                 for index in needed],
                pad_id=tier.pad_id)))
        # Stack (shard, question) pairs shard-major as virtual questions.
        tags = [shard for shard, pending in enumerate(pending_per_shard)
                for _ in pending]
        encoded = [encoded_of[index] for pending in pending_per_shard
                   for index in pending]
        hypotheses_batch = decode_wave(
            tier.kernel, tier.routers, tags, encoded,
            traces=() if trace is None else (trace,), stats=stats)
        for row, tag in enumerate(tags):
            if not hypotheses_batch[row]:
                hypotheses_batch[row] = tier.routers[tag].decode_fallback(encoded[row])
        # Each shard parses against its own sub-catalog graph.
        with maybe_span(trace, "parse"):
            rows = iter(hypotheses_batch)
            return [[tier.routers[shard].combine_hypotheses(
                        next(rows), max_candidates=variants[shard])
                     for _ in pending]
                    for shard, pending in enumerate(pending_per_shard)]

    # -- introspection -------------------------------------------------------
    def _note_replicas(self, ok: bool) -> None:
        for replica_set in self.replica_sets:
            replica_set.note_attempt(ok)

    def _note_wave(self, stats: dict, num_questions: int, careful: bool) -> None:
        per_tag = stats.get("per_tag", {})
        with self._stats_lock:
            self._waves += 1
            if careful:
                self._careful_waves += 1
            self._questions += num_questions
            for tag, counters in per_tag.items():
                entry = self._shard_counters[tag]
                for key in _DECODE_COUNTERS:
                    entry[key] += counters.get(key, 0)

    def stats(self) -> dict:
        """Decode-volume rollup: per-shard steps, kernel rows (``beam_rows``),
        the live beams they served, the candidate tokens selection ranked
        (``ranked_tokens``), compactions."""
        with self._stats_lock:
            shards = [dict(entry) for entry in self._shard_counters]
            return {
                "waves": self._waves,
                "careful_waves": self._careful_waves,
                "questions": self._questions,
                **{key: sum(entry[key] for entry in shards)
                   for key in _DECODE_COUNTERS},
                "shards": shards,
            }
