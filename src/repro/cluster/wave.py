"""Cluster-native dense wave decode: one kernel stream for the whole fleet.

An inproc fleet's shards share one interpreter and decode the master's one
model object, so instead of K separate decode loops per wave,
:class:`ClusterWaveEngine` stacks every shard's beams into *one* decode: each
(shard, question) pair becomes a virtual question of a single
:func:`repro.core.router.decode_wave` call over
``DecodeKernel(master model)``, tagged with its shard index so each row ranks
exactly the token ids its own shard's constraint allows, as in a shard's own
``route_batch``.  The kernel is the one exact kernel, so a question gets the
same doubles in every wave, and from a shard's own decode.

A wave holds no cache and takes no lock: the cluster's front answers
repeats from its route cache and runs one dispatch at a time, so every
question of a wave decodes on every shard.  The wave reads each shard's
routers once, at its start, so a rebalance that swaps them lands between
waves for this engine, never inside one.

Every inproc fleet decodes this way, however it was booted: projection
(``from_router``, ``load_cluster``, a rebalance) shares the master model and
vocabularies by reference and gives every shard one beam budget, and a fleet
that cannot stack fails at construction.
"""

from __future__ import annotations

import threading
from typing import Sequence

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

    Holds the routers (for constraints and parsing) and the
    :class:`DecodeKernel` over their one model that decodes all of them at
    once.  Built against a snapshot of each shard's routers; the engine
    rebuilds a tier whenever a rebalance swapped a router out from under it.
    """

    def __init__(self, routers: Sequence[SchemaRouter]) -> None:
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
        self.has_careful_tier = all(worker.careful_router is not None
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
            self._tier(careful)

    def _tier(self, careful: bool) -> _WaveTier:
        """The requested tier over every shard's current routers, rebuilt
        here if a rebalance swapped any of them."""
        routers = [worker.routers[careful] for worker in self.workers]
        tier = self._tiers.get(careful)
        if tier is None or any(cached is not router for cached, router
                               in zip(tier.routers, routers)):
            tier = self._tiers[careful] = _WaveTier(routers)
        return tier

    # -- request path --------------------------------------------------------
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
        questions = list(questions)
        stats: dict = {}
        tier = self._tier(careful)
        with maybe_span(trace, "wave_decode", shards=len(self.workers),
                        questions=len(questions), careful=careful) as span:
            try:
                answers = self._decode(tier, questions, max_candidates, stats,
                                       trace.scoped(span) if span is not None else None)
            except BaseException:
                self._note_replicas(ok=False)
                raise
        self._note_replicas(ok=True)
        self._note_wave(stats, len(questions), careful)
        return answers

    def _decode(self, tier: _WaveTier, questions: list[str],
                max_candidates: int | None, stats: dict,
                trace) -> list[list[list[SchemaRoute]]]:
        """Every shard's answers to every question, decoded stacked."""
        if not questions:
            return [[] for _ in tier.routers]
        # Encode each question once for the whole fleet: every shard decodes
        # the one model, so shard 0's encoding is every shard's.
        with maybe_span(trace, "encode", questions=len(questions)):
            encoded = tier.routers[0].model.encode_numpy_batch(
                [tier.source_tokenizer.encode_text(
                    question, max_length=tier.max_source_length)
                 for question in questions],
                pad_id=tier.pad_id)
        # Stack (shard, question) pairs shard-major as virtual questions.
        shards = range(len(tier.routers))
        tags = [shard for shard in shards for _ in questions]
        stacked = [encoding for _ in shards for encoding in encoded]
        hypotheses_batch = decode_wave(
            tier.kernel, tier.routers, tags, stacked,
            traces=() if trace is None else (trace,), stats=stats)
        for row, tag in enumerate(tags):
            if not hypotheses_batch[row]:
                hypotheses_batch[row] = tier.routers[tag].decode_fallback(stacked[row])
        # Each shard parses against its own sub-catalog graph.
        with maybe_span(trace, "parse"):
            rows = iter(hypotheses_batch)
            return [[tier.routers[shard].combine_hypotheses(
                        next(rows), max_candidates=max_candidates)
                     for _ in questions]
                    for shard in shards]

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
