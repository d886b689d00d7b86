"""Decoding: diverse beam search, and greedy decoding as its one-beam case.

Every strategy accepts an optional *constraint*: an automaton over emitted
tokens (:class:`Constraint` -- ``initial_state()`` / ``advance(state,
token)`` / ``allowed_ids_for_state(state)``).  Each beam carries one state,
advanced once per token it emits, and may emit only its state's allowed ids.
The DBCopilot router plugs its graph-based prefix-trie constraint in here
(paper §3.5, :class:`repro.core.constrained.GraphConstrainedDecoding`);
passing ``None`` decodes unconstrained.

Diverse beam search follows Vijayakumar et al. (2016), the algorithm the paper
uses to obtain varied candidate schemata: beams are split into groups, groups
are expanded sequentially at each step, and a token already chosen by an
earlier group at the same step is penalised for later groups.

It is implemented twice, an oracle and an engine:

* :func:`diverse_beam_search_loop` -- the per-beam Python loop, one kernel
  call per beam, every token outside the beam's allowed ids set to ``-inf``
  over the whole vocabulary (``RouterConfig.decode_backend="loop"``).
  Nothing is clever in it, which is what makes it the reference the
  differential tests compare against.
* :func:`diverse_beam_search_batch` -- the one production engine: every
  distinct live ``(question, prefix)`` of a micro-batch -- or of a cluster
  wave's (shard, question) pairs: a monolith is a wave with one shard --
  advances once, through one kernel call per step.  A row is a state, a
  previous token, its question's operands and its short candidate list: the
  handful of token ids the constraint allows, which is all selection ever
  gathers from the kernel's output or ranks.  The ``(question, group, slot)``
  beam grid is bookkeeping: beams that share a prefix share a row, finished
  beams and empty slots own none.  The constraint rides along as one state
  per row, so resolving a row's constraint never touches the vocabulary
  axis.

The engine's numerics are those of the
:class:`~repro.nn.seq2seq.DecodeKernel` it steps through, the one row-stable
kernel: the search is *bit-identical* to the oracle -- token-for-token the
same sequences with double-for-double the same scores, whatever else shares
the grid.  It multiplies in fixed tiles
(:func:`~repro.nn.seq2seq.row_stable_matmul`), and the oracle, stepping the
same kernel one row at a time, shares the primitive.  On the search side both
break score ties identically -- stable, lowest-token-id-first (the oracle's
``np.argsort(-scores, kind="stable")``; the engine's stable descending sort
over token-ascending candidates), never the platform-dependent order an
unstable descending sort would give -- so candidate selection, and therefore
every downstream ranking and cross-process merge, is deterministic.

A one-beam search (greedy decoding: the cascade's fast tier on every shard,
the neural questioner) keeps one candidate per row, so the engine picks it
with array ops: ``np.maximum.reduceat`` over the step's flat gather gives
each row's best value, the first gathered entry equal to it the token --
lowest id on ties, the oracle's order -- and a per-row Python loop only adds
the score and registers the child row.  Multi-beam selection stays per
``(question, group, beam)`` in Python: array-op selection over every
question's candidates (one stable ``np.lexsort`` per step) is bit-identical
but slower at the shard and monolith grids this repository serves.

"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from operator import itemgetter
from typing import Any, Protocol, Sequence

import numpy as np

from repro.nn.seq2seq import DecodeKernel, EncodedSource, Seq2SeqModel


class Constraint(Protocol):
    """The one constraint protocol: an automaton over emitted tokens.

    ``allowed_ids_for_state`` answers the ids a beam in ``state`` may emit
    next, ascending -- shared, so callers must not mutate them; empty closes
    the beam, and ``None`` leaves it unconstrained."""

    def initial_state(self) -> Any: ...

    def advance(self, state: Any, token: int) -> Any: ...

    def allowed_ids_for_state(self, state: Any) -> Sequence[int] | None: ...


#: Candidate tuples rank by their first field (the accumulated score); the
#: C-implemented getter keeps the hot selection sorts free of Python frames.
_candidate_score = itemgetter(0)


@dataclass
class BeamHypothesis:
    """A finished (or in-progress) decoded sequence."""

    tokens: list[int]
    score: float
    finished: bool = False

    def normalized_score(self, length_penalty: float = 0.0) -> float:
        """Length-normalised score; ``length_penalty=0`` returns the raw sum."""
        if length_penalty <= 0.0:
            return self.score
        length = max(len(self.tokens), 1)
        return self.score / (length ** length_penalty)


@dataclass
class _Beam:
    tokens: list[int] = field(default_factory=list)
    score: float = 0.0
    state: np.ndarray | None = None
    finished: bool = False
    #: The constraint state of ``tokens`` (None when decoding unconstrained).
    constraint: Any = None


def _restricted(log_probabilities: np.ndarray,
                allowed: Sequence[int] | None) -> np.ndarray:
    """``log_probabilities`` with every token outside ``allowed`` at ``-inf``
    (``allowed is None``: unconstrained, returned as is)."""
    if allowed is None:
        return log_probabilities
    index = list(allowed)
    restricted = np.full_like(log_probabilities, -np.inf)
    restricted[index] = log_probabilities[index]
    return restricted


def _ranked(values: Sequence[float], tokens: Sequence[int],
            keys: Sequence[float], top_n: int) -> list[tuple[float, float, int]]:
    """A row's ``top_n`` best ``(key, value, token)`` by descending ``keys``.

    ``tokens`` ascend and the sort is stable, so equal keys resolve
    lowest-token-id-first: the loop oracle's ``np.argsort(-keys,
    kind="stable")`` order.  ``-inf`` values (closed columns; they sort last
    under any finite penalty) are dropped."""
    ranking = sorted(zip(keys, values, tokens), key=_candidate_score,
                     reverse=True)[:top_n]
    while ranking and ranking[-1][1] == -math.inf:
        ranking.pop()
    return ranking


def _finalize_groups(groups: "Sequence[Sequence[tuple[float, list[int], bool]]]",
                     eos_id: int, length_penalty: float,
                     num_beams: int) -> list[BeamHypothesis]:
    """Strip EOS, rank, and deduplicate the surviving ``(score, tokens,
    finished)`` beams of one question."""
    finished: list[BeamHypothesis] = []
    for group in groups:
        for score, tokens, done in group:
            if tokens and tokens[-1] == eos_id:
                tokens = tokens[:-1]
            finished.append(BeamHypothesis(tokens=tokens, score=score,
                                           finished=done))
    finished.sort(key=lambda hypothesis: hypothesis.normalized_score(length_penalty),
                  reverse=True)
    # Deduplicate identical token sequences, keeping the best-scored copy.
    unique: list[BeamHypothesis] = []
    seen: set[tuple[int, ...]] = set()
    for hypothesis in finished:
        key = tuple(hypothesis.tokens)
        if key in seen:
            continue
        seen.add(key)
        unique.append(hypothesis)
    return unique[:num_beams]


def _first_maxima(gathered: np.ndarray, row_tokens: Sequence[Sequence[int]],
                  widths: Sequence[int]) -> list:
    """Each row's best ``(value, token)`` from one flat gather of every row's
    candidates (``row_tokens``, ascending, ``widths`` their lengths), or
    ``None`` where the row has no finite candidate.

    ``np.maximum.reduceat`` over the row segments gives the maxima, and the
    first gathered entry equal to a row's maximum its token: the lowest id on
    ties, the loop oracle's stable-argsort order."""
    best: list = [None] * len(widths)
    offsets = list(accumulate(widths, initial=0))
    # Empty rows leave: ``reduceat`` misreads an empty segment.
    rows = [row for row, width in enumerate(widths) if width]
    starts = [offsets[row] for row in rows]
    values = gathered.tolist()
    for row, start, maximum in zip(rows, starts, np.maximum.reduceat(
            gathered, starts).tolist()):
        if maximum != -math.inf:
            index = values.index(maximum, start)
            best[row] = (values[index], row_tokens[row][index - start])
    return best


def _validate_beam_budget(num_beams: int, num_groups: int) -> int:
    if num_beams <= 0:
        raise ValueError("num_beams must be positive")
    if num_groups <= 0 or num_beams % num_groups != 0:
        raise ValueError("num_beams must be a positive multiple of num_groups")
    return num_beams // num_groups


def _note_counters(stats: dict | None, **counts: int) -> None:
    """Accumulate observability counters into a caller-provided dict.

    Pure bookkeeping on plain ints, written once per engine call after the
    search completes -- it cannot perturb the decode numerics."""
    if stats is None:
        return
    for key, value in counts.items():
        stats[key] = stats.get(key, 0) + value


def diverse_beam_search_loop(model: Seq2SeqModel, source_ids: Sequence[int],
                             bos_id: int, eos_id: int,
                             num_beams: int = 10, num_groups: int = 10,
                             diversity_penalty: float = 2.0, max_length: int = 48,
                             constraint: Constraint | None = None,
                             length_penalty: float = 0.0,
                             encoded: EncodedSource | None = None,
                             stats: dict | None = None) -> list[BeamHypothesis]:
    """Per-beam diverse beam search: the reference (``loop``) decode backend.

    Semantically and bit-for-bit identical to running the question through
    :func:`diverse_beam_search_batch`, but advances one beam per kernel call
    in plain Python -- the shape the differential tests compare the batched
    engine against.  Each beam carries its constraint state, advanced when
    the beam is selected.  ``stats``, when given, accumulates ``steps``
    (decode steps with at least one active beam) and ``beam_rows`` (kernel
    calls).
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)

    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    root = None if constraint is None else constraint.initial_state()
    groups: list[list[_Beam]] = [
        [_Beam(state=encoded.state.copy(), constraint=root)] for _ in range(num_groups)
    ]

    steps = 0
    beam_rows = 0
    for _ in range(max_length):
        tokens_chosen_this_step: dict[int, int] = {}
        any_active = False
        for group_index, group in enumerate(groups):
            candidates: list[_Beam] = []
            for beam in group:
                if beam.finished:
                    candidates.append(beam)
                    continue
                any_active = True
                beam_rows += 1
                previous = beam.tokens[-1] if beam.tokens else bos_id
                log_probabilities, new_state = model.decode_step_numpy(
                    encoded, beam.state, previous)
                if constraint is not None:
                    log_probabilities = _restricted(
                        log_probabilities,
                        constraint.allowed_ids_for_state(beam.constraint))
                # Hamming diversity: penalise tokens already emitted by earlier
                # groups at this time step.
                if diversity_penalty > 0.0 and tokens_chosen_this_step:
                    penalised = log_probabilities.copy()
                    for token, count in tokens_chosen_this_step.items():
                        penalised[token] -= diversity_penalty * count
                    scored = penalised
                else:
                    scored = log_probabilities
                # Stable descending sort: ties resolve lowest-token-id-first,
                # identically to the batched engine.
                top = np.argsort(-scored, kind="stable")[: max(beams_per_group * 2, 2)]
                for token in top:
                    token = int(token)
                    if not np.isfinite(log_probabilities[token]):
                        continue
                    candidate = _Beam(
                        tokens=beam.tokens + [token],
                        # Score with the *unpenalised* log-probability: the
                        # penalty only shapes the search, not the ranking.
                        score=beam.score + float(log_probabilities[token]),
                        state=new_state,
                        finished=(token == eos_id),
                        constraint=beam.constraint,
                    )
                    candidates.append(candidate)
            if not candidates:
                continue
            candidates.sort(key=lambda beam: beam.score, reverse=True)
            selected: list[_Beam] = []
            for candidate in candidates:
                if len(selected) >= beams_per_group:
                    break
                selected.append(candidate)
                if not candidate.finished and candidate.tokens:
                    token = candidate.tokens[-1]
                    tokens_chosen_this_step[token] = tokens_chosen_this_step.get(token, 0) + 1
                    if constraint is not None:
                        candidate.constraint = constraint.advance(
                            candidate.constraint, token)
            groups[group_index] = selected
        if not any_active:
            break
        steps += 1

    _note_counters(stats, steps=steps, beam_rows=beam_rows)
    return _finalize_groups(
        [[(beam.score, beam.tokens, beam.finished) for beam in group]
         for group in groups], eos_id, length_penalty, num_beams)


def diverse_beam_search_batch(model: "DecodeKernel | Seq2SeqModel",
                              encoded_batch: "list[EncodedSource]",
                              bos_id: int, eos_id: int,
                              num_beams: int = 10, num_groups: int = 10,
                              diversity_penalty: float = 2.0, max_length: int = 48,
                              constraint: "Constraint | Sequence[Constraint | None] | None" = None,
                              length_penalty: float = 0.0,
                              stats: dict | None = None
                              ) -> list[list[BeamHypothesis]]:
    """Diverse beam search over a whole micro-batch of questions at once.

    The one batched engine: every distinct live ``(question, token prefix)``
    advances once per decode step, as one row of one :meth:`DecodeKernel.step
    <repro.nn.seq2seq.DecodeKernel.step>` call.  ``model`` is that kernel or
    a bare :class:`~repro.nn.seq2seq.Seq2SeqModel`, decoded through its
    kernel.

    * A row is a decoder state, a previous token, its question's encoder
      operands and its short candidate list: ``tokens``, the ids the
      constraint allows after the row's prefix, ascending, and ``values``,
      their log-probabilities -- read from the kernel's ``(R, V)`` output by
      one gather per step over every row's ids; nothing after it is ``V``
      wide.  The ``(question, group, slot)`` grid is bookkeeping: a slot
      names the row its beam reads.  Selection registers a continued beam's
      next row under ``(parent row, token)``, so equal prefixes -- which a
      confident model hands most groups, diversity penalty or not -- cost one
      row; beams ending on EOS, finished beams passing through and slots
      never filled cost none.  A row's doubles depend only on its own inputs
      (the kernel's contract), so sharing changes no result.
    * Group-sequential Hamming diversity is preserved exactly: a question's
      groups *select* in order within a step, against its ``{token: count}``
      tally of what earlier groups chose.  A beam whose row holds no tallied
      token (or one candidate) reads the row's ranking, computed once and
      shared by every beam on the row; otherwise it ranks ``value - penalty *
      count``, the oracle's own multiply-then-subtract.  Either is a stable
      descending sort over the token-ascending list: ties resolve
      lowest-token-id-first, ``-inf`` values are skipped, and candidates --
      per-beam Python scores and token lists -- keep the loop oracle's order.
    * A row nothing constrains takes as its ids the ``reach = top_n + (G - 1)
      * B`` best tokens of its kernel row (one stable ``np.argsort`` over the
      step's unconstrained rows), re-sorted ascending.  **Lemma:** no token
      outside a row's unpenalised top ``reach`` enters any group's penalised
      ``top_n``.  *Proof:* ``reach`` tokens precede it in the stable
      unpenalised order and earlier groups chose at most ``(G - 1) * B``
      distinct tokens, so ``top_n`` of those keep their keys while its own
      can only fall: they still precede it, ties included.
    * At one beam a row's one candidate is its first maximum
      (:func:`_first_maxima`, array ops over the step's gather).
    * Once every group of a question has finished, its beams are final and
      are banked; it owns no row any more, so the tail of a decode (a few
      stragglers of a large batch) pays kernel flops for the stragglers only.

    The constraint is threaded through the search: each row carries a
    constraint state, advanced (and its ids read) once, when the row is
    registered.  Every question starts from its constraint's
    ``initial_state()``; one persistent root there
    (:class:`repro.core.constrained.GraphConstrainedDecoding`) shares the
    automaton across questions, shards' questions and calls.  A state whose
    ids are ``None`` is ranked like an unconstrained row.

    Returns one hypothesis list per question, bit-identical to
    :func:`diverse_beam_search_loop` on the same inputs.  ``stats``, when
    given, accumulates ``steps`` (kernel calls), ``beam_rows`` (rows the
    kernel advanced: distinct live prefixes),
    ``live_beams`` (live beams those rows served -- the loop oracle's
    ``beam_rows``; ``beam_rows / live_beams`` is the sharing ratio),
    ``ranked_tokens`` (candidate tokens gathered; per row, against ``V``, what
    the constraint spares selection) and ``questions_compacted``.

    The wave form: ``constraint`` may be a *sequence* with exactly one entry
    per question (each ``None`` or a constraint) -- a cluster wave gives each
    (shard, question) its own shard's constraint.  Every shard decodes the
    one model, so the kernel never sees a shard; rows never span questions,
    hence never shards, and each row ranks only what its own constraint
    allows.
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)
    kernel = model if isinstance(model, DecodeKernel) else DecodeKernel(model)
    num_questions = len(encoded_batch)
    if num_questions == 0:
        return []
    vocab_size = kernel.config.target_vocab_size
    input_table = kernel.input_table()
    resident = kernel.resident_memory(encoded_batch)
    # The kernel's rows, one per distinct live (question, prefix): decoder
    # state, previous token, owning question (by batch position, which is
    # what ``resident`` stays indexed by), its operands and, below,
    # constraint state and candidate ids.  A search starts with one row per
    # question, shared by all its groups.
    states = np.stack([encoded.state for encoded in encoded_batch])    # (R, h)
    previous = [bos_id] * num_questions                                # (R,)
    row_questions = gathered_for = list(range(num_questions))          # (R,)
    operands = resident

    # Constraint plumbing: one constraint per question (the wave path gives
    # each shard's own graph constraint).  Selection works off per-question
    # ``advance_fns`` / ``ids_fns`` (``None`` = unconstrained question), so
    # it is shard-agnostic.
    if isinstance(constraint, (list, tuple)):
        if len(constraint) != num_questions:
            raise ValueError(
                f"per-question constraints need exactly one entry per question "
                f"({len(constraint)} != {num_questions})")
        constraints = list(constraint)
    else:
        constraints = [constraint] * num_questions
    advance_fns = [None if entry is None else entry.advance for entry in constraints]
    ids_fns = [None if entry is None else entry.allowed_ids_for_state
               for entry in constraints]
    row_constraints = [None if entry is None else entry.initial_state()
                       for entry in constraints]
    # A row's candidate ids, ascending; ``None`` (nothing constrains the row)
    # until the step's kernel output ranks it.
    row_tokens: list = [None if ids_for_state is None else ids_for_state(state)
                        for ids_for_state, state in zip(ids_fns, row_constraints)]
    # A beam is ``(score, tokens, finished)``; a group holds its alive beams
    # in slot order (one at the start, up to ``beams_per_group`` after the
    # first selection).  ``slot_rows`` is the slot -> row index beside it:
    # the row a live beam reads its candidates from, -1 for a finished beam
    # or a slot never filled.
    beams: list[list[list[tuple]]] = [
        [[(0.0, [], False)] for _ in range(num_groups)]
        for _ in range(num_questions)]
    dead_slots = [-1] * beams_per_group
    slot_rows = [[[question] + dead_slots[1:] for _ in range(num_groups)]
                 for question in range(num_questions)]
    group_active = [[True] * num_groups for _ in range(num_questions)]

    # What one beam may propose (the oracle's slice of its argsort) and how
    # deep into an unconstrained row any group can reach (the lemma).
    top_n = max(beams_per_group * 2, 2)
    reach = top_n + (num_groups - 1) * beams_per_group
    tallying = diversity_penalty > 0.0 and num_groups > 1
    # Finished questions are banked here, by original batch position.
    banked: list = [None] * num_questions
    question_ids = list(range(num_questions))
    compacted: list[int] = []
    #: Live beams served, per question: the loop oracle's kernel calls.
    served = [0] * num_questions

    steps = beam_rows = ranked_tokens = 0
    for _ in range(max_length):
        live = [any(flags) for flags in group_active]
        if not any(live):
            break
        if not all(live):
            # A finished question owns no row; only the bookkeeping shrinks.
            kept = [question for question, alive in enumerate(live) if alive]
            for question, alive in enumerate(live):
                if not alive:
                    banked[question_ids[question]] = beams[question]
                    compacted.append(question_ids[question])
            question_ids, beams, slot_rows, group_active, advance_fns, ids_fns = (
                [per_question[question] for question in kept]
                for per_question in (question_ids, beams, slot_rows, group_active,
                                     advance_fns, ids_fns))
            num_questions = len(kept)

        # Per-row operands follow the row -> question map, re-gathered only
        # on steps where it moved (one beam per question: when one finished).
        if row_questions != gathered_for:
            gathered_for = row_questions
            index = np.asarray(row_questions, dtype=np.int64)
            operands = tuple(operand[index] for operand in resident)

        # One kernel call: every distinct live prefix of every question.
        steps += 1
        beam_rows += len(previous)
        log_probabilities, step_states = kernel.step(
            states, np.asarray(previous, dtype=np.int64), input_table, operands)
        if None in row_tokens:
            # Rows nothing constrains: the lemma's ``reach`` best, ascending.
            open_rows = [row for row, tokens in enumerate(row_tokens)
                         if tokens is None]
            best = np.argsort(-log_probabilities[open_rows], axis=1,
                              kind="stable")[:, :reach]
            for row, tokens in zip(open_rows, np.sort(best, axis=1).tolist()):
                row_tokens[row] = tokens
        # One gather over every row's ids.  ``.tolist()`` preserves every
        # bit: the Python floats compare and add exactly like the float64
        # array elements they came from.
        widths = list(map(len, row_tokens))
        flat_rows = np.repeat(np.arange(len(widths)), widths)
        gathered = log_probabilities[flat_rows, np.fromiter(
            chain.from_iterable(row_tokens), np.int64, len(flat_rows))]
        ranked_tokens += len(flat_rows)

        # A continued beam registers the row it advances through next step:
        # its token, parent row, question, constraint state and ids.
        next_previous: list[int] = []
        next_parents: list[int] = []
        next_questions: list[int] = []
        next_constraints: list = []
        next_tokens: list = []
        if num_beams == 1:
            # One beam in one group: compaction left live questions only,
            # each one beam on one row -- row i is question i -- whose one
            # candidate is the row's first maximum.  (``slot_rows`` is left
            # as it is: it is read by multi-beam selection only.)
            picks = _first_maxima(gathered, row_tokens, widths)
            for row, pick in enumerate(picks):
                original = question_ids[row]
                served[original] += 1
                group_beams = beams[row]
                ((score, tokens, _),) = group_beams[0]
                if pick is not None:
                    value, token = pick
                    group_beams[0] = [(score + value, tokens + [token],
                                       token == eos_id)]
                if pick is None or token == eos_id:
                    group_active[row][0] = False
                    continue
                next_previous.append(token)
                next_parents.append(row)
                next_questions.append(original)
                advance_state = advance_fns[row]
                constraint_state = (None if advance_state is None else
                                    advance_state(row_constraints[row], token))
                next_constraints.append(constraint_state)
                next_tokens.append(None if advance_state is None
                                   else ids_fns[row](constraint_state))
        else:
            # Split back per row and ranked once for every beam no penalty
            # touches.
            flat_values = iter(gathered.tolist())
            row_values = [list(islice(flat_values, width)) for width in widths]
            rankings = [_ranked(values, tokens, values, top_n)
                        for values, tokens in zip(row_values, row_tokens)]

            # Group-sequential selection, question by question.  Continued beams
            # register under (parent row, token), so equal prefixes -- whichever
            # groups chose them -- are one row.
            child_rows: dict[int, int] = {}
            for question in range(num_questions):
                original = question_ids[question]
                advance_state, ids_for_state = advance_fns[question], ids_fns[question]
                question_beams, question_rows, active = (
                    beams[question], slot_rows[question], group_active[question])
                #: token -> how many earlier groups of this question chose it this
                #: step; ``penalty * count`` is the oracle's penalty double.
                chosen: dict[int, int] = {}
                chosen_tokens = chosen.keys()
                for group in range(num_groups):
                    if not active[group]:
                        continue
                    group_beams, group_rows = question_beams[group], question_rows[group]
                    # Candidates in the loop oracle's enumeration order, so the
                    # stable sort breaks ties identically: (score, token, parent
                    # slot), token -1 marking a finished beam passing through.
                    candidates: list[tuple[float, int, int]] = []
                    for slot, beam in enumerate(group_beams):
                        if beam[2]:
                            candidates.append((beam[0], -1, slot))
                            continue
                        served[original] += 1
                        parent_score = beam[0]
                        row = group_rows[slot]
                        tokens = row_tokens[row]
                        # A penalty re-ranks a row only when a tallied token
                        # stands among several.
                        if len(tokens) < 2 or chosen_tokens.isdisjoint(tokens):
                            ranking = rankings[row]
                        else:
                            ranking = _ranked(
                                row_values[row], tokens,
                                [value - diversity_penalty * chosen.get(token, 0)
                                 for value, token in zip(row_values[row], tokens)],
                                top_n)
                        for _, value, token in ranking:
                            candidates.append((parent_score + value, token, slot))
                    if not candidates:
                        # No finite continuation now means none ever (same
                        # inputs, same outputs): where the oracle re-derives that
                        # every remaining step, the group rests as it stands.
                        active[group] = False
                        question_rows[group] = dead_slots
                        continue
                    candidates.sort(key=_candidate_score, reverse=True)
                    selected: list[tuple] = []
                    rows = list(dead_slots)
                    still_active = False
                    for slot, (score, token, parent) in enumerate(
                            candidates[:beams_per_group]):
                        if token < 0:
                            selected.append(group_beams[parent])
                            continue
                        if token != eos_id:
                            still_active = True
                            if tallying:
                                chosen[token] = chosen.get(token, 0) + 1
                            parent_row = group_rows[parent]
                            key = parent_row * vocab_size + token
                            row = child_rows.get(key)
                            if row is None:
                                row = child_rows[key] = len(next_previous)
                                next_previous.append(token)
                                next_parents.append(parent_row)
                                next_questions.append(original)
                                if advance_state is None:
                                    next_constraints.append(None)
                                    next_tokens.append(None)
                                else:
                                    constraint_state = advance_state(
                                        row_constraints[parent_row], token)
                                    next_constraints.append(constraint_state)
                                    next_tokens.append(ids_for_state(constraint_state))
                            rows[slot] = row
                        selected.append((score, group_beams[parent][1] + [token],
                                         token == eos_id))
                    question_beams[group] = selected
                    question_rows[group] = rows
                    active[group] = still_active

        # A child row starts from the state its parent's row stepped to.
        states = step_states[np.asarray(next_parents, dtype=np.int64)]
        previous, row_questions, row_constraints, row_tokens = (
            next_previous, next_questions, next_constraints, next_tokens)

    _note_counters(stats, steps=steps, beam_rows=beam_rows,
                   live_beams=sum(served), ranked_tokens=ranked_tokens,
                   questions_compacted=len(compacted))
    for question, original in enumerate(question_ids):
        banked[original] = beams[question]
    return [_finalize_groups(groups, eos_id, length_penalty, num_beams)
            for groups in banked]
