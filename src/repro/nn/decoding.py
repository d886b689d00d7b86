"""Decoding strategies: greedy, beam search, and diverse beam search.

All strategies accept an optional *constraint* callback mapping the decoded
prefix (token ids, excluding BOS) to the set of token ids allowed next.  The
DBCopilot router plugs its graph-based prefix-trie constraint in here
(paper §3.5); passing ``None`` decodes unconstrained.  Constraints may
additionally expose an ``allowed_mask(prefix)`` method returning a boolean
ndarray over the vocabulary (see
:class:`repro.core.constrained.GraphConstrainedDecoding`); both engines
prefer it, applying the constraint as one vectorized ``np.where``.

Diverse beam search follows Vijayakumar et al. (2016), the algorithm the paper
uses to obtain varied candidate schemata: beams are split into groups, groups
are expanded sequentially at each step, and a token already chosen by an
earlier group at the same step is penalised for later groups.

Three implementations share those semantics:

* :func:`diverse_beam_search_batch` -- the bit-exact hot path.  It advances
  all active beams of all questions in a micro-batch through one
  :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy_batch` call per
  step, with bookkeeping (tokens, lengths, scores, states, finished flags)
  held in flat numpy arrays.
* :func:`diverse_beam_search_loop` -- the original per-beam Python loop, kept
  as the reference for differential testing
  (``RouterConfig.decode_backend="loop"``).
* :func:`_diverse_beam_search_batch_dense` -- the throughput tier
  (``kernel="fast"`` / ``RouterConfig.decode_backend="fast"``): the same
  search over the slot-dense flat-GEMM kernel, trading bit-identity for
  tolerance-checked agreement.

The first two return *bit-identical* hypotheses: token-for-token the same
sequences with double-for-double the same scores.  The kernel's bit-exactness
contract covers the numerics; on the search side all engines break score ties
identically -- stable, lowest-token-id-first (``np.argsort(-scores,
kind="stable")``), never the platform-dependent order an unstable descending
sort would give -- so candidate selection, and therefore every downstream
ranking and cross-process merge, is deterministic.

Constraints exposing the incremental-state protocol (``initial_state`` /
``advance`` / ``allowed_mask_for_state``) are threaded through the batched
engines: each surviving beam carries an O(1)-updatable interpreter state
(gathered from its parent on selection), so per-step constraint resolution
never re-walks a beam's prefix.  The loop reference keeps the prefix-walk
path, which is exactly what makes it the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import AbstractSet, Callable, Sequence

import numpy as np

from repro.nn.seq2seq import EncodedSource, Seq2SeqModel

#: A constraint maps the decoded prefix to the allowed next token ids -- any
#: set-like collection, shared and possibly immutable, so callers must not
#: mutate it (an empty collection means "only EOS is allowed"; None means
#: "unconstrained at this prefix").
Constraint = Callable[[Sequence[int]], AbstractSet[int] | None]

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


def _incremental_constraint(constraint: Constraint | None):
    """The constraint's incremental-state protocol, or ``None``.

    Constraints exposing ``initial_state()`` / ``advance(state, token)`` /
    ``allowed_mask_for_state(state)`` (see
    :class:`repro.core.constrained.GraphConstrainedDecoding`) let the batched
    engines thread an O(1)-updatable interpreter state through every
    surviving beam instead of re-walking its prefix per step.  Returns the
    bound ``(initial_state, advance, allowed_mask_for_state)`` triple.
    """
    if (constraint is not None
            and hasattr(constraint, "initial_state")
            and hasattr(constraint, "advance")
            and hasattr(constraint, "allowed_mask_for_state")):
        return (constraint.initial_state, constraint.advance,
                constraint.allowed_mask_for_state)
    return None


def _constraint_mask(constraint: Constraint | None, prefix: Sequence[int],
                     vocab_size: int, eos_id: int) -> np.ndarray | None:
    """The allowed-token boolean mask for ``prefix`` (None = unconstrained).

    Uses the constraint's cached ``allowed_mask`` when it has one; otherwise
    falls back to calling it as a set-returning callable and building the mask
    (an empty set means "only EOS").
    """
    if constraint is None:
        return None
    mask_fn = getattr(constraint, "allowed_mask", None)
    if mask_fn is not None:
        return mask_fn(prefix)
    allowed = constraint(prefix)
    if allowed is None:
        return None
    allowed_ids = {int(token) for token in allowed}
    if not allowed_ids:
        allowed_ids = {eos_id}
    mask = np.zeros(vocab_size, dtype=bool)
    mask[[token for token in allowed_ids if 0 <= token < vocab_size]] = True
    return mask


def _assign_state_mask(target: np.ndarray, mask: np.ndarray) -> None:
    """Write a constraint mask into a resident mask row, padding-aware.

    Wave decodes mix shards of different vocabulary widths into one grid
    whose mask rows span the widest slice; a narrower shard's mask fills its
    own columns and closes the pad columns (the kernel emits ``-inf`` there
    anyway -- this keeps the mask grid self-consistent)."""
    width = mask.shape[-1]
    if width == target.shape[-1]:
        target[...] = mask
    else:
        target[..., :width] = mask
        target[..., width:] = False


def _masked_log_probabilities(log_probabilities: np.ndarray, prefix: Sequence[int],
                              constraint: Constraint | None, eos_id: int) -> np.ndarray:
    """Apply the constraint by setting disallowed token log-probs to -inf."""
    mask = _constraint_mask(constraint, prefix, log_probabilities.shape[0], eos_id)
    if mask is None:
        return log_probabilities
    return np.where(mask, log_probabilities, -np.inf)


def _finalize_groups(groups: "list[list[_Beam]]", eos_id: int,
                     length_penalty: float, num_beams: int) -> list[BeamHypothesis]:
    """Strip EOS, rank, and deduplicate the surviving beams of one question."""
    finished: list[BeamHypothesis] = []
    for group in groups:
        for beam in group:
            tokens = beam.tokens
            if tokens and tokens[-1] == eos_id:
                tokens = tokens[:-1]
            finished.append(BeamHypothesis(tokens=tokens, score=beam.score,
                                           finished=beam.finished))
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


def greedy_decode(model: Seq2SeqModel, source_ids: Sequence[int], bos_id: int, eos_id: int,
                  max_length: int = 48, constraint: Constraint | None = None,
                  encoded: EncodedSource | None = None) -> BeamHypothesis:
    """Greedy decoding; returns a single hypothesis (without BOS/EOS tokens).

    ``encoded`` lets callers reuse a precomputed encoder output (batched
    serving encodes many questions in one matmul and decodes each separately).
    """
    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    state = encoded.state
    previous = bos_id
    tokens: list[int] = []
    score = 0.0
    for _ in range(max_length):
        log_probabilities, state = model.decode_step_numpy(encoded, state, previous)
        log_probabilities = _masked_log_probabilities(log_probabilities, tokens, constraint, eos_id)
        previous = int(np.argmax(log_probabilities))
        score += float(log_probabilities[previous])
        if previous == eos_id:
            return BeamHypothesis(tokens=tokens, score=score, finished=True)
        tokens.append(previous)
    return BeamHypothesis(tokens=tokens, score=score, finished=False)


def beam_search(model: Seq2SeqModel, source_ids: Sequence[int], bos_id: int, eos_id: int,
                beam_size: int = 5, max_length: int = 48,
                constraint: Constraint | None = None,
                length_penalty: float = 0.0) -> list[BeamHypothesis]:
    """Standard beam search; returns up to ``beam_size`` finished hypotheses."""
    return diverse_beam_search(
        model, source_ids, bos_id, eos_id,
        num_beams=beam_size, num_groups=1, diversity_penalty=0.0,
        max_length=max_length, constraint=constraint, length_penalty=length_penalty,
    )


def _validate_beam_budget(num_beams: int, num_groups: int) -> int:
    if num_beams <= 0:
        raise ValueError("num_beams must be positive")
    if num_groups <= 0 or num_beams % num_groups != 0:
        raise ValueError("num_beams must be a positive multiple of num_groups")
    return num_beams // num_groups


def diverse_beam_search(model: Seq2SeqModel, source_ids: Sequence[int], bos_id: int, eos_id: int,
                        num_beams: int = 10, num_groups: int = 10,
                        diversity_penalty: float = 2.0, max_length: int = 48,
                        constraint: Constraint | None = None,
                        length_penalty: float = 0.0,
                        encoded: EncodedSource | None = None) -> list[BeamHypothesis]:
    """Diverse (group) beam search for one question (a thin wrapper).

    ``num_beams`` must be divisible by ``num_groups``; the paper uses 10 beams
    in 10 groups with a diversity penalty of 2.0 (§4.1.5).  ``encoded`` lets
    callers reuse a precomputed encoder output instead of re-encoding
    ``source_ids``.  Runs the single question through the batched engine
    (:func:`diverse_beam_search_batch`); the per-beam reference implementation
    is :func:`diverse_beam_search_loop`.
    """
    _validate_beam_budget(num_beams, num_groups)
    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    return diverse_beam_search_batch(
        model, [encoded], bos_id, eos_id,
        num_beams=num_beams, num_groups=num_groups,
        diversity_penalty=diversity_penalty, max_length=max_length,
        constraint=constraint, length_penalty=length_penalty,
    )[0]


def _note_decode_stats(stats: dict | None, **counts: int) -> None:
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
    engine against.  ``stats``, when given, accumulates ``steps`` (decode
    steps with at least one active beam) and ``beam_rows`` (kernel calls).
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)

    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    groups: list[list[_Beam]] = [
        [_Beam(state=encoded.state.copy())] for _ in range(num_groups)
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
                log_probabilities = _masked_log_probabilities(
                    log_probabilities, beam.tokens, constraint, eos_id)
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
            groups[group_index] = selected
        if not any_active:
            break
        steps += 1

    _note_decode_stats(stats, steps=steps, beam_rows=beam_rows)
    return _finalize_groups(groups, eos_id, length_penalty, num_beams)


def diverse_beam_search_batch(model: Seq2SeqModel, encoded_batch: "list[EncodedSource]",
                              bos_id: int, eos_id: int,
                              num_beams: int = 10, num_groups: int = 10,
                              diversity_penalty: float = 2.0, max_length: int = 48,
                              constraint: "Constraint | Sequence[Constraint | None] | None" = None,
                              length_penalty: float = 0.0,
                              kernel: str = "exact",
                              stats: dict | None = None,
                              question_tags: Sequence[int] | None = None
                              ) -> list[list[BeamHypothesis]]:
    """Diverse beam search over a whole micro-batch of questions at once.

    Per step, the active beams of *all* groups of *all* questions advance
    through one stacked
    :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy_batch` call
    against their zero-padded encoder memories -- every beam's kernel inputs
    (state, previous token) are fixed before any group selects, so a single
    call per step is exact.  Constraint masks apply as one ``np.where`` over
    the stacked rows.  Group-sequential Hamming diversity is preserved
    exactly: groups still *select* in order within a step, each later group
    scoring against its question's tally of tokens the earlier groups chose.
    Beam bookkeeping (tokens, lengths, scores, states, finished flags) lives
    in flat numpy arrays.

    Constraints exposing the incremental-state protocol (``initial_state`` /
    ``advance`` / ``allowed_mask_for_state``, see
    :class:`repro.core.constrained.GraphConstrainedDecoding`) are threaded
    through the search: each surviving beam carries an O(1)-updatable
    interpreter state (gathered from its parent on selection), so per-step
    constraint resolution never re-walks a beam's prefix.  Other constraints
    fall back to the prefix-walk path with a per-call prefix->mask memo.

    ``kernel`` selects the decode tier: ``"exact"`` (the default) keeps the
    bit-exactness contract of
    :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy_batch` with
    per-step row gathers; ``"fast"`` dispatches to the slot-dense engine
    (:func:`_diverse_beam_search_batch_dense` over
    :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy_batch_fast`) --
    true flat GEMMs, batched attention, resident buffers, last-ulp drift
    allowed.  Search semantics (diversity, tie-breaking, selection order) are
    identical under either kernel.

    With the exact kernel, returns one hypothesis list per question,
    bit-identical to :func:`diverse_beam_search_loop` on the same inputs.
    ``stats``, when given, accumulates ``steps`` (stacked kernel calls) and
    ``beam_rows`` (active rows advanced across all steps); the fast tier
    additionally counts ``questions_compacted``.

    The slot-dense engine additionally accepts the cluster wave form:
    ``constraint`` may be a *sequence* of per-question constraints (each
    ``None`` or incremental-protocol), and ``question_tags`` labels each
    question with an integer shard tag that is forwarded to the kernel and
    broken out in ``stats["per_tag"]``.  A tagged search always runs on that
    engine, whatever ``kernel`` says: ``model`` is then a
    :class:`~repro.nn.seq2seq.WaveDecodeKernel`, and its ``row_stable``
    decides the numerics (exact by default).
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)
    if kernel == "fast" or question_tags is not None:
        return _diverse_beam_search_batch_dense(
            model, encoded_batch, bos_id, eos_id,
            num_beams=num_beams, num_groups=num_groups,
            diversity_penalty=diversity_penalty, max_length=max_length,
            constraint=constraint, length_penalty=length_penalty, stats=stats,
            question_tags=question_tags)
    if kernel != "exact":
        raise ValueError(f"kernel must be 'exact' or 'fast', got {kernel!r}")
    if isinstance(constraint, (list, tuple)):
        raise ValueError("per-question constraints require kernel='fast' "
                         "or question_tags")
    num_questions = len(encoded_batch)
    if num_questions == 0:
        return []
    hidden = encoded_batch[0].state.shape[0]
    vocab_size = model.config.target_vocab_size
    padded_length = max(encoded.memory.shape[0] for encoded in encoded_batch)
    memory = np.zeros((num_questions, padded_length, hidden))
    memory_mask = np.zeros((num_questions, padded_length), dtype=bool)
    for question, encoded in enumerate(encoded_batch):
        true_length = encoded.memory.shape[0]
        memory[question, :true_length] = encoded.memory
        memory_mask[question, :true_length] = np.asarray(encoded.mask) != 0.0
    # The kernel's attention pooling wants memory with a ones column appended
    # (the attention normalizer rides the same einsum); build it once here so
    # each step only gathers rows instead of re-concatenating.
    augmented_memory = np.concatenate(
        [memory, np.ones((num_questions, padded_length, 1))], axis=2)

    # Flat per-(question, group, slot) bookkeeping.  ``alive`` counts the
    # slots in use per group (1 at the start, up to ``beams_per_group`` after
    # the first selection).
    shape = (num_questions, num_groups, beams_per_group)
    tokens = np.zeros(shape + (max_length,), dtype=np.int64)
    lengths = np.zeros(shape, dtype=np.int64)
    scores = np.zeros(shape, dtype=np.float64)
    states = np.zeros(shape + (hidden,), dtype=np.float64)
    finished = np.zeros(shape, dtype=bool)
    alive = np.ones((num_questions, num_groups), dtype=np.int64)
    for question, encoded in enumerate(encoded_batch):
        states[question, :, 0] = encoded.state

    # Incremental constraint interpretation: beams carry interpreter states
    # (shared, immutable) in parallel Python lists mirroring the numpy
    # bookkeeping.  All slots start at the (single, shared) empty-prefix
    # state; slots beyond ``alive`` are never read.
    incremental = _incremental_constraint(constraint)
    if incremental:
        initial_state, advance_state, mask_for_state = incremental
        start_state = initial_state()
        constraint_states: list[list[list]] = [
            [[start_state] * beams_per_group for _ in range(num_groups)]
            for _ in range(num_questions)
        ]

    # Clamped to the vocabulary: argsort slices truncate at V anyway (the
    # loop backend's behavior), and the candidate loops must not read
    # positions that do not exist when V < 2 * beams_per_group.
    top_n = min(max(beams_per_group * 2, 2), vocab_size)
    # Scratch buffers reused by every (question, group) selection write-back.
    # Slots beyond a beam's recorded length may hold stale tokens; no reader
    # ever looks past ``lengths``.
    scratch_tokens = np.zeros((beams_per_group, max_length), dtype=np.int64)
    scratch_lengths = np.zeros(beams_per_group, dtype=np.int64)
    scratch_scores = np.zeros(beams_per_group, dtype=np.float64)
    scratch_states = np.zeros((beams_per_group, hidden), dtype=np.float64)
    scratch_finished = np.zeros(beams_per_group, dtype=bool)
    scratch_cstates: list = [None] * beams_per_group

    steps = 0
    beam_rows = 0
    for _ in range(max_length):
        # Python-list snapshots of the step-start bookkeeping: selection only
        # ever reads pre-step values (the scratch write-back below is the sole
        # writer), and plain lists are an order of magnitude faster than numpy
        # scalar indexing in the per-beam loops.
        alive_list = alive.tolist()
        finished_list = finished.tolist()
        scores_list = scores.tolist()
        lengths_list = lengths.tolist()

        # Stack the active beams of every (question, group), ordered so each
        # group occupies one contiguous block of rows.  All kernel inputs are
        # fixed at step start -- selection within a group only decides which
        # beams survive into the *next* step -- so one stacked call serves
        # every group of the step.
        row_question: list[int] = []
        row_beam: list[int] = []
        row_group: list[int] = []
        group_bounds: list[tuple[int, int]] = []
        row_lookup: dict[tuple[int, int, int], int] = {}
        for group in range(num_groups):
            start = len(row_question)
            for question in range(num_questions):
                question_finished = finished_list[question][group]
                for beam in range(alive_list[question][group]):
                    if not question_finished[beam]:
                        row_lookup[group, question, beam] = len(row_question)
                        row_question.append(question)
                        row_beam.append(beam)
                        row_group.append(group)
            group_bounds.append((start, len(row_question)))
        if not row_question:
            break
        steps += 1
        beam_rows += len(row_question)
        question_index = np.asarray(row_question, dtype=np.int64)
        beam_index = np.asarray(row_beam, dtype=np.int64)
        group_index = np.asarray(row_group, dtype=np.int64)
        row_lengths = lengths[question_index, group_index, beam_index]
        previous = np.where(
            row_lengths > 0,
            tokens[question_index, group_index, beam_index,
                   np.maximum(row_lengths - 1, 0)],
            bos_id)
        log_probabilities, step_states = model.decode_step_numpy_batch(
            memory[question_index], memory_mask[question_index],
            states[question_index, group_index, beam_index], previous,
            augmented_memory=augmented_memory[question_index])

        if incremental:
            # Each row's interpreter state already knows (or memoizes on
            # first touch) its allowed mask: no prefix materialization, no
            # trie walks, one attribute/dict hit per row.
            row_masks = np.empty_like(log_probabilities, dtype=bool)
            for row, (question, group, beam) in enumerate(
                    zip(row_question, row_group, row_beam)):
                row_masks[row] = mask_for_state(
                    constraint_states[question][group][beam])
            log_probabilities = np.where(row_masks, log_probabilities, -np.inf)
        elif constraint is not None:
            # Constraints are pure functions of the prefix, so rows sharing a
            # prefix (e.g. every group at step 0) share one mask lookup.
            row_masks = np.ones_like(log_probabilities, dtype=bool)
            constrain_rows = False
            mask_memo: dict[tuple[int, ...], np.ndarray | None] = {}
            for row, (question, group, beam) in enumerate(
                    zip(row_question, row_group, row_beam)):
                prefix = tokens[question, group, beam,
                                :lengths_list[question][group][beam]].tolist()
                key = tuple(prefix)
                if key in mask_memo:
                    mask = mask_memo[key]
                else:
                    mask = _constraint_mask(constraint, prefix, vocab_size, eos_id)
                    mask_memo[key] = mask
                if mask is not None:
                    row_masks[row] = mask
                    constrain_rows = True
            if constrain_rows:
                log_probabilities = np.where(row_masks, log_probabilities, -np.inf)

        chosen: list[dict[int, int]] = [{} for _ in range(num_questions)]
        for group in range(num_groups):
            start, stop = group_bounds[group]
            if start == stop:
                continue
            block_logp = log_probabilities[start:stop]
            scored = block_logp
            if diversity_penalty > 0.0:
                penalised = None
                penalty_of: dict[int, np.ndarray] = {}
                for block_row in range(stop - start):
                    question = row_question[start + block_row]
                    if not chosen[question]:
                        continue
                    if penalised is None:
                        penalised = block_logp.copy()
                    penalty = penalty_of.get(question)
                    if penalty is None:
                        penalty = np.zeros(vocab_size)
                        for token, count in chosen[question].items():
                            penalty[token] = diversity_penalty * count
                        penalty_of[question] = penalty
                    penalised[block_row] = block_logp[block_row] - penalty
                if penalised is not None:
                    scored = penalised

            # One stable descending argsort across the group's rows: ties
            # resolve lowest-token-id-first, identically to the loop path.
            order = np.argsort(-scored, axis=1, kind="stable")[:, :top_n]
            order_list = order.tolist()
            # ``.tolist()`` preserves every bit: the Python floats compare and
            # add exactly like the float64 array elements they came from.
            values_list = np.take_along_axis(block_logp, order, axis=1).tolist()

            # Per-question candidate selection (cheap Python: ~2x beam budget
            # candidates per beam), preserving the loop path's enumeration
            # order so stable sorting breaks ties identically.  A candidate is
            # (score, token, parent_beam, kernel_row); token -1 marks a
            # finished beam passing through unchanged.
            for question in range(num_questions):
                candidates: list[tuple[float, int, int, int]] = []
                has_active = False
                question_scores = scores_list[question][group]
                question_finished = finished_list[question][group]
                for beam in range(alive_list[question][group]):
                    if question_finished[beam]:
                        candidates.append((question_scores[beam], -1, beam, -1))
                        continue
                    has_active = True
                    block_row = row_lookup[group, question, beam] - start
                    parent_score = question_scores[beam]
                    row_values = values_list[block_row]
                    row_order = order_list[block_row]
                    for position in range(top_n):
                        value = row_values[position]
                        if not math.isfinite(value):
                            continue
                        candidates.append((parent_score + value,
                                           row_order[position],
                                           beam,
                                           start + block_row))
                if not candidates or not has_active:
                    continue
                candidates.sort(key=_candidate_score, reverse=True)
                selected = candidates[:beams_per_group]
                group_states = constraint_states[question][group] if incremental \
                    else None
                for slot, (score, token, parent, row) in enumerate(selected):
                    parent_length = lengths_list[question][group][parent]
                    scratch_tokens[slot, :parent_length] = \
                        tokens[question, group, parent, :parent_length]
                    if token < 0:
                        # A finished beam passing through unchanged.
                        scratch_lengths[slot] = parent_length
                        scratch_scores[slot] = question_scores[parent]
                        scratch_states[slot] = states[question, group, parent]
                        scratch_finished[slot] = True
                        if group_states is not None:
                            scratch_cstates[slot] = group_states[parent]
                        continue
                    scratch_tokens[slot, parent_length] = token
                    scratch_lengths[slot] = parent_length + 1
                    scratch_scores[slot] = score
                    scratch_states[slot] = step_states[row]
                    scratch_finished[slot] = token == eos_id
                    if group_states is not None:
                        # Gather the parent's interpreter state and advance it
                        # by the emitted token; a beam finishing on EOS keeps
                        # its parent state (its mask is never consulted again).
                        scratch_cstates[slot] = group_states[parent] \
                            if token == eos_id \
                            else advance_state(group_states[parent], token)
                    if token != eos_id:
                        chosen[question][token] = chosen[question].get(token, 0) + 1
                count = len(selected)
                tokens[question, group, :count] = scratch_tokens[:count]
                lengths[question, group, :count] = scratch_lengths[:count]
                scores[question, group, :count] = scratch_scores[:count]
                states[question, group, :count] = scratch_states[:count]
                finished[question, group, :count] = scratch_finished[:count]
                alive[question, group] = count
                if group_states is not None:
                    constraint_states[question][group] = scratch_cstates[:count]

    _note_decode_stats(stats, steps=steps, beam_rows=beam_rows)
    results: list[list[BeamHypothesis]] = []
    for question in range(num_questions):
        groups_out: list[list[_Beam]] = []
        for group in range(num_groups):
            group_beams: list[_Beam] = []
            for beam in range(alive[question, group]):
                length = int(lengths[question, group, beam])
                group_beams.append(_Beam(
                    tokens=tokens[question, group, beam, :length].tolist(),
                    score=float(scores[question, group, beam]),
                    finished=bool(finished[question, group, beam])))
            groups_out.append(group_beams)
        results.append(_finalize_groups(groups_out, eos_id, length_penalty, num_beams))
    return results


def _diverse_beam_search_batch_dense(model: Seq2SeqModel,
                                     encoded_batch: "list[EncodedSource]",
                                     bos_id: int, eos_id: int,
                                     num_beams: int, num_groups: int,
                                     diversity_penalty: float, max_length: int,
                                     constraint: "Constraint | Sequence[Constraint | None] | None",
                                     length_penalty: float,
                                     stats: dict | None = None,
                                     question_tags: Sequence[int] | None = None
                                     ) -> list[list[BeamHypothesis]]:
    """The ``fast`` decode tier: slot-dense diverse beam search.

    Identical search semantics to :func:`diverse_beam_search_batch` (group-
    sequential Hamming diversity, unpenalised candidate ranking, stable
    lowest-token-id-first tie-breaking, finished-beam pass-through), but
    organised for throughput instead of bit-exactness:

    * every ``(question, group, slot)`` of the beam grid advances through
      ``model.dense_step`` each step (for a model,
      :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy_batch_fast`:
      flat GEMMs over all ``Q*G*B`` slots, batched per-question attention;
      ``model.dense_input_table()`` is fetched once per search and
      ``model.dense_memory(...)`` once per search and per compaction) -- with
      states, previous tokens, and constraint masks kept
      *resident* in preallocated arrays, so steps perform no row gathers and
      no stacking; finished or unused slots ride along (their outputs are
      simply never read) rather than being compacted away;
    * groups still *select* sequentially within a step (Hamming diversity
      demands it; tallies live in one ``(Q, V)`` count array), but their
      selections are only recorded -- parent index, appended token, new
      score per slot -- and the grid is committed once per step with one set
      of whole-``(G, Q, B)`` gather/scatter ops instead of per-group writes.

    Numerically the fast kernel may drift from the exact one in the last
    ulps (flat GEMMs are not row-stable), so this tier's contract is
    tolerance-checked top-1 agreement, not bit-identity -- see
    ``RouterConfig.decode_backend`` and ``benchmarks/bench_decode_throughput``.
    Incremental constraint states are threaded through beams exactly as in
    the exact engine; non-incremental constraints fall back to prefix masks.

    Two wave-decode extensions (the inproc cluster batching every shard's
    beams into one grid): ``constraint`` may be a sequence with exactly one
    entry per question -- each ``None`` or incremental-protocol (the prefix-
    walk fallback stays scalar-only) -- and ``question_tags`` labels each
    question with an integer shard tag.  Tags ride through compaction, are
    handed to the kernel's ``tags`` parameter each step (``model`` is then a
    :class:`~repro.nn.seq2seq.WaveDecodeKernel`: per-shard table rows and
    head columns, and -- unless built with ``row_stable=False`` -- the exact
    kernel's row-stable numerics instead of flat GEMMs), and split the decode
    counters into ``stats["per_tag"]``.
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)
    num_questions = len(encoded_batch)
    if num_questions == 0:
        return []
    hidden = encoded_batch[0].state.shape[0]
    vocab_size = model.config.target_vocab_size
    padded_length = max(encoded.memory.shape[0] for encoded in encoded_batch)
    memory = np.zeros((num_questions, padded_length, hidden))
    memory_mask = np.zeros((num_questions, padded_length), dtype=bool)
    for question, encoded in enumerate(encoded_batch):
        true_length = encoded.memory.shape[0]
        memory[question, :true_length] = encoded.memory
        memory_mask[question, :true_length] = np.asarray(encoded.mask) != 0.0

    # The resident beam grid.  Unlike the exact engine, *every* slot is
    # initialised (not just slot 0): dead slots keep flowing finite values
    # through the dense kernel, and ``alive``/``finished`` decide what is
    # actually read.
    shape = (num_questions, num_groups, beams_per_group)
    slots = num_groups * beams_per_group
    tokens = np.zeros(shape + (max_length,), dtype=np.int64)
    lengths = np.zeros(shape, dtype=np.int64)
    scores = np.zeros(shape, dtype=np.float64)
    states = np.zeros(shape + (hidden,), dtype=np.float64)
    finished = np.zeros(shape, dtype=bool)
    alive = np.ones((num_questions, num_groups), dtype=np.int64)
    for question, encoded in enumerate(encoded_batch):
        states[question] = encoded.state
    # Flat (Q, S, ...) views over the same buffers for the kernel call and
    # the per-step previous-token derivation.
    flat_tokens = tokens.reshape(num_questions, slots, max_length)
    flat_lengths = lengths.reshape(num_questions, slots)
    flat_states = states.reshape(num_questions, slots, hidden)
    # Per-step Hamming tallies: counts[q, v] = how many earlier groups chose
    # token v for question q this step.  dp * count reproduces the exact
    # engine's penalty doubles bit-for-bit (both compute dp * n once).
    counts = np.zeros((num_questions, vocab_size), dtype=np.float64)
    beam_arange = np.arange(beams_per_group)
    question_arange = np.arange(num_questions)[:, None]
    slot_arange = np.arange(slots)[None, :]
    # Broadcast index helpers for the whole-grid (G, Q, B) commit: direct
    # fancy indexing beats the functional take/put_along_axis wrappers at
    # these shapes.
    question_index3 = np.arange(num_questions)[:, None, None]   # (Q, 1, 1)
    beam_index3 = beam_arange[None, :, None]                    # (1, B, 1)
    group_index3 = np.arange(num_groups)[:, None, None]         # (G, 1, 1)
    question_index_mid = np.arange(num_questions)[None, :, None]  # (1, Q, 1)
    beam_index_last = beam_arange[None, None, :]                  # (1, 1, B)
    input_table = model.dense_input_table()
    resident = model.dense_memory(memory, memory_mask, slots)

    # Constraint plumbing.  The scalar form keeps both paths (incremental
    # protocol or prefix-walk fallback); the per-question sequence form (the
    # wave path, each shard's own graph constraint) requires the incremental
    # protocol.  Everything below works off per-question ``advance_fns`` /
    # ``mask_fns`` lists (``None`` entries = unconstrained question), so the
    # selection loop is shard-agnostic.
    prefix_constraint: Constraint | None = None
    if isinstance(constraint, (list, tuple)):
        if len(constraint) != num_questions:
            raise ValueError(
                f"per-question constraints need exactly one entry per question "
                f"({len(constraint)} != {num_questions})")
        advance_fns: list = []
        mask_fns: list = []
        start_states: list = []
        for entry in constraint:
            if entry is None:
                advance_fns.append(None)
                mask_fns.append(None)
                start_states.append(None)
                continue
            protocol = _incremental_constraint(entry)
            if protocol is None:
                raise ValueError(
                    "per-question constraints must expose the incremental-state "
                    "protocol (initial_state/advance/allowed_mask_for_state)")
            entry_initial, entry_advance, entry_mask = protocol
            advance_fns.append(entry_advance)
            mask_fns.append(entry_mask)
            start_states.append(entry_initial())
    else:
        protocol = _incremental_constraint(constraint)
        if protocol is not None:
            shared_initial, shared_advance, shared_mask = protocol
            shared_start = shared_initial()
            advance_fns = [shared_advance] * num_questions
            mask_fns = [shared_mask] * num_questions
            start_states = [shared_start] * num_questions
        else:
            prefix_constraint = constraint
            advance_fns = [None] * num_questions
            mask_fns = [None] * num_questions
            start_states = [None] * num_questions
    incremental = any(fn is not None for fn in mask_fns)
    masked = incremental or prefix_constraint is not None
    if masked:
        # Resident dense mask grid; stale rows belong to dead slots and are
        # never read.  With an incremental constraint the grid is maintained
        # at selection time (a beam's mask only changes when its state
        # does), folded into the same loop that advances interpreter states;
        # prefix-walk constraints refill active rows before each step.
        row_masks = np.ones(shape + (vocab_size,), dtype=bool)
    if incremental:
        constraint_states: list[list[list]] = [
            [[start_states[question]] * beams_per_group for _ in range(num_groups)]
            for question in range(num_questions)
        ]
        for question in range(num_questions):
            if mask_fns[question] is not None:
                _assign_state_mask(row_masks[question],
                                   mask_fns[question](start_states[question]))

    # Shard tags (the wave path): resident per-question, compacted alongside
    # the grid, handed to the kernel each step, and split out per tag in the
    # final stats.
    tag_array: np.ndarray | None = None
    if question_tags is not None:
        tag_array = np.asarray(list(question_tags), dtype=np.int64)
        if tag_array.shape != (num_questions,):
            raise ValueError("question_tags needs exactly one tag per question")
        num_tags = int(tag_array.max()) + 1 if num_questions else 0
        tag_steps = np.zeros(num_tags, dtype=np.int64)
        tag_beam_rows = np.zeros(num_tags, dtype=np.int64)
        tag_compacted = np.zeros(num_tags, dtype=np.int64)

    # Clamped to the vocabulary: argsort slices truncate at V anyway (the
    # loop backend's behavior), and the candidate loops must not read
    # positions that do not exist when V < 2 * beams_per_group.
    top_n = min(max(beams_per_group * 2, 2), vocab_size)
    # Shared "keep this slot untouched" selection rows (read-only): parent =
    # own index, token marker -2.  Markers: >= 0 appends that token to the
    # parent, -1 passes a finished parent through, -2 keeps the slot as-is.
    keep_parents = list(range(beams_per_group))
    keep_tokens = [-2] * beams_per_group
    keep_scores = [0.0] * beams_per_group
    keep_parents_block = [keep_parents] * num_questions
    keep_tokens_block = [keep_tokens] * num_questions
    keep_scores_block = [keep_scores] * num_questions

    # Question-level compaction: once every group of a question has finished,
    # its beams are final -- bank them and shrink every per-question buffer,
    # so the tail of a decode (a few stragglers of a large batch) stops
    # paying dense-kernel flops for questions that are already done.
    question_ids = list(range(num_questions))
    banked: dict[int, tuple] = {}

    steps = 0
    beam_rows = 0
    questions_compacted = 0
    for _ in range(max_length):
        active = ~finished & (beam_arange < alive[:, :, None])   # (Q, G, B)
        if not active.any():
            break
        live = active.any(axis=(1, 2))                           # (Q,)
        if not live.all():
            questions_compacted += int((~live).sum())
            for question in np.nonzero(~live)[0].tolist():
                banked[question_ids[question]] = (
                    tokens[question].copy(), lengths[question].copy(),
                    scores[question].copy(), finished[question].copy(),
                    alive[question].copy())
            kept = np.nonzero(live)[0]
            kept_list = kept.tolist()
            question_ids = [question_ids[question] for question in kept_list]
            if incremental:
                constraint_states = [constraint_states[question]
                                     for question in kept_list]
            advance_fns = [advance_fns[question] for question in kept_list]
            mask_fns = [mask_fns[question] for question in kept_list]
            if tag_array is not None:
                tag_compacted += np.bincount(tag_array[~live], minlength=num_tags)
                tag_array = tag_array[kept]
            memory = memory[kept]
            memory_mask = memory_mask[kept]
            resident = model.dense_memory(memory, memory_mask, slots)
            tokens = tokens[kept]
            lengths = lengths[kept]
            scores = scores[kept]
            states = states[kept]
            finished = finished[kept]
            alive = alive[kept]
            active = active[kept]
            counts = counts[kept]
            if masked:
                row_masks = row_masks[kept]
            num_questions = len(kept_list)
            shape = (num_questions, num_groups, beams_per_group)
            flat_tokens = tokens.reshape(num_questions, slots, max_length)
            flat_lengths = lengths.reshape(num_questions, slots)
            flat_states = states.reshape(num_questions, slots, hidden)
            question_arange = np.arange(num_questions)[:, None]
            question_index3 = question_arange[:, :, None]
            question_index_mid = np.arange(num_questions)[None, :, None]
            keep_parents_block = [keep_parents] * num_questions
            keep_tokens_block = [keep_tokens] * num_questions
            keep_scores_block = [keep_scores] * num_questions
        # Python-list snapshots of the step-start bookkeeping, exactly like
        # the exact engine: selection only ever reads pre-step values (the
        # whole-grid commit below is the sole writer, and it runs after all
        # groups have selected).
        alive_list = alive.tolist()
        finished_list = finished.tolist()
        scores_list = scores.tolist()

        if prefix_constraint is not None:
            lengths_list = lengths.tolist()
            mask_memo: dict[tuple[int, ...], np.ndarray | None] = {}
            for question in range(num_questions):
                for group in range(num_groups):
                    group_finished = finished_list[question][group]
                    for beam in range(alive_list[question][group]):
                        if group_finished[beam]:
                            continue
                        key = tuple(tokens[
                            question, group, beam,
                            :lengths_list[question][group][beam]].tolist())
                        mask = mask_memo.get(key)
                        if key not in mask_memo:
                            mask = _constraint_mask(prefix_constraint, key,
                                                    vocab_size, eos_id)
                            mask_memo[key] = mask
                        if mask is not None:
                            row_masks[question, group, beam] = mask
                        else:
                            # None means "unconstrained at this prefix": the
                            # resident row may hold a stale restrictive mask
                            # (an earlier step, or another beam after a slot
                            # permutation) and must be reopened.
                            row_masks[question, group, beam] = True

        # One dense kernel call: all slots of all groups of all questions.
        # Previous tokens are derived in place from the resident grid (each
        # slot's last recorded token, BOS before any) -- no per-group upkeep.
        previous = np.where(
            flat_lengths > 0,
            flat_tokens[question_arange, slot_arange,
                        np.maximum(flat_lengths - 1, 0)],
            bos_id)
        steps += 1
        beam_rows += num_questions * slots
        if tag_array is not None:
            tagged = np.bincount(tag_array, minlength=num_tags)
            tag_beam_rows += tagged * slots
            tag_steps += tagged > 0
        log_probabilities, step_states = model.dense_step(
            memory, memory_mask, flat_states, previous, input_table, resident,
            tags=tag_array)
        log_probabilities = log_probabilities.reshape(shape + (vocab_size,))
        if masked:
            log_probabilities = np.where(row_masks, log_probabilities, -np.inf)

        # Group-sequential selection.  Each group contributes one (Q, B) row
        # set of (parent, token, score) decisions; groups that select nothing
        # keep the shared keep-blocks (read-only, so aliasing is safe).
        counts[:] = 0.0
        any_chosen = False
        step_parents = [keep_parents_block] * num_groups
        step_tokens = [keep_tokens_block] * num_groups
        step_scores = [keep_scores_block] * num_groups
        step_alive = [[alive_list[question][group]
                       for question in range(num_questions)]
                      for group in range(num_groups)]
        group_has_active = active.any(axis=(0, 2)).tolist()       # (G,)
        for group in range(num_groups):
            if not group_has_active[group]:
                continue
            block = log_probabilities[:, group]                    # (Q, B, V)
            if diversity_penalty > 0.0 and any_chosen:
                scored = block - (diversity_penalty * counts)[:, None, :]
            else:
                scored = block
            # One stable descending argsort over the group's dense block:
            # ties resolve lowest-token-id-first, identically to the exact
            # engine (dead rows are sorted too, and ignored below).
            order = np.argsort(-scored, axis=2, kind="stable")[:, :, :top_n]
            values = block[question_index3, beam_index3, order]
            order_list = order.tolist()
            values_list = values.tolist()
            finite_list = np.isfinite(values).tolist()

            group_parents = None
            for question in range(num_questions):
                candidates: list[tuple[float, int, int, int]] = []
                has_active = False
                question_scores = scores_list[question][group]
                question_finished = finished_list[question][group]
                question_values = values_list[question]
                question_order = order_list[question]
                question_finite = finite_list[question]
                for beam in range(alive_list[question][group]):
                    if question_finished[beam]:
                        candidates.append((question_scores[beam], -1, beam, -1))
                        continue
                    has_active = True
                    parent_score = question_scores[beam]
                    row_values = question_values[beam]
                    row_order = question_order[beam]
                    row_finite = question_finite[beam]
                    for position in range(top_n):
                        if not row_finite[position]:
                            continue
                        candidates.append((parent_score + row_values[position],
                                           row_order[position], beam, beam))
                if not candidates or not has_active:
                    continue
                if group_parents is None:
                    group_parents = list(keep_parents_block)
                    group_tokens = list(keep_tokens_block)
                    group_scores = list(keep_scores_block)
                    step_parents[group] = group_parents
                    step_tokens[group] = group_tokens
                    step_scores[group] = group_scores
                candidates.sort(key=_candidate_score, reverse=True)
                selected = candidates[:beams_per_group]
                parents_row = list(keep_parents)
                tokens_row = list(keep_tokens)
                scores_row = list(keep_scores)
                group_parents[question] = parents_row
                group_tokens[question] = tokens_row
                group_scores[question] = scores_row
                step_alive[group][question] = len(selected)
                mask_for_state = mask_fns[question]
                advance_state = advance_fns[question]
                group_states = constraint_states[question][group] \
                    if incremental and mask_for_state is not None else None
                new_cstates = [None] * len(selected) if group_states is not None \
                    else None
                for slot, (score, token, parent, _) in enumerate(selected):
                    parents_row[slot] = parent
                    if token < 0:
                        # A finished beam passing through unchanged.
                        tokens_row[slot] = -1
                        if group_states is not None:
                            new_cstates[slot] = group_states[parent]
                        continue
                    tokens_row[slot] = token
                    scores_row[slot] = score
                    if group_states is not None:
                        if token == eos_id:
                            new_cstates[slot] = group_states[parent]
                        else:
                            new_state = advance_state(group_states[parent], token)
                            new_cstates[slot] = new_state
                            _assign_state_mask(row_masks[question, group, slot],
                                               mask_for_state(new_state))
                    if token != eos_id:
                        counts[question, token] += 1.0
                        any_chosen = True
                if group_states is not None:
                    constraint_states[question][group] = new_cstates

        # Whole-grid commit: one set of (G, Q, B) gathers/scatters applies
        # every group's recorded selection at once.  Keep-slots gather
        # themselves (their append mask is off, so the token write below is
        # a clamped self-overwrite); slots past ``alive`` hold gathered
        # leftovers no reader ever looks at.
        parents = np.asarray(step_parents, dtype=np.int64)        # (G, Q, B)
        chosen_tokens = np.asarray(step_tokens, dtype=np.int64)   # (G, Q, B)
        chosen_scores = np.asarray(step_scores, dtype=np.float64)
        append = chosen_tokens >= 0
        tokens_t = tokens.transpose(1, 0, 2, 3)                   # (G, Q, B, L) view
        lengths_t = lengths.transpose(1, 0, 2)
        scores_t = scores.transpose(1, 0, 2)
        states_t = states.transpose(1, 0, 2, 3)
        finished_t = finished.transpose(1, 0, 2)
        step_states_t = step_states.reshape(shape + (hidden,)).transpose(1, 0, 2, 3)
        gathered_tokens = tokens_t[group_index3, question_index_mid, parents]
        parent_lengths = lengths_t[group_index3, question_index_mid, parents]
        write_at = np.minimum(parent_lengths, max_length - 1)
        write_values = np.where(
            append, chosen_tokens,
            gathered_tokens[group_index3, question_index_mid,
                            beam_index_last, write_at])
        gathered_tokens[group_index3, question_index_mid,
                        beam_index_last, write_at] = write_values
        tokens_t[:] = gathered_tokens
        lengths_t[:] = parent_lengths + append
        scores_t[:] = np.where(
            append, chosen_scores,
            scores_t[group_index3, question_index_mid, parents])
        states_t[:] = np.where(
            append[:, :, :, None],
            step_states_t[group_index3, question_index_mid, parents],
            states_t[group_index3, question_index_mid, parents])
        finished_t[:] = np.where(
            append, chosen_tokens == eos_id,
            finished_t[group_index3, question_index_mid, parents])
        alive[:] = np.asarray(step_alive, dtype=np.int64).T

    _note_decode_stats(stats, steps=steps, beam_rows=beam_rows,
                       questions_compacted=questions_compacted)
    if stats is not None and tag_array is not None:
        per_tag = stats.setdefault("per_tag", {})
        for tag in range(num_tags):
            entry = per_tag.setdefault(int(tag), {})
            entry["steps"] = entry.get("steps", 0) + int(tag_steps[tag])
            entry["beam_rows"] = entry.get("beam_rows", 0) + int(tag_beam_rows[tag])
            entry["questions_compacted"] = (entry.get("questions_compacted", 0)
                                            + int(tag_compacted[tag]))
    # Bank whatever is still resident, then emit every question's beams in
    # the original batch order (compaction may have reordered the grid).
    for question, original in enumerate(question_ids):
        banked[original] = (tokens[question], lengths[question],
                            scores[question], finished[question],
                            alive[question])
    results: list[list[BeamHypothesis]] = []
    for original in range(len(encoded_batch)):
        q_tokens, q_lengths, q_scores, q_finished, q_alive = banked[original]
        groups_out: list[list[_Beam]] = []
        for group in range(num_groups):
            group_beams: list[_Beam] = []
            for beam in range(q_alive[group]):
                length = int(q_lengths[group, beam])
                group_beams.append(_Beam(
                    tokens=q_tokens[group, beam, :length].tolist(),
                    score=float(q_scores[group, beam]),
                    finished=bool(q_finished[group, beam])))
            groups_out.append(group_beams)
        results.append(_finalize_groups(groups_out, eos_id, length_penalty, num_beams))
    return results
