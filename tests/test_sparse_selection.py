"""Sparse selection: the engine ranks only the tokens the constraint allows.

``diverse_beam_search_batch`` never forms a vocabulary-wide selection operand:
a row's candidates are the token ids its constraint state allows (ascending)
and their log-probabilities, gathered once per step.  These tests pin what
that rewrite could silently break, by equality and counts only:

* exact score ties -- a penalised token landing on an unpenalised one's key,
  all-equal rows, rows with fewer allowed ids than a beam may propose,
  allowed tokens at ``-inf`` -- through a stub kernel whose log-probabilities
  are hand-written tables, engine against the loop oracle;
* the ``reach`` lemma behind unconstrained rows (the ``top_n + (G - 1) * B``
  best tokens of a row are all any group can select from), over a sweep of
  budgets with quantised -- hence constantly tying -- random tables;
* a wave mixing shards of different allowed-vocabulary widths against each
  shard decoded alone;
* with every row constrained, no ``np.argsort`` / ``np.where`` outside the
  kernel, and ``ranked_tokens`` equal to the visited states' id counts.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import project_router
from repro.core.router import decode_wave
from repro.nn.decoding import diverse_beam_search_batch, diverse_beam_search_loop
from repro.nn.seq2seq import DecodeKernel, EncodedSource
from repro.nn.tokenizer import WordTokenizer
from repro.obs import Tracer
from reference_constraint import PrefixConstraint
from test_decode_backends import _hypothesis_key, _train_router

BOS, EOS = 0, 1


# ---------------------------------------------------------------------------
# A model whose log-probabilities are a table of (question, prefix).
# ---------------------------------------------------------------------------
class TableModel:
    """Stands in for ``Seq2SeqModel`` on the oracle side: the decoder state
    spells out ``[question, length, *prefix]``, and a step's log-probabilities
    are ``table(question, prefix)`` -- any hand-written doubles."""

    def __init__(self, vocab_size: int, table, max_length: int = 8) -> None:
        self.config = SimpleNamespace(target_vocab_size=vocab_size)
        self.table = table
        self.state_width = max_length + 3

    def encode(self, question: int) -> EncodedSource:
        state = np.zeros(self.state_width)
        state[0] = question
        return EncodedSource(memory=np.zeros((1, 1)), mask=np.ones(1), state=state)

    def decode_step_numpy(self, encoded, state, previous_id):
        state = np.array(state, dtype=np.float64)
        if previous_id != BOS:
            length = int(state[1])
            state[2 + length] = previous_id
            state[1] = length + 1
        prefix = tuple(int(token) for token in state[2:2 + int(state[1])])
        row = np.array(self.table(int(state[0]), prefix), dtype=np.float64)
        assert row.shape == (self.config.target_vocab_size,)
        return row, state


class TableKernel(DecodeKernel):
    """The same table behind the engine's kernel interface, row by row."""

    def __init__(self, model: TableModel) -> None:
        self.model = model
        self.config = model.config

    def input_table(self):
        return None

    def resident_memory(self, encoded_batch):
        return (np.zeros((len(encoded_batch), 1)),)

    def step(self, states, previous_ids, input_table, operands):
        rows = [self.model.decode_step_numpy(None, state, int(previous))
                for state, previous in zip(states, previous_ids)]
        return (np.stack([row for row, _ in rows]),
                np.stack([state for _, state in rows]))


def _constraint(allowed):
    """``allowed(prefix) -> ids`` behind the state protocol (None: none)."""
    return None if allowed is None else PrefixConstraint(allowed)


def _assert_engine_matches_loop(model: TableModel, questions, constraint=None,
                                **budget) -> list:
    """Engine == oracle (tokens, ``score.hex()``, finished), per question;
    ``constraint`` is one for all questions or a list with one entry each."""
    encoded = [model.encode(question) for question in questions]
    per_question = (constraint if isinstance(constraint, list)
                    else [constraint] * len(questions))
    looped = [[_hypothesis_key(h) for h in diverse_beam_search_loop(
        model, (), BOS, EOS, encoded=item, constraint=entry, **budget)]
        for item, entry in zip(encoded, per_question)]
    batched = diverse_beam_search_batch(
        TableKernel(model), encoded, BOS, EOS, constraint=constraint, **budget)
    assert [[_hypothesis_key(h) for h in one] for one in batched] == looped
    return looped


def _root_table(root: dict[int, float], vocab_size: int = 8):
    """``root`` at the empty prefix (other tokens far behind), then a row
    that prefers EOS."""
    def table(question, prefix):
        if not prefix:
            return [root.get(token, -9.0) for token in range(vocab_size)]
        return [-0.25 if token == EOS else -8.0 for token in range(vocab_size)]
    return table


# ---------------------------------------------------------------------------
# (a) Exact ties.
# ---------------------------------------------------------------------------
class TestExactTies:
    """Two groups of one beam, penalty 2.0: group 0 takes the best root
    token, whose penalised key then lands *exactly* on another token's."""

    BUDGET = dict(num_beams=2, num_groups=2, diversity_penalty=2.0, max_length=3)

    @pytest.mark.parametrize("allowed", [None, lambda prefix: range(1, 8),
                                         lambda prefix: (1, 2, 3, 4, 5)],
                             ids=["unconstrained", "all-allowed", "subset"])
    def test_penalised_token_with_the_lower_id_wins_the_tie(self, allowed):
        """Keys for group 1: 2 -> -1 - 2 = -3.0, 3 -> -3.0, 4 -> -2.5.  It may
        propose two: 4, then the tie goes to the lower id -- the penalised 2,
        whose unpenalised score then wins the group.  Both groups say 2."""
        model = TableModel(8, _root_table({2: -1.0, 3: -3.0, 4: -2.5}))
        (hypotheses,) = _assert_engine_matches_loop(
            model, [0], _constraint(allowed), **self.BUDGET)
        assert [tokens for tokens, _, _ in hypotheses] == [(2,)]

    @pytest.mark.parametrize("allowed", [None, lambda prefix: range(1, 8),
                                         lambda prefix: (1, 3, 4, 5)],
                             ids=["unconstrained", "all-allowed", "subset"])
    def test_unpenalised_token_with_the_lower_id_wins_the_tie(self, allowed):
        """Mirror image: the chosen token is 5, so the tie at -3.0 goes to
        the unpenalised 3, group 1 proposes {4, 3} and takes 4."""
        model = TableModel(8, _root_table({5: -1.0, 3: -3.0, 4: -2.5}))
        (hypotheses,) = _assert_engine_matches_loop(
            model, [0], _constraint(allowed), **self.BUDGET)
        assert [tokens for tokens, _, _ in hypotheses] == [(5,), (4,)]

    @pytest.mark.parametrize("num_beams,num_groups,penalty",
                             [(1, 1, 0.0), (3, 1, 0.0), (4, 2, 1.0), (6, 3, 2.0),
                              (6, 6, 0.5), (4, 4, 0.0)])
    @pytest.mark.parametrize("allowed", [None, lambda prefix: range(1, 6)],
                             ids=["unconstrained", "constrained"])
    def test_all_equal_rows(self, num_beams, num_groups, penalty, allowed):
        """Every token of every row at the same value: nothing but the
        lowest-token-id-first rule decides, at every step."""
        model = TableModel(6, lambda question, prefix: [-1.5] * 6)
        _assert_engine_matches_loop(
            model, [0, 1], _constraint(allowed), num_beams=num_beams,
            num_groups=num_groups, diversity_penalty=penalty, max_length=4)

    @pytest.mark.parametrize("num_beams,num_groups,penalty",
                             [(2, 1, 0.0), (4, 2, 2.0), (6, 2, 1.0)])
    def test_fewer_allowed_ids_than_a_beam_may_propose(self, num_beams,
                                                       num_groups, penalty):
        """One forced token at the root, two after it: every ranking is
        shorter than ``top_n`` (4 or 6 here)."""
        def allowed(prefix):
            return (3,) if not prefix else (EOS, 4)

        model = TableModel(6, lambda question, prefix:
                           [-3.0, -1.0, -2.0, -0.5, -1.0, -0.125])
        looped = _assert_engine_matches_loop(
            model, [0, 1], _constraint(allowed), num_beams=num_beams,
            num_groups=num_groups, diversity_penalty=penalty, max_length=4)
        assert all(tokens[0] == 3 for one in looped for tokens, _, _ in one)

    @pytest.mark.parametrize("num_beams,num_groups,penalty",
                             [(1, 1, 0.0), (4, 2, 2.0), (6, 3, 1.0)])
    @pytest.mark.parametrize("allowed", [None, lambda prefix: (1, 2, 3, 4)],
                             ids=["unconstrained", "constrained"])
    def test_allowed_token_at_minus_infinity(self, num_beams, num_groups,
                                             penalty, allowed):
        """The kernel closes an allowed token (``-inf``), and below prefix
        ``(4,)`` every token: the beam there is a dead end that rests."""
        def table(question, prefix):
            if prefix == (4,):
                return [-math.inf] * 6
            return [-5.0, -1.0, -0.5, -math.inf, -0.75, -math.inf]

        model = TableModel(6, table)
        looped = _assert_engine_matches_loop(
            model, [0], _constraint(allowed), num_beams=num_beams,
            num_groups=num_groups, diversity_penalty=penalty, max_length=3)
        assert not any(3 in tokens or 5 in tokens
                       for one in looped for tokens, _, _ in one)


# ---------------------------------------------------------------------------
# (b) The reach lemma: quantised random tables tie constantly.
# ---------------------------------------------------------------------------
def _random_table(seed: int, vocab_size: int):
    """Log-probabilities on a half-integer lattice (penalties of 0.5, 1 and 2
    land exactly on other keys), an occasional ``-inf``."""
    def table(question, prefix):
        rng = np.random.default_rng([seed, question, len(prefix), *prefix])
        row = -0.5 * rng.integers(0, 6, size=vocab_size).astype(np.float64)
        row[rng.random(vocab_size) < 0.1] = -math.inf
        return row
    return table


def _random_allowed(seed: int, vocab_size: int):
    def allowed(prefix):
        rng = np.random.default_rng([seed + 1, len(prefix), *prefix])
        ids = np.flatnonzero(rng.random(vocab_size) < 0.4).tolist()
        return tuple(ids) or (EOS,)
    return allowed


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), vocab_size=st.integers(3, 12),
       constrained=st.lists(st.booleans(), min_size=1, max_size=4),
       num_groups=st.integers(1, 4), beams_per_group=st.integers(1, 3),
       penalty=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       max_length=st.integers(1, 5))
# V < reach (4 + 3 * 2 = 10), G * B >= V, and no penalty at all.
@example(seed=1, vocab_size=4, constrained=[False, True, False], num_groups=4,
         beams_per_group=2, penalty=1.0, max_length=4)
@example(seed=2, vocab_size=6, constrained=[False, False], num_groups=3,
         beams_per_group=2, penalty=0.5, max_length=3)
@example(seed=3, vocab_size=9, constrained=[False, True], num_groups=3,
         beams_per_group=2, penalty=0.0, max_length=4)
def test_reach_lemma_sweep(seed, vocab_size, constrained, num_groups,
                           beams_per_group, penalty, max_length):
    """Unconstrained, and mixed constrained / unconstrained batches (the
    per-question wave form): ranking a row's ``reach`` best loses nothing."""
    model = TableModel(vocab_size, _random_table(seed, vocab_size))
    constraint = PrefixConstraint(_random_allowed(seed, vocab_size))
    constraints = [constraint if flag else None for flag in constrained]
    _assert_engine_matches_loop(
        model, list(range(len(constrained))),
        None if not any(constrained) else constraints,
        num_beams=num_groups * beams_per_group, num_groups=num_groups,
        diversity_penalty=penalty, max_length=max_length)


def test_a_constraint_may_leave_states_open():
    """A constraint answering ``None`` ("unconstrained here") for some
    states: those rows take the numeric path, step by step."""
    allowed = _random_allowed(5, 9)
    model = TableModel(9, _random_table(5, 9))
    _assert_engine_matches_loop(
        model, [0, 1, 2],
        PrefixConstraint(lambda prefix: None if len(prefix) % 2 else allowed(prefix)),
        num_beams=6, num_groups=3, diversity_penalty=1.0, max_length=5)


# ---------------------------------------------------------------------------
# (c) / (e) The real kernel: mixed-width waves, and what a decode calls.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained():
    router, questions = _train_router(47, 5)
    tokenizer = WordTokenizer(router.source_vocabulary)
    encoded = router.model.encode_numpy_batch(
        [tokenizer.encode_text(question,
                               max_length=router.config.max_source_length)
         for question in questions[:6]],
        pad_id=router.source_vocabulary.pad_id)
    return router, encoded


def test_wave_of_mixed_vocabulary_widths_equals_each_shard_alone(trained):
    """Two shard projections whose constraints allow different vocabulary
    widths, in one ``DecodeKernel(router.model)`` wave: a row ranks only
    what its own shard allows, so every (shard, question) decodes exactly as
    in a wave of its shard alone."""
    router, encoded = trained
    databases = list(router.graph.catalog.database_names)
    shards = [project_router(router, split, router.config)
              for split in (databases[:1], databases[1:])]
    assert all(shard.model is router.model for shard in shards)
    widths = [len(shard.constraint.allowed_ids_for_state(
        shard.constraint.initial_state())) for shard in shards]
    assert widths[0] < widths[1]

    def decode(routers, tags, batch):
        """Hypothesis keys and the decode span's counters of one wave."""
        trace = Tracer().start_trace("wave")
        decoded = decode_wave(kernel, routers, tags, batch, traces=[trace])
        (span,) = trace.find_spans("decode")
        trace.finish()
        return ([[_hypothesis_key(h) for h in one] for one in decoded],
                span.attributes)

    kernel = DecodeKernel(router.model)
    alone, counters = [], []
    for shard in shards:
        keys, attributes = decode([shard], [0] * len(encoded), encoded)
        alone += keys
        counters.append(attributes)
    tags = [0] * len(encoded) + [1] * len(encoded)
    mixed, attributes = decode(shards, tags, encoded + encoded)
    assert mixed == alone
    assert all(one for one in mixed)
    for counter in ("beam_rows", "live_beams", "ranked_tokens"):
        assert attributes[counter] == sum(entry[counter] for entry in counters)
    assert attributes["ranked_tokens"] > 0
    # A question finishing with the last of its shard's batch is compacted
    # only when the other shard's rows outlive it.
    assert attributes["questions_compacted"] >= sum(
        entry["questions_compacted"] for entry in counters)


def test_constrained_decode_never_sorts_or_masks_the_vocabulary(trained,
                                                                monkeypatch):
    """Every row constrained: outside ``DecodeKernel.step`` a decode calls
    ``np.argsort`` and ``np.where`` zero times, resolves its constraint once
    per kernel row, and ``ranked_tokens`` is the visited states' id count."""
    router, encoded = trained
    constraint = router.constraint
    vocabulary = router.target_vocabulary
    in_kernel = [False]
    calls = {"argsort": 0, "where": 0}

    def counting(name):
        original = getattr(np, name)

        def spy(*args, **kwargs):
            if not in_kernel[0]:
                calls[name] += 1
            return original(*args, **kwargs)
        return spy

    original_step = DecodeKernel.step

    def step(self, *args, **kwargs):
        in_kernel[0] = True
        try:
            return original_step(self, *args, **kwargs)
        finally:
            in_kernel[0] = False

    widths: list[int] = []
    original_ids = constraint.allowed_ids_for_state

    def ids_for_state(state):
        ids = original_ids(state)
        widths.append(len(ids))
        return ids

    monkeypatch.setattr(np, "argsort", counting("argsort"))
    monkeypatch.setattr(np, "where", counting("where"))
    monkeypatch.setattr(DecodeKernel, "step", step)
    monkeypatch.setattr(constraint, "allowed_ids_for_state", ids_for_state)
    resolved = constraint.mask_cache_hits + constraint.mask_cache_misses
    stats: dict = {}
    hypotheses = diverse_beam_search_batch(
        router.model, encoded, vocabulary.bos_id, vocabulary.eos_id,
        num_beams=6, num_groups=3, diversity_penalty=2.0, max_length=20,
        constraint=constraint, stats=stats)
    assert all(hypotheses)
    assert calls == {"argsort": 0, "where": 0}
    assert stats["ranked_tokens"] == sum(widths)
    assert stats["beam_rows"] == len(widths) == (
        constraint.mask_cache_hits + constraint.mask_cache_misses - resolved)
    assert stats["ranked_tokens"] < stats["beam_rows"] * len(vocabulary)
    # The ablation does sort -- once per step, over its unconstrained rows.
    open_stats: dict = {}
    diverse_beam_search_batch(
        router.model, encoded, vocabulary.bos_id, vocabulary.eos_id,
        num_beams=6, num_groups=3, diversity_penalty=2.0, max_length=20,
        stats=open_stats)
    assert calls == {"argsort": open_stats["steps"], "where": 0}
    reach = 4 + 2 * 2
    assert open_stats["ranked_tokens"] == open_stats["beam_rows"] * reach
