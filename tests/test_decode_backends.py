"""Differential tests: the vectorized decode backend vs. the loop reference.

The contract under test is *bit-identity*: for any catalog, seed, batch size,
and beam budget, ``decode_backend="vectorized"`` must return exactly the
hypotheses of ``decode_backend="loop"`` -- token-for-token the same sequences
with double-for-double the same scores (compared via C99 hex formatting, so
not a single bit may drift).  Everything downstream -- route caches, shard
merges, cross-process agreement -- leans on this property.
"""

from __future__ import annotations

import functools
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import SchemaGraph
from repro.core.questioner import TemplateQuestioner
from repro.core.router import RouterConfig, SchemaRouter
from repro.core.sampling import SchemaSampler
from repro.core.synthesis import SynthesisConfig, synthesize_training_data
from repro.datasets import CollectionConfig, build_collection
import repro.nn.decoding as decoding
from repro.nn.decoding import diverse_beam_search_batch, diverse_beam_search_loop
from repro.nn.seq2seq import (
    DecodeKernel,
    Seq2SeqConfig,
    Seq2SeqModel,
    head_log_softmax,
)
from repro.nn.tokenizer import WordTokenizer, build_vocabulary
from repro.nn.trainer import Seq2SeqTrainer, TrainerConfig
from reference_constraint import PrefixConstraint
from test_constrained_incremental import _build as _build_graph_constraint


def _hypothesis_key(hypothesis):
    return (tuple(hypothesis.tokens), hypothesis.score.hex(), hypothesis.finished)


def _route_key(routes):
    return [(route.database, route.tables, route.score.hex()) for route in routes]


# ---------------------------------------------------------------------------
# Raw engine level: a toy Seq2Seq model, no router on top.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def toy_model():
    source_vocab = build_vocabulary(
        ["alpha beta", "gamma delta", "epsilon zeta", "eta theta kappa"])
    target_vocab = build_vocabulary(
        [], extra_tokens=["one", "two", "three", "four", "five", "six"])
    source_tokenizer = WordTokenizer(source_vocab)
    target_tokenizer = WordTokenizer(target_vocab)
    data = [("alpha beta", ["one", "two"]),
            ("gamma delta", ["three"]),
            ("epsilon zeta", ["four", "one"]),
            ("eta theta kappa", ["five", "two", "one"])]
    pairs = [(source_tokenizer.encode_text(question),
              target_tokenizer.encode_tokens(target))
             for question, target in data]
    model = Seq2SeqModel(Seq2SeqConfig(len(source_vocab), len(target_vocab),
                                       embedding_dim=16, hidden_dim=24, seed=3))
    Seq2SeqTrainer(model, TrainerConfig(epochs=30, batch_size=4,
                                        learning_rate=0.02, seed=3)).train(pairs)
    questions = [question for question, _ in data] + ["alpha delta", "zeta beta theta"]
    encoded = model.encode_numpy_batch(
        [source_tokenizer.encode_text(question) for question in questions])
    return model, target_vocab, encoded


#: The last one is the paper's: 10 beams in 10 groups, penalty 2.0 (§4.1.5).
BUDGETS = [(1, 1, 0.0), (4, 1, 0.0), (4, 2, 2.0), (6, 3, 1.5), (6, 6, 2.0),
           (10, 10, 2.0)]


class TestEngineDifferential:
    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_batch_matches_loop_unconstrained(self, toy_model, num_beams,
                                              num_groups, penalty):
        model, vocabulary, encoded = toy_model
        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=num_groups,
            diversity_penalty=penalty, max_length=8)
        for item, one in zip(encoded, batched):
            looped = diverse_beam_search_loop(
                model, (), vocabulary.bos_id, vocabulary.eos_id,
                num_beams=num_beams, num_groups=num_groups,
                diversity_penalty=penalty, max_length=8, encoded=item)
            assert [_hypothesis_key(h) for h in one] == \
                [_hypothesis_key(h) for h in looped]

    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_batch_matches_loop_constrained(self, toy_model, num_beams,
                                            num_groups, penalty):
        """A synthetic constraint (even ids after even-length prefixes)."""
        model, vocabulary, encoded = toy_model
        size = model.config.target_vocab_size

        @PrefixConstraint
        def constraint(prefix):
            parity = len(prefix) % 2
            return {token for token in range(size) if token % 2 == parity} \
                | {vocabulary.eos_id}

        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=num_groups,
            diversity_penalty=penalty, max_length=8, constraint=constraint)
        for item, one in zip(encoded, batched):
            looped = diverse_beam_search_loop(
                model, (), vocabulary.bos_id, vocabulary.eos_id,
                num_beams=num_beams, num_groups=num_groups,
                diversity_penalty=penalty, max_length=8,
                constraint=constraint, encoded=item)
            assert [_hypothesis_key(h) for h in one] == \
                [_hypothesis_key(h) for h in looped]

    def test_empty_batch(self, toy_model):
        model, vocabulary, _ = toy_model
        assert diverse_beam_search_batch(model, [], vocabulary.bos_id,
                                         vocabulary.eos_id) == []

    def test_invalid_budget_rejected(self, toy_model):
        model, vocabulary, encoded = toy_model
        with pytest.raises(ValueError):
            diverse_beam_search_batch(model, encoded, vocabulary.bos_id,
                                      vocabulary.eos_id, num_beams=5, num_groups=3)

    def test_beam_budget_wider_than_vocabulary(self, toy_model):
        """top_n clamps at V: a beam budget wider than the target vocabulary
        must decode (matching the loop backend's slice-truncation), not
        overrun the candidate rows."""
        model, vocabulary, encoded = toy_model
        vocab_size = model.config.target_vocab_size
        num_beams = vocab_size + 4  # top_n would exceed V unclamped
        batched = diverse_beam_search_batch(
            DecodeKernel(model), encoded[:2],
            vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=1, max_length=6)
        looped = [diverse_beam_search_loop(
            model, (), vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=1, max_length=6, encoded=item)
            for item in encoded[:2]]
        for one, reference in zip(batched, looped):
            assert [_hypothesis_key(h) for h in one] == \
                [_hypothesis_key(h) for h in reference]

    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_constraint_left_open_after_the_first_step(self, toy_model, num_beams,
                                                       num_groups, penalty):
        """A constraint that restricts only the first step and answers
        ``None`` ("unconstrained") afterwards: no restrictive mask outlives
        its step in the engine's resident grid, so the search answers to the
        bit like the loop oracle."""
        model, vocabulary, encoded = toy_model

        @PrefixConstraint
        def constraint(prefix):
            return {3, 5, vocabulary.eos_id} if not prefix else None

        budget = dict(num_beams=num_beams, num_groups=num_groups,
                      diversity_penalty=penalty, max_length=8)
        looped, _ = _loop_reference(model, vocabulary, encoded,
                                    constraint=constraint, **budget)
        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            constraint=constraint, **budget)
        assert [[_hypothesis_key(h) for h in one] for one in batched] == looped
        assert {key[0][0] for one in looped for key in one if key[0]} \
            <= {3, 5}
        assert any(len(key[0]) > 1 for one in looped for key in one)

    @pytest.mark.parametrize("num_beams,num_groups,penalty",
                             [(1, 1, 0.0), (4, 2, 2.0), (6, 6, 2.0)])
    def test_straggler_compacts_mid_search_and_pads(self, toy_model, num_beams,
                                                    num_groups, penalty):
        """One long question among short ones: the short ones finish and are
        compacted out of the grid mid-search while the long one pads their
        memories along ``T`` -- the row-stable kernel still answers to the bit
        like the loop oracle (which decodes each question alone)."""
        model, vocabulary, encoded = toy_model
        short, long = encoded[1], encoded[3]
        assert long.memory.shape[0] > short.memory.shape[0]
        batch = [short, long, short, encoded[0], short]
        budget = dict(num_beams=num_beams, num_groups=num_groups,
                      diversity_penalty=penalty, max_length=8)
        stats: dict = {}
        batched = diverse_beam_search_batch(
            model, batch, vocabulary.bos_id, vocabulary.eos_id, stats=stats,
            **budget)
        assert stats["questions_compacted"] == 4  # all but the straggler
        for item, one in zip(batch, batched):
            looped = diverse_beam_search_loop(
                model, (), vocabulary.bos_id, vocabulary.eos_id, encoded=item,
                **budget)
            assert [_hypothesis_key(h) for h in one] == \
                [_hypothesis_key(h) for h in looped]

    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_replay_reproduces_decode_scores_to_the_bit(self, toy_model, num_beams,
                                                        num_groups, penalty):
        """A hypothesis's score is its sequence's log-probability under the
        model, whatever the diversity penalty did to the ranking:
        teacher-forced replay of every hypothesis (with its trailing EOS when
        finished) through one ``DecodeKernel`` step per token sums to the
        decode score, ``float.hex``-equal, whatever the other sequences
        sharing the replay."""
        model, vocabulary, encoded = toy_model
        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=num_groups,
            diversity_penalty=penalty, max_length=8)
        rows = [(item, h) for item, one in zip(encoded, batched) for h in one]
        sequences = [h.tokens + [vocabulary.eos_id] if h.finished else list(h.tokens)
                     for _, h in rows]
        kernel = DecodeKernel(model)
        operands = kernel.resident_memory([item for item, _ in rows])
        states = np.stack([item.state for item, _ in rows])
        previous = np.full(len(rows), vocabulary.bos_id, dtype=np.int64)
        replayed = np.zeros(len(rows))
        for step in range(max(len(sequence) for sequence in sequences)):
            log_probabilities, states = kernel.step(states, previous,
                                                    kernel.input_table(), operands)
            active = np.asarray([step < len(sequence) for sequence in sequences])
            targets = np.asarray([sequence[step] if step < len(sequence)
                                  else vocabulary.pad_id for sequence in sequences],
                                 dtype=np.int64)
            replayed[active] += log_probabilities[np.arange(len(rows)), targets][active]
            previous = targets
        assert [float(score).hex() for score in replayed] == \
            [h.score.hex() for _, h in rows]

    def test_kernel_steps_its_one_model(self, toy_model):
        """``DecodeKernel(model)`` gathers from the model's own target
        embedding and steps any stacking of rows to the doubles of the
        model's batched step, and each row to those of the loop oracle's
        one-beam step over its unpadded memory."""
        model, _, encoded = toy_model
        kernel = DecodeKernel(model)
        assert kernel.input_table() is model.target_embedding.weight.data
        rng = np.random.default_rng(7)
        rows = [encoded[int(index)] for index in rng.integers(0, len(encoded), size=11)]
        memory, memory_mask = kernel.resident_memory(rows)
        states = np.stack([item.state for item in rows])
        previous = rng.integers(0, model.config.target_vocab_size, size=len(rows))
        log_probabilities, new_states = kernel.step(
            states, previous, kernel.input_table(), (memory, memory_mask))
        expected_log_probabilities, expected_states = model.decode_step_numpy_batch(
            memory[:, :, :-1], memory_mask, states, previous)
        np.testing.assert_array_equal(log_probabilities, expected_log_probabilities)
        np.testing.assert_array_equal(new_states, expected_states)
        for row, item in enumerate(rows):
            alone_log_probabilities, alone_state = model.decode_step_numpy(
                item, states[row], int(previous[row]))
            np.testing.assert_array_equal(log_probabilities[row], alone_log_probabilities)
            np.testing.assert_array_equal(new_states[row], alone_state)

    def test_one_engine_is_not_a_knob(self):
        """One oracle, one batched engine; its numerics come in as a kernel
        object, never as a string selecting between engines."""
        assert "kernel" not in inspect.signature(
            diverse_beam_search_batch).parameters
        searches = {name for name, value in vars(decoding).items()
                    if inspect.isfunction(value)
                    and value.__module__ == decoding.__name__
                    and "diverse_beam_search_" in name}
        assert searches == {"diverse_beam_search_loop", "diverse_beam_search_batch"}

    def test_one_kernel_numerics_is_not_a_knob(self):
        """The kernel and the head have one numerics: nothing selects
        between an exact trunk and another one."""
        assert list(inspect.signature(DecodeKernel).parameters) == ["model"]
        assert "tags" not in inspect.signature(DecodeKernel.step).parameters
        assert list(inspect.signature(head_log_softmax).parameters) == \
            ["combined", "weight", "bias"]
        trunks = {name for name in vars(Seq2SeqModel) if "trunk" in name}
        assert trunks == {"decode_trunk_numpy_batch"}

    def test_batch_composition_invariance(self, toy_model):
        """A question decodes identically alone, in pairs, and in the full
        batch -- the property route caches and shard merges rely on."""
        model, vocabulary, encoded = toy_model
        full = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=4, num_groups=2, max_length=8)
        for index, item in enumerate(encoded):
            alone = diverse_beam_search_batch(
                model, [item], vocabulary.bos_id, vocabulary.eos_id,
                num_beams=4, num_groups=2, max_length=8)[0]
            assert [_hypothesis_key(h) for h in alone] == \
                [_hypothesis_key(h) for h in full[index]]
        pair = diverse_beam_search_batch(
            model, [encoded[-1], encoded[0]], vocabulary.bos_id, vocabulary.eos_id,
            num_beams=4, num_groups=2, max_length=8)
        assert [_hypothesis_key(h) for h in pair[0]] == \
            [_hypothesis_key(h) for h in full[-1]]
        assert [_hypothesis_key(h) for h in pair[1]] == \
            [_hypothesis_key(h) for h in full[0]]


# ---------------------------------------------------------------------------
# Prefix-shared rows: the kernel advances each distinct live (question, prefix)
# once; ``beam_rows`` counts those rows, ``live_beams`` the beams they served.
# ---------------------------------------------------------------------------
def _loop_reference(model, vocabulary, encoded, constraint=None, stats=None,
                    **budget):
    """Per-question loop-oracle hypothesis keys, and the oracle's counters."""
    stats = {} if stats is None else stats
    keys = [[_hypothesis_key(h) for h in diverse_beam_search_loop(
        model, (), vocabulary.bos_id, vocabulary.eos_id, encoded=item,
        constraint=constraint, stats=stats, **budget)] for item in encoded]
    return keys, stats


class TestPrefixSharedRows:
    @pytest.mark.parametrize("num_beams,num_groups", [(4, 2), (6, 3), (6, 6)])
    def test_identical_groups_cost_one_groups_rows(self, toy_model, num_beams,
                                                   num_groups):
        """Without a diversity penalty every group makes the same choices, so
        the whole grid rides on one group's rows."""
        model, vocabulary, encoded = toy_model
        budget = dict(num_beams=num_beams, num_groups=num_groups,
                      diversity_penalty=0.0, max_length=8)
        looped, loop_stats = _loop_reference(model, vocabulary, encoded, **budget)
        stats: dict = {}
        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id, stats=stats,
            **budget)
        assert [[_hypothesis_key(h) for h in one] for one in batched] == looped
        assert stats["live_beams"] == loop_stats["beam_rows"]
        assert stats["beam_rows"] * num_groups == loop_stats["beam_rows"]

    @pytest.mark.parametrize("beams_per_group", [1, 3])
    def test_one_group_shares_nothing_and_rides_nothing(self, toy_model,
                                                        beams_per_group):
        """One group's beams are distinct prefixes: the kernel advances
        exactly the oracle's rows -- no finished, unused or duplicate slot."""
        model, vocabulary, encoded = toy_model
        budget = dict(num_beams=beams_per_group, num_groups=1,
                      diversity_penalty=0.0, max_length=8)
        _, loop_stats = _loop_reference(model, vocabulary, encoded, **budget)
        stats: dict = {}
        diverse_beam_search_batch(model, encoded, vocabulary.bos_id,
                                  vocabulary.eos_id, stats=stats, **budget)
        assert stats["beam_rows"] == stats["live_beams"] == loop_stats["beam_rows"]

    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_live_beams_is_the_oracles_row_count(self, toy_model, num_beams,
                                                 num_groups, penalty):
        model, vocabulary, encoded = toy_model
        budget = dict(num_beams=num_beams, num_groups=num_groups,
                      diversity_penalty=penalty, max_length=8)
        _, loop_stats = _loop_reference(model, vocabulary, encoded, **budget)
        stats: dict = {}
        diverse_beam_search_batch(model, encoded, vocabulary.bos_id,
                                  vocabulary.eos_id, stats=stats, **budget)
        assert stats["live_beams"] == loop_stats["beam_rows"]
        assert stats["steps"] <= stats["beam_rows"] <= stats["live_beams"]

    def test_tagged_rows_never_span_shards(self, toy_model):
        """The same questions as two shards' rows of one model, each with its
        own constraint entry: every (shard, question) keeps its own rows, so
        the wave's flat counters are the sum over each shard decoded alone."""
        model, vocabulary, encoded = toy_model
        budget = dict(num_beams=6, num_groups=3, diversity_penalty=0.0,
                      max_length=8)
        alone: dict = {}
        expected = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id, stats=alone,
            **budget)
        stats: dict = {}
        waved = diverse_beam_search_batch(
            DecodeKernel(model), encoded + encoded, vocabulary.bos_id,
            vocabulary.eos_id, constraint=[None] * (2 * len(encoded)),
            stats=stats, **budget)
        keys = [[_hypothesis_key(h) for h in one] for one in expected]
        assert [[_hypothesis_key(h) for h in one] for one in waved] == keys + keys
        for counter in ("beam_rows", "live_beams", "ranked_tokens",
                        "questions_compacted"):
            assert stats[counter] == 2 * alone[counter]
        assert stats["steps"] == alone["steps"]

    @pytest.mark.parametrize("num_beams,num_groups,penalty",
                             [(1, 1, 0.0), (4, 2, 2.0), (6, 6, 2.0)])
    def test_group_without_candidates_rests(self, toy_model, num_beams,
                                            num_groups, penalty):
        """A constraint that closes every token after some prefixes: the
        stuck beams come back unfinished, exactly as the oracle reports them
        (it re-derives the dead end every remaining step; the engine stops)."""
        model, vocabulary, encoded = toy_model
        size = model.config.target_vocab_size

        @PrefixConstraint
        def dead_ends(prefix):
            return () if len(prefix) >= 2 and prefix[0] % 2 == 0 else range(size)

        budget = dict(num_beams=num_beams, num_groups=num_groups,
                      diversity_penalty=penalty, max_length=8)
        looped, _ = _loop_reference(model, vocabulary, encoded,
                                    constraint=dead_ends, **budget)
        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            constraint=dead_ends, **budget)
        assert [[_hypothesis_key(h) for h in one] for one in batched] == looped
        assert any(not key[2] and len(key[0]) == 2
                   for one in looped for key in one)


#: Tiny seeded catalogs behind their graph constraints, built once each.
_graph_constraint = functools.lru_cache(maxsize=None)(_build_graph_constraint)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), num_databases=st.integers(1, 3),
       budget=st.sampled_from(BUDGETS + [(3, 1, 0.0), (8, 4, 0.5), (6, 3, 0.0)]),
       batch=st.lists(st.tuples(st.integers(0, 6), st.booleans()),
                      min_size=1, max_size=5))
def test_batch_matches_loop_property(seed, num_databases, budget, batch):
    """Any tiny random model, catalog, budget and batch of (source length,
    constrained?) questions: the engine returns the loop oracle's tokens and
    ``score.hex()``, and serves exactly its beams."""
    graph_constraint = _graph_constraint(seed % 5, num_databases)
    vocabulary = graph_constraint.vocabulary
    model = Seq2SeqModel(Seq2SeqConfig(12, len(vocabulary), embedding_dim=8,
                                       hidden_dim=12, seed=seed))
    rng = np.random.default_rng(seed)
    encoded = model.encode_numpy_batch(
        [rng.integers(0, 12, size=length).tolist() for length, _ in batch])
    constraints = [graph_constraint if constrained else None
                   for _, constrained in batch]
    num_beams, num_groups, penalty = budget
    search = dict(num_beams=num_beams, num_groups=num_groups,
                  diversity_penalty=penalty, max_length=10)
    looped, loop_stats = [], {}
    for item, constraint in zip(encoded, constraints):
        looped += _loop_reference(model, vocabulary, [item], constraint,
                                  stats=loop_stats, **search)[0]
    stats: dict = {}
    batched = diverse_beam_search_batch(
        model, encoded, vocabulary.bos_id, vocabulary.eos_id, stats=stats,
        # One shared constraint takes the scalar form, a mix the per-question
        # (wave) form.
        constraint=(constraints[0] if len(set(constraints)) == 1
                    else constraints), **search)
    assert [[_hypothesis_key(h) for h in one] for one in batched] == looped
    assert stats["live_beams"] == loop_stats["beam_rows"]
    assert stats["beam_rows"] <= stats["live_beams"]


# ---------------------------------------------------------------------------
# Router level: trained routers over synthetic catalogs, graph constraints on.
# ---------------------------------------------------------------------------
def _train_router(seed: int, num_databases: int, **config_changes) -> tuple:
    dataset = build_collection(CollectionConfig(
        name=f"diff-{seed}", num_databases=num_databases, rows_per_table=8,
        examples_per_database=6, seed=seed))
    graph = SchemaGraph.from_catalog(dataset.catalog)
    questioner = TemplateQuestioner(catalog=dataset.catalog, seed=seed)
    sampler = SchemaSampler(graph, seed=seed)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=150))
    config = RouterConfig(epochs=6, embedding_dim=20, hidden_dim=32,
                          num_beams=6, beam_groups=6, seed=seed, **config_changes)
    router = SchemaRouter(graph=graph, config=config)
    router.fit(report.examples)
    questions = [example.question for example in report.examples]
    return router, questions


def _loop_twin(router: SchemaRouter) -> SchemaRouter:
    """The same trained weights behind the loop reference backend."""
    twin = SchemaRouter(graph=router.graph,
                        config=router.config.ablated(decode_backend="loop"))
    twin.restore(router.model, router.source_vocabulary, router.target_vocabulary,
                 router.training_losses)
    return twin


@pytest.fixture(scope="module", params=[(11, 5), (29, 8)],
                ids=["catalog-small", "catalog-wide"])
def trained_pair(request):
    seed, num_databases = request.param
    router, questions = _train_router(seed, num_databases)
    return router, _loop_twin(router), questions


class TestRouterDifferential:
    @pytest.mark.parametrize("batch_size", [1, 2, 5, 9])
    def test_backends_bit_identical_across_batch_sizes(self, trained_pair, batch_size):
        router, loop_router, questions = trained_pair
        rng = np.random.default_rng(batch_size)
        picked = [questions[int(i)] for i in
                  rng.integers(0, len(questions), size=batch_size)]
        vectorized = router.route_batch(picked)
        looped = loop_router.route_batch(picked)
        assert [_route_key(r) for r in vectorized] == [_route_key(r) for r in looped]

    @pytest.mark.parametrize("num_beams,beam_groups", [(1, 1), (4, 2), (6, 3), (6, 6),
                                                       (8, 1), (10, 5), (10, 10)])
    def test_backends_bit_identical_across_beam_budgets(self, trained_pair,
                                                        num_beams, beam_groups):
        router, _, questions = trained_pair
        vec = SchemaRouter(graph=router.graph, config=router.config.ablated(
            num_beams=num_beams, beam_groups=beam_groups))
        vec.restore(router.model, router.source_vocabulary, router.target_vocabulary)
        looped = _loop_twin(vec)
        picked = questions[:6]
        assert [_route_key(r) for r in vec.route_batch(picked)] == \
            [_route_key(r) for r in looped.route_batch(picked)]

    def test_backends_agree_without_constraint_or_diversity(self):
        router, questions = _train_router(17, 4, constrained_decoding=False,
                                          diverse_beam=False)
        looped = _loop_twin(router)
        picked = questions[:8]
        assert [_route_key(r) for r in router.route_batch(picked)] == \
            [_route_key(r) for r in looped.route_batch(picked)]

    @pytest.mark.parametrize("backend", ["vectorized", "loop"])
    def test_decode_counters_are_flat_on_the_one_shard_path(self, trained_pair,
                                                            backend):
        """``route_batch``'s decode span carries the engine counters flat,
        with ``live_beams``, ``ranked_tokens`` and ``questions_compacted``
        under every batched backend, and names its own backend."""
        from repro.obs import Tracer

        router, _, questions = trained_pair
        twin = SchemaRouter(graph=router.graph,
                            config=router.config.ablated(decode_backend=backend))
        twin.restore(router.model, router.source_vocabulary,
                     router.target_vocabulary)
        trace = Tracer().start_trace("request")
        twin.route_batch(questions[:5], traces=[trace] * 5)
        batched = ({"live_beams", "ranked_tokens", "questions_compacted"}
                   if backend != "loop" else set())
        (span,) = trace.find_spans("decode")
        assert span.attributes["backend"] == backend
        assert set(span.attributes) == {
            "backend", "questions", "mask_cache_hits", "mask_cache_misses",
            "constraint_states", "steps", "beam_rows"
        } | batched
        trace.finish()

    def test_route_matches_route_batch(self, trained_pair):
        router, _, questions = trained_pair
        picked = questions[:5]
        batched = router.route_batch(picked)
        for question, expected in zip(picked, batched):
            assert _route_key(router.route(question)) == _route_key(expected)

    def test_routes_independent_of_batch_composition(self, trained_pair):
        """End to end (encode + decode), a question's routes are bit-identical
        no matter which micro-batch it rides in -- the property the route
        cache and cross-shard merging lean on."""
        router, _, questions = trained_pair
        target = questions[0]
        alone = router.route_batch([target])[0]
        shuffled = router.route_batch(questions[3:8] + [target, questions[1]])[5]
        assert _route_key(alone) == _route_key(shuffled)

    def test_empty_and_whitespace_questions_route(self, trained_pair):
        """Empty input takes the defined pad path on both backends."""
        router, loop_router, questions = trained_pair
        batch = ["", "   ", questions[0], "\t\n"]
        vectorized = router.route_batch(batch)
        looped = loop_router.route_batch(batch)
        assert [_route_key(r) for r in vectorized] == [_route_key(r) for r in looped]
        # Blank questions all reduce to the same pad-token encoding.
        assert _route_key(vectorized[0]) == _route_key(vectorized[1])
        assert _route_key(vectorized[0]) == _route_key(vectorized[3])

    def test_checkpoint_round_trips_decode_backend(self, trained_pair, tmp_path):
        from repro.serving.checkpoint import load_router, save_router

        router, loop_router, questions = trained_pair
        save_router(loop_router, tmp_path / "loop-ckpt")
        restored = load_router(tmp_path / "loop-ckpt")
        assert restored.config.decode_backend == "loop"
        picked = questions[:4]
        assert [_route_key(r) for r in restored.route_batch(picked)] == \
            [_route_key(r) for r in router.route_batch(picked)]

    @pytest.mark.parametrize("edit", [{"decode_backend": "turbo"}, {"beam_width": 4}])
    def test_bad_manifest_router_config_is_a_checkpoint_error(self, trained_pair,
                                                              tmp_path, edit):
        """An unknown key or value in a router manifest is a CheckpointError
        like every other manifest defect, not a bare TypeError / ValueError."""
        from repro.serving.checkpoint import (CheckpointError, MANIFEST_FILE,
                                              load_router, save_router)

        router, _, _ = trained_pair
        manifest_path = save_router(router, tmp_path / "ckpt") / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["router_config"].update(edit)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="router_config"):
            load_router(tmp_path / "ckpt")

    def test_retired_fast_checkpoint_routes_on_the_exact_kernel(self, trained_pair,
                                                                tmp_path):
        """A checkpoint saved with ``decode_backend="fast"`` boots as
        ``"vectorized"`` and answers to the bit like the unedited one."""
        from repro.serving.checkpoint import MANIFEST_FILE, load_router, save_router

        router, _, questions = trained_pair
        unedited = save_router(router, tmp_path / "unedited")
        edited = save_router(router, tmp_path / "edited")
        manifest = json.loads((edited / MANIFEST_FILE).read_text())
        manifest["router_config"]["decode_backend"] = "fast"
        (edited / MANIFEST_FILE).write_text(json.dumps(manifest))
        restored = load_router(edited)
        assert restored.config.decode_backend == "vectorized"
        picked = questions[:6]
        assert [_route_key(r) for r in restored.route_batch(picked)] == \
            [_route_key(r) for r in load_router(unedited).route_batch(picked)]

    def test_retired_fast_manifest_resaves_as_vectorized(self, trained_pair,
                                                         tmp_path):
        """A router loaded from a ``"fast"`` manifest saves the config of
        the router it is -- ``"vectorized"``, equal to a fresh save's -- so
        re-saving a checkpoint retires the value for good."""
        from repro.serving.checkpoint import MANIFEST_FILE, load_router, save_router

        router, _, _ = trained_pair
        path = save_router(router, tmp_path / "ckpt")
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        manifest["router_config"]["decode_backend"] = "fast"
        (path / MANIFEST_FILE).write_text(json.dumps(manifest))
        resaved = save_router(load_router(path), tmp_path / "resaved")
        config = json.loads((resaved / MANIFEST_FILE).read_text())["router_config"]
        assert config["decode_backend"] == "vectorized"
        fresh = save_router(router, tmp_path / "fresh") / MANIFEST_FILE
        assert config == json.loads(fresh.read_text())["router_config"]

    def test_cluster_rides_loop_backend(self, trained_pair, tmp_path):
        """The knob round-trips through cluster checkpoints: every projected
        shard (and the escalation tier) of a ``"loop"`` master decodes on the
        oracle, and the fleet answers like its vectorized twin to the bit."""
        from repro.cluster import (
            ClusterConfig,
            ClusterRoutingService,
            load_cluster,
            save_cluster,
        )

        router, loop_router, questions = trained_pair
        picked = questions[:6]
        config = ClusterConfig(num_shards=2, replicas=1)
        with ClusterRoutingService.from_router(router, config) as vectorized:
            expected = [_route_key(r) for r in vectorized.submit_many(picked)]
        with ClusterRoutingService.from_router(loop_router, config) as cluster:
            for shard in cluster._shards:
                worker = shard.workers[0]
                assert worker.router.config.decode_backend == "loop"
                if worker.careful_router is not None:
                    careful = worker.careful_router
                    assert careful.config.decode_backend == "loop"
            checkpoint = save_cluster(cluster, tmp_path / "loop-cluster")
        with load_cluster(checkpoint) as restored:
            assert restored.master_router.config.decode_backend == "loop"
            for shard in restored._shards:
                assert shard.workers[0].router.config.decode_backend == "loop"
            assert [_route_key(r) for r in restored.submit_many(picked)] == expected

    def test_unknown_backend_rejected(self):
        for retired in ("turbo", "fast"):
            with pytest.raises(ValueError):
                RouterConfig(decode_backend=retired)

    def test_refit_clears_stale_parse_cache(self):
        """fit() must drop parse entries cached under the previous target
        vocabulary (restore() already does)."""
        router, questions = _train_router(31, 3)
        router.route_batch(questions[:2])
        assert router._parse_cache
        questioner = TemplateQuestioner(catalog=router.graph.catalog, seed=5)
        sampler = SchemaSampler(router.graph, seed=5)
        report = synthesize_training_data(sampler, questioner,
                                          SynthesisConfig(num_samples=60))
        router.fit(report.examples)
        assert not router._parse_cache
