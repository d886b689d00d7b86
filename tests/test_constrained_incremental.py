"""Differential tests: incremental constraint states vs the prefix-walk oracle.

The contract under test is *exact equivalence*: for any prefix -- legal,
junk, separator-riddled, or EOS-bearing -- the state reached by threading
``GraphConstrainedDecoding.advance`` token by token must parse identically to
a fresh ``interpret`` of the whole prefix,
``allowed_mask_for_state(state)`` must equal ``allowed_mask(prefix)``
bit-for-bit, and ``allowed_ids_for_state(state)`` -- what the batched engine
ranks -- must be that mask's set bits, ascending.  The vectorized decode backend's bit-identity with the loop
reference (``tests/test_decode_backends.py``) rides entirely on this
equivalence, so it is exercised here directly: random catalogs, random
walks, terminal/EOS paths, and mask-cache eviction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constrained import ConstraintState, GraphConstrainedDecoding
from repro.core.graph import SchemaGraph
from repro.core.serialization import ELEMENT_SEPARATOR
from repro.datasets import CollectionConfig, build_collection
from repro.nn.tokenizer import Vocabulary


def _build(seed: int, num_databases: int) -> GraphConstrainedDecoding:
    dataset = build_collection(CollectionConfig(
        name=f"inc-{seed}", num_databases=num_databases, rows_per_table=4,
        examples_per_database=4, seed=seed))
    graph = SchemaGraph.from_catalog(dataset.catalog)
    vocabulary = Vocabulary()
    vocabulary.add(ELEMENT_SEPARATOR)
    for database in graph.databases():
        vocabulary.add_text(database)
        for table in graph.tables_of(database):
            vocabulary.add_text(table)
    return GraphConstrainedDecoding(graph, vocabulary)


def _assert_state_matches_oracle(constrained: GraphConstrainedDecoding,
                                 state: ConstraintState,
                                 prefix: list[int]) -> None:
    oracle = constrained.interpret(prefix)
    assert (state.database, state.tables, state.current_words, state.complete) \
        == (oracle.database, oracle.tables, oracle.current_words, oracle.complete), \
        f"state diverged from interpret() at prefix {prefix}"
    incremental_mask = constrained.allowed_mask_for_state(state)
    oracle_mask = constrained.allowed_mask(tuple(prefix))
    assert np.array_equal(incremental_mask, oracle_mask), \
        f"mask diverged from allowed_mask() at prefix {prefix}"
    # The ids are the engine's face of the same resolution: ascending, equal
    # to the oracle mask's set bits, and one shared tuple per state.
    ids = constrained.allowed_ids_for_state(state)
    assert ids == tuple(np.flatnonzero(oracle_mask).tolist()), \
        f"ids diverged from allowed_mask() at prefix {prefix}"
    assert constrained.allowed_ids_for_state(state) is ids


def _random_walk(constrained: GraphConstrainedDecoding, rng, max_steps: int,
                 junk_rate: float) -> None:
    """Walk random (mostly legal) prefixes, asserting equivalence per token."""
    size = len(constrained.vocabulary)
    prefix: list[int] = []
    state = constrained.initial_state()
    for _ in range(max_steps):
        mask = constrained.allowed_mask(tuple(prefix))
        allowed = np.flatnonzero(mask)
        if rng.random() >= junk_rate and allowed.size:
            token = int(rng.choice(allowed))
        else:
            token = int(rng.integers(0, size))
        prefix.append(token)
        state = constrained.advance(state, token)
        _assert_state_matches_oracle(constrained, state, prefix)


class TestAdvanceMatchesInterpret:
    @pytest.mark.parametrize("seed,num_databases", [(3, 4), (11, 7), (23, 10)])
    def test_legal_walks(self, seed, num_databases):
        constrained = _build(seed, num_databases)
        rng = np.random.default_rng(seed)
        for _ in range(25):
            _random_walk(constrained, rng, max_steps=int(rng.integers(2, 24)),
                         junk_rate=0.0)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_walks_with_junk_tokens(self, seed):
        """Off-trie tokens (dead cursors) must parse like failed node walks."""
        constrained = _build(seed, 6)
        rng = np.random.default_rng(seed)
        for _ in range(25):
            _random_walk(constrained, rng, max_steps=int(rng.integers(2, 20)),
                         junk_rate=0.3)

    def test_separator_edge_cases(self):
        """Leading, doubled, and trailing separators mirror interpret()."""
        constrained = _build(7, 5)
        separator = constrained.vocabulary.sep_id
        database = next(iter(constrained.graph.databases()))
        words = list(constrained._word_ids(database))
        for prefix in ([separator], [separator, separator],
                       words + [separator],
                       [separator] + words + [separator, separator],
                       words + [separator] + words):
            state = constrained.initial_state()
            for token in prefix:
                state = constrained.advance(state, token)
            _assert_state_matches_oracle(constrained, state, list(prefix))

    def test_eos_and_terminal_paths(self):
        """EOS rides through advance() as an ordinary element token, and a
        fully-decoded database.table prefix allows EOS exactly like the
        oracle says."""
        constrained = _build(13, 5)
        vocabulary = constrained.vocabulary
        separator, eos = vocabulary.sep_id, vocabulary.eos_id
        database = next(iter(constrained.graph.databases()))
        table = next(iter(constrained.graph.tables_of(database)))
        prefix = (list(constrained._word_ids(database)) + [separator]
                  + list(constrained._word_ids(table)) + [separator])
        state = constrained.initial_state()
        for token in prefix:
            state = constrained.advance(state, token)
        _assert_state_matches_oracle(constrained, state, list(prefix))
        # A complete schema may stop: EOS must be allowed here.
        assert constrained.allowed_mask_for_state(state)[eos]
        # Advancing over EOS itself still matches the oracle (it becomes part
        # of the current element, exactly as interpret() treats it).
        state = constrained.advance(state, eos)
        _assert_state_matches_oracle(constrained, state, list(prefix) + [eos])

    def test_advance_transitions_are_memoized(self):
        constrained = _build(19, 4)
        state = constrained.initial_state()
        token = int(np.flatnonzero(constrained.allowed_mask(()))[0])
        first = constrained.advance(state, token)
        assert constrained.advance(state, token) is first

    def test_states_are_shared_safely(self):
        """advance() never mutates its input state (beams share states)."""
        constrained = _build(29, 4)
        state = constrained.initial_state()
        snapshot = (state.database, state.tables, state.current_words,
                    state.complete)
        token = int(np.flatnonzero(constrained.allowed_mask(()))[0])
        constrained.advance(state, token)
        assert (state.database, state.tables, state.current_words,
                state.complete) == snapshot


class TestMaskCache:
    def test_eviction_keeps_masks_correct(self):
        """With a tiny mask-cache bound, eviction churns constantly and the
        incremental masks must still match fresh oracle masks."""
        constrained = _build(31, 6)
        constrained.max_cached_masks = 2
        rng = np.random.default_rng(31)
        for _ in range(20):
            _random_walk(constrained, rng, max_steps=12, junk_rate=0.1)
        assert len(constrained._mask_cache) <= 2

    def test_states_keep_masks_across_eviction(self):
        """A state's memoized mask survives cache eviction (the shared cache
        bounds memory; live beams keep their own reference)."""
        constrained = _build(37, 5)
        constrained.max_cached_masks = 1
        state = constrained.initial_state()
        mask = constrained.allowed_mask_for_state(state)
        # Flood the cache with other states' masks.
        rng = np.random.default_rng(37)
        _random_walk(constrained, rng, max_steps=10, junk_rate=0.0)
        assert constrained.allowed_mask_for_state(state) is mask

    def test_states_keep_ids_across_eviction(self):
        """Likewise the ids: the tuple a state handed out once is the tuple
        it hands out after the shared cache forgot the entry."""
        constrained = _build(37, 5)
        constrained.max_cached_masks = 1
        state = constrained.initial_state()
        ids = constrained.allowed_ids_for_state(state)
        _random_walk(constrained, np.random.default_rng(37), max_steps=10,
                     junk_rate=0.0)
        assert (state.database, state.tables, state.current_words,
                state.complete) not in constrained._mask_cache
        assert constrained.allowed_ids_for_state(state) is ids
        assert ids == tuple(np.flatnonzero(constrained.allowed_mask(())).tolist())

    def test_allowed_tokens_reuses_cached_mask(self):
        """The set face derives from the cached mask entry -- one set build
        per interpreter state, identical content to the mask."""
        constrained = _build(41, 5)
        database = next(iter(constrained.graph.databases()))
        prefix = tuple(constrained._word_ids(database))
        tokens_first = constrained.allowed_tokens(prefix)
        tokens_second = constrained.allowed_tokens(prefix)
        assert tokens_first is tokens_second  # cached, not rebuilt
        mask = constrained.allowed_mask(prefix)
        assert tokens_first == frozenset(np.flatnonzero(mask).tolist())

    def test_masks_are_read_only(self):
        constrained = _build(43, 4)
        mask = constrained.allowed_mask_for_state(constrained.initial_state())
        with pytest.raises(ValueError):
            mask[0] = True
