"""Differential tests: the constraint automaton vs the prefix-walk oracle.

The contract under test is *exact equivalence*: for any prefix -- legal,
junk, separator-riddled, or EOS-bearing -- the state reached by threading
``GraphConstrainedDecoding.advance`` token by token must stand for the same
interpretation as a fresh ``interpret`` of the whole prefix by the prefix-walk
interpreter kept in ``tests/reference_constraint.py``, and
``allowed_ids_for_state(state)`` -- what every decoder reads -- must be that
oracle's ``allowed_tokens(prefix)``, ascending.  The decoders' bit-identity
with each other (``tests/test_decode_backends.py``) and with a decode through
the oracle (``tests/test_oracle_independence.py``) rides on this equivalence,
so it is exercised here directly: random catalogs, random walks,
terminal/EOS paths, and id-cache eviction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constrained import ConstraintState, GraphConstrainedDecoding
from repro.core.graph import SchemaGraph
from repro.core.serialization import ELEMENT_SEPARATOR
from repro.datasets import CollectionConfig, build_collection
from repro.nn.tokenizer import Vocabulary
from reference_constraint import PrefixWalkConstraint


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
    reference = PrefixWalkConstraint(constrained)
    oracle = reference.interpret(prefix)
    assert (state.database, state.tables, state.current_words, state.complete) \
        == (oracle.database, oracle.tables, oracle.current_words, oracle.complete), \
        f"state diverged from interpret() at prefix {prefix}"
    # The ids are ascending, the oracle's allowed set, and one shared tuple
    # per state.
    ids = constrained.allowed_ids_for_state(state)
    assert ids == tuple(sorted(reference.allowed_tokens(prefix))), \
        f"ids diverged from allowed_tokens() at prefix {prefix}"
    assert constrained.allowed_ids_for_state(state) is ids


def _walk(constrained: GraphConstrainedDecoding, prefix) -> ConstraintState:
    state = constrained.initial_state()
    for token in prefix:
        state = constrained.advance(state, token)
    return state


def _random_walk(constrained: GraphConstrainedDecoding, rng, max_steps: int,
                 junk_rate: float) -> None:
    """Walk random (mostly legal) prefixes, asserting equivalence per token."""
    reference = PrefixWalkConstraint(constrained)
    size = len(constrained.vocabulary)
    prefix: list[int] = []
    state = constrained.initial_state()
    for _ in range(max_steps):
        allowed = sorted(reference.allowed_tokens(prefix))
        if rng.random() >= junk_rate and allowed:
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
            _assert_state_matches_oracle(constrained, _walk(constrained, prefix),
                                         list(prefix))

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
        state = _walk(constrained, prefix)
        _assert_state_matches_oracle(constrained, state, list(prefix))
        # A complete schema may stop: EOS must be allowed here.
        assert eos in constrained.allowed_ids_for_state(state)
        # Advancing over EOS itself still matches the oracle (it becomes part
        # of the current element, exactly as interpret() treats it).
        state = constrained.advance(state, eos)
        _assert_state_matches_oracle(constrained, state, list(prefix) + [eos])

    def test_tables_after_the_first_are_its_graph_neighbours(self):
        """Past the first table, the next table's first words are those of
        the decoded tables' graph neighbours (and EOS), never a table
        already decoded -- on the automaton and on the oracle alike."""
        constrained = _build(3, 4)
        graph, separator = constrained.graph, constrained.vocabulary.sep_id
        checked = 0
        for database in graph.databases():
            for table in graph.tables_of(database):
                prefix = (list(constrained._word_ids(database)) + [separator]
                          + list(constrained._word_ids(table)) + [separator])
                state = _walk(constrained, prefix)
                _assert_state_matches_oracle(constrained, state, prefix)
                firsts = {constrained._word_ids(neighbor)[0]
                          for neighbor in graph.table_neighbors(database, table)
                          if neighbor != table}
                assert set(constrained.allowed_ids_for_state(state)) \
                    == firsts | {constrained.vocabulary.eos_id}
                checked += bool(firsts)
        assert checked

    def test_advance_transitions_are_memoized(self):
        constrained = _build(19, 4)
        state = constrained.initial_state()
        token = constrained.allowed_ids_for_state(state)[0]
        first = constrained.advance(state, token)
        assert constrained.advance(state, token) is first

    def test_states_are_shared_safely(self):
        """advance() never mutates its input state (beams share states)."""
        constrained = _build(29, 4)
        state = constrained.initial_state()
        snapshot = (state.database, state.tables, state.current_words,
                    state.complete)
        constrained.advance(state, constrained.allowed_ids_for_state(state)[0])
        assert (state.database, state.tables, state.current_words,
                state.complete) == snapshot


class TestIdCache:
    def test_eviction_keeps_ids_correct(self):
        """With a tiny id-cache bound, eviction churns constantly and the
        automaton's ids must still match the oracle's."""
        constrained = _build(31, 6)
        constrained.max_cached_masks = 2
        rng = np.random.default_rng(31)
        for _ in range(20):
            _random_walk(constrained, rng, max_steps=12, junk_rate=0.1)
        assert len(constrained._id_cache) <= 2

    def test_states_keep_ids_across_eviction(self):
        """The tuple a state handed out once is the tuple it hands out after
        the shared cache forgot the entry."""
        constrained = _build(37, 5)
        constrained.max_cached_masks = 1
        state = constrained.initial_state()
        ids = constrained.allowed_ids_for_state(state)
        _random_walk(constrained, np.random.default_rng(37), max_steps=10,
                     junk_rate=0.0)
        assert (state.database, state.tables, state.current_words,
                state.complete) not in constrained._id_cache
        assert constrained.allowed_ids_for_state(state) is ids
        assert ids == tuple(sorted(PrefixWalkConstraint(constrained).allowed_tokens(())))

    def test_a_regrown_tree_resolves_from_the_id_cache(self):
        """Equal interpretations share one tuple: a state of a regrown tree
        (a new object) reads its ids from the cache -- a hit, not a miss."""
        constrained = _build(41, 5)
        database = next(iter(constrained.graph.databases()))
        prefix = list(constrained._word_ids(database))
        first_state = _walk(constrained, prefix)
        ids = constrained.allowed_ids_for_state(first_state)
        misses = constrained.mask_cache_misses
        constrained._root = None  # what the bound does when it bites
        regrown = _walk(constrained, prefix)
        assert regrown is not first_state
        assert constrained.allowed_ids_for_state(regrown) is ids
        assert constrained.mask_cache_misses == misses
