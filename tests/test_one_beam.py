"""The one-beam search: a row's pick is one array argmax per step.

At ``num_beams == 1`` -- the cascade's fast tier on every shard
(``repro.cluster.shard.shard_search``) and greedy decoding (the neural
questioner) -- ``diverse_beam_search_batch`` picks each row's first maximum
over its one flat gather of allowed ids instead of ranking per beam in
Python.  These tests hold it to the loop oracle, by equality and counts
only:

* the fast-tier shard projections of a trained router, 4 and 2 shards, waves
  of 1 and 8, tokens / ``finished`` / ``float.hex`` scores equal on both
  backends -- with a router projected onto no databases and a router whose
  constraint closes the root riding the wave: their rows keep the empty
  hypothesis and route to ``[]``;
* hand-written tables whose rows tie, hold ``-inf`` or allow nothing
  (``np.maximum.reduceat`` misreads an empty segment), mixed with rows
  nothing constrains, in one wave;
* the decode counters of one seeded one-beam constrained wave, pinned from
  the per-beam selection the argmax replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import project_router
from repro.cluster.partition import partition_catalog
from repro.cluster.shard import shard_search
from repro.core.router import SchemaRouter, decode_wave, route_wave
from repro.nn.decoding import diverse_beam_search_batch
from repro.nn.seq2seq import DecodeKernel, Seq2SeqConfig, Seq2SeqModel
from repro.nn.tokenizer import WordTokenizer
from reference_constraint import PrefixConstraint
from test_constrained_incremental import _build as _build_graph_constraint
from test_decode_backends import _hypothesis_key, _route_key, _train_router
from test_sparse_selection import TableModel, _assert_engine_matches_loop

#: What a row whose root allows nothing decodes to.
EMPTY = [((), (0.0).hex(), False)]


@pytest.fixture(scope="module")
def master():
    router, questions = _train_router(11, 5)
    return router, list(dict.fromkeys(questions))


def _fast_tier(master: SchemaRouter, num_shards: int,
               backend: str) -> list[SchemaRouter]:
    """Every shard's fast-tier router of a ``num_shards`` fleet with the
    cascade, then one projected onto no databases and one whose constraint
    closes the root."""
    fast, _ = shard_search(master.config, num_shards, careful_tier=True)
    config = fast.ablated(decode_backend=backend)
    assert config.num_beams == 1
    shards = partition_catalog(master.graph.catalog, num_shards).shards
    routers = [project_router(master, databases, config)
               for databases in shards + ((),)]
    closed = project_router(master, shards[0], config)
    closed._constraint = PrefixConstraint(lambda prefix: ())
    return routers + [closed]


@pytest.mark.parametrize("wave", [1, 8])
@pytest.mark.parametrize("num_shards", [4, 2])
def test_fast_tier_wave_equals_the_oracle(master, num_shards, wave):
    router, questions = master
    picked = questions[:wave]
    tokenizer = WordTokenizer(router.source_vocabulary)
    encoded = router.model.encode_numpy_batch(
        [tokenizer.encode_text(question, max_length=router.config.max_source_length)
         for question in picked],
        pad_id=router.source_vocabulary.pad_id)
    decoded, routed = {}, {}
    for backend in ("vectorized", "loop"):
        routers = _fast_tier(router, num_shards, backend)
        tags = [tag for tag in range(len(routers)) for _ in picked]
        kernel = DecodeKernel(router.model) if backend == "vectorized" else None
        decoded[backend] = [[_hypothesis_key(h) for h in one] for one in decode_wave(
            kernel, routers, tags, [item for _ in routers for item in encoded])]
        routed[backend] = [[_route_key(routes) for routes in per_router]
                           for per_router in route_wave(routers, picked)]
    assert decoded["vectorized"] == decoded["loop"]
    assert routed["vectorized"] == routed["loop"]
    shard_rows = decoded["loop"][:num_shards * wave]
    assert all(len(one) == 1 and one[0][0] for one in shard_rows)
    assert decoded["loop"][num_shards * wave:] == [EMPTY] * (2 * wave)
    assert any(any(routes) for routes in routed["loop"][:num_shards])
    assert routed["loop"][num_shards:] == [[[]] * wave] * 2


# ---------------------------------------------------------------------------
# Hand-written tables: ties, -inf, empty rows and open rows in one wave.
# ---------------------------------------------------------------------------
def _lattice_table(seed: int, vocab_size: int):
    """Log-probabilities on a coarse lattice (rows tie constantly), an
    occasional ``-inf`` and, now and then, a row that is ``-inf`` throughout."""
    def table(question, prefix):
        rng = np.random.default_rng([seed, question, len(prefix), *prefix])
        row = -0.5 * rng.integers(0, 3, size=vocab_size).astype(np.float64)
        row[rng.random(vocab_size) < (0.15 if rng.random() < 0.9 else 1.0)] = -np.inf
        return row
    return table


def _lattice_allowed(seed: int, vocab_size: int):
    """Allowed ids that are often few and sometimes none, at the root too."""
    def allowed(prefix):
        rng = np.random.default_rng([seed + 1, len(prefix), *prefix])
        return np.flatnonzero(rng.random(vocab_size) < 0.3).tolist()
    return allowed


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**16), vocab_size=st.integers(2, 9),
       kinds=st.lists(st.sampled_from(["open", "allowed", "closed"]),
                      min_size=1, max_size=6),
       penalty=st.sampled_from([0.0, 2.0]), max_length=st.integers(1, 6))
def test_one_beam_sweep_against_the_oracle(seed, vocab_size, kinds, penalty,
                                           max_length):
    """Any wave of unconstrained rows, rows with few or no allowed ids and
    rows closed at the root: the engine returns the oracle's tokens,
    ``finished`` and ``score.hex()`` -- whatever the (inert) penalty."""
    model = TableModel(vocab_size, _lattice_table(seed, vocab_size))
    entries = {"open": None,
               "allowed": PrefixConstraint(_lattice_allowed(seed, vocab_size)),
               "closed": PrefixConstraint(lambda prefix: ())}
    constraints = [entries[kind] for kind in kinds]
    looped = _assert_engine_matches_loop(
        model, list(range(len(kinds))), constraints, num_beams=1, num_groups=1,
        diversity_penalty=penalty, max_length=max_length)
    for kind, one in zip(kinds, looped):
        assert len(one) == 1
        if kind == "closed":
            assert one == EMPTY


# ---------------------------------------------------------------------------
# The counters, pinned.
# ---------------------------------------------------------------------------
#: The ``decode`` counters of the seeded wave below, as the per-beam
#: selection reported them.
PINNED_COUNTERS = dict(steps=12, beam_rows=79, live_beams=79, ranked_tokens=158,
                       questions_compacted=6)


def test_decode_counters_of_a_seeded_one_beam_wave_are_pinned():
    constraint = _build_graph_constraint(3, 3)
    vocabulary = constraint.vocabulary
    model = Seq2SeqModel(Seq2SeqConfig(12, len(vocabulary), embedding_dim=8,
                                       hidden_dim=12, seed=5))
    rng = np.random.default_rng(5)
    encoded = model.encode_numpy_batch(
        [rng.integers(0, 12, size=length).tolist() for length in range(1, 9)])
    stats: dict = {}
    hypotheses = diverse_beam_search_batch(
        model, encoded, vocabulary.bos_id, vocabulary.eos_id, num_beams=1,
        num_groups=1, diversity_penalty=2.0, max_length=12,
        constraint=constraint, stats=stats)
    assert all(one[0].tokens for one in hypotheses)
    assert stats == PINNED_COUNTERS
