"""Property tests for ``repro.nn.seq2seq.row_stable_matmul``, the one GEMM
primitive of the exact decode kernel and the encoder.

The contract: a row's product depends on that row, the weight and the tile
shape -- never on how many rows share the call, where the row sits, what the
rows around it hold, or how the caller's array is laid out in memory.  Equality
is ``np.array_equal``: not one bit may differ.  Everything bit-exact in this
repository (loop-vs-batch identity, routes independent of micro-batch
composition, cross-process merges) now leans on it.

That a row of a fixed-shape GEMM does not see its tile neighbours is a
property of the BLAS numpy is linked against, not of the BLAS standard.  This
file is the tripwire for a BLAS on which it does not hold: there is no runtime
probe and no fallback path in ``src/``, so a failure here means the tile shape
(or the primitive) has to change, not that a test is flaky.  It must pass with
``OPENBLAS_NUM_THREADS`` unset and set to 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn.seq2seq as seq2seq
from repro.core.router import RouterConfig
from repro.nn.seq2seq import TILE_ROWS, Seq2SeqConfig, Seq2SeqModel, row_stable_matmul

#: (embedding, hidden, target vocabulary) of the default model and of the smoke
#: model (``benchmarks/e2e --smoke``, the verify skill's throwaway router); the
#: vocabularies are those of the full / smoke e2e fixtures.
MODELS = {"default": (RouterConfig().embedding_dim, RouterConfig().hidden_dim, 153),
          "smoke": (16, 24, 40)}


def _weight_shapes() -> list[tuple[int, int]]:
    """Every ``(k, n)`` the encoder and the decode kernel multiply by."""
    shapes = []
    for d, h, vocabulary in MODELS.values():
        shapes += [(d, h),          # encoder projection, decoder input projection
                   (h, h),          # recurrent projection
                   (2 * h, h),      # combine projection
                   (h, vocabulary)]  # output head
    return shapes


WEIGHT_SHAPES = _weight_shapes()
MAX_ROWS = 3 * TILE_ROWS + 1

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False, width=64)


def _weight(shape: tuple[int, int]) -> np.ndarray:
    return np.random.default_rng(shape[0] * 1009 + shape[1]).standard_normal(shape)


@pytest.mark.parametrize("shape", WEIGHT_SHAPES, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_is_independent_of_its_stack(shape, data):
    """A row multiplied alone equals the same row at any position of any
    stack of 1 .. 3 * TILE_ROWS + 1 rows, whatever the other rows hold."""
    weight = _weight(shape)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rows = data.draw(st.integers(1, MAX_ROWS))
    position = data.draw(st.integers(0, rows - 1))
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(shape[0])
    alone = row_stable_matmul(row[None, :], weight)[0]

    neighbours = rng.standard_normal((rows, shape[0])) * scale
    neighbours[position] = row
    assert np.array_equal(row_stable_matmul(neighbours, weight)[position], alone)

    zeros = np.zeros((rows, shape[0]))
    zeros[position] = row
    assert np.array_equal(row_stable_matmul(zeros, weight)[position], alone)


@pytest.mark.parametrize("shape", WEIGHT_SHAPES, ids=str)
@settings(max_examples=40, deadline=None)
@given(palette=st.lists(finite, min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_arbitrary_finite_neighbours(shape, palette, seed, data):
    """The same, with every element of the stack -- the row's own included --
    picked from a handful of arbitrary finite doubles (signed zeros,
    subnormals, exact integers, large magnitudes) instead of from a normal."""
    weight = _weight(shape)
    rows = data.draw(st.integers(2, MAX_ROWS))
    position = data.draw(st.integers(0, rows - 1))
    stack = np.random.default_rng(seed).choice(np.asarray(palette),
                                               size=(rows, shape[0]))
    alone = row_stable_matmul(stack[position:position + 1], weight)[0]
    assert np.array_equal(row_stable_matmul(stack, weight)[position], alone)


@pytest.mark.parametrize("shape", WEIGHT_SHAPES, ids=str)
@pytest.mark.parametrize("rows", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, MAX_ROWS])
def test_memory_layout_does_not_matter(shape, rows):
    """Strided, Fortran-ordered, transposed and reversed views of the same
    values multiply to the same doubles: the primitive always copies into its
    own C-contiguous tiles, so BLAS never sees the caller's strides."""
    weight = _weight(shape)
    rng = np.random.default_rng(rows)
    stack = rng.standard_normal((rows, shape[0]))
    expected = row_stable_matmul(stack, weight)

    wide = rng.standard_normal((rows * 2, shape[0] * 3))
    wide[::2, 1::3] = stack
    views = {
        "strided": wide[::2, 1::3],
        "fortran": np.asfortranarray(stack),
        "transposed": np.ascontiguousarray(stack.T).T,
        "reversed": stack[::-1][::-1],
    }
    for name, view in views.items():
        assert np.array_equal(view, stack)
        assert np.array_equal(row_stable_matmul(view, weight), expected), name


def test_shapes_and_empty_input():
    weight = _weight((6, 5))
    assert row_stable_matmul(np.zeros((0, 6)), weight).shape == (0, 5)
    for rows in range(1, MAX_ROWS + 1):
        product = row_stable_matmul(np.ones((rows, 6)), weight)
        assert product.shape == (rows, 5)
        assert np.array_equal(product, np.broadcast_to(product[0], (rows, 5)))


@pytest.mark.parametrize("shape", WEIGHT_SHAPES, ids=str)
def test_tile_of_one_row_is_the_numerics_it_replaced(shape, monkeypatch):
    """``TILE_ROWS = 1`` *is* the one-GEMV-per-row form the exact kernel used
    before the tiles: no second code path keeps the old numerics alive."""
    monkeypatch.setattr(seq2seq, "TILE_ROWS", 1)
    weight = _weight(shape)
    stack = np.random.default_rng(7).standard_normal((MAX_ROWS, shape[0]))
    assert np.array_equal(row_stable_matmul(stack, weight),
                          np.matmul(stack[:, None, :], weight)[:, 0, :])


# -- the encoder rides the same primitive -------------------------------------
@pytest.fixture(scope="module", params=list(MODELS))
def model(request) -> Seq2SeqModel:
    d, h, vocabulary = MODELS[request.param]
    return Seq2SeqModel(Seq2SeqConfig(
        source_vocab_size=90, target_vocab_size=vocabulary,
        embedding_dim=d, hidden_dim=h, seed=5))


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(st.lists(st.integers(0, 89), min_size=0, max_size=24),
                      min_size=1, max_size=9),
       data=st.data())
def test_encode_alone_equals_encode_in_any_batch(model, batch, data):
    """``encode_numpy(q)`` equals the matching item of ``encode_numpy_batch``
    whatever else is in the batch (other lengths pad it, other tokens share
    its tiles), empty questions included."""
    index = data.draw(st.integers(0, len(batch) - 1))
    alone = model.encode_numpy(batch[index])
    stacked = model.encode_numpy_batch(batch)[index]
    assert np.array_equal(stacked.memory, alone.memory)
    assert np.array_equal(stacked.state, alone.state)
    assert np.array_equal(stacked.mask, alone.mask)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), rows=st.integers(1, MAX_ROWS), data=st.data())
def test_decode_step_row_is_independent_of_its_batch(model, seed, rows, data):
    """One beam stepped alone (the loop oracle's call) equals its row of a
    stacked step: the whole kernel, all four projections, inherits the
    primitive's property."""
    position = data.draw(st.integers(0, rows - 1))
    rng = np.random.default_rng(seed)
    hidden = model.config.hidden_dim
    lengths = rng.integers(1, 9, size=rows)
    memory = np.zeros((rows, int(lengths.max()), hidden))
    memory_mask = np.zeros(memory.shape[:2], dtype=bool)
    for row, length in enumerate(lengths):
        memory[row, :length] = np.tanh(rng.standard_normal((length, hidden)))
        memory_mask[row, :length] = True
    states = np.tanh(rng.standard_normal((rows, hidden)))
    previous = rng.integers(0, model.config.target_vocab_size, size=rows)
    stacked_scores, stacked_states = model.decode_step_numpy_batch(
        memory, memory_mask, states, previous)
    length = lengths[position]
    alone_scores, alone_states = model.decode_step_numpy_batch(
        memory[position:position + 1, :length],
        memory_mask[position:position + 1, :length],
        states[position:position + 1], previous[position:position + 1])
    assert np.array_equal(stacked_scores[position], alone_scores[0])
    assert np.array_equal(stacked_states[position], alone_states[0])
