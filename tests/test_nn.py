"""Tests for the neural substrate: autograd, modules, training, decoding."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (
    AdamW,
    Seq2SeqConfig,
    Seq2SeqModel,
    Seq2SeqTrainer,
    TrainerConfig,
    Tensor,
    Vocabulary,
    WordTokenizer,
    diverse_beam_search_batch,
    pad_batch,
)
from repro.nn.modules import Embedding, Linear
from repro.nn.optim import LinearSchedule, clip_gradients
from repro.nn.tokenizer import build_vocabulary
from repro.utils.rng import SeededRng
from reference_constraint import PrefixConstraint


def numeric_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar function of a numpy array."""
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function()
        flat[index] = original - epsilon
        minus = function()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


class TestAutograd:
    def test_add_mul_broadcast_gradients(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        loss = ((a + b) * a).sum()
        loss.backward()
        numeric = numeric_gradient(lambda: float(((a.data + b.data) * a.data).sum()), a.data)
        assert np.allclose(a.grad, numeric, atol=1e-5)
        numeric_b = numeric_gradient(lambda: float(((a.data + b.data) * a.data).sum()), b.data)
        assert np.allclose(b.grad, numeric_b, atol=1e-5)

    def test_matmul_gradient(self):
        a = Tensor(np.random.default_rng(2).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(3).normal(size=(3, 4)), requires_grad=True)
        (a @ b).sum().backward()
        numeric = numeric_gradient(lambda: float((a.data @ b.data).sum()), a.data)
        assert np.allclose(a.grad, numeric, atol=1e-5)

    def test_bmm_gradient(self):
        a = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(5).normal(size=(2, 4, 5)), requires_grad=True)
        a.bmm(b).sum().backward()
        numeric = numeric_gradient(lambda: float(np.matmul(a.data, b.data).sum()), b.data)
        assert np.allclose(b.grad, numeric, atol=1e-5)

    def test_tanh_sigmoid_softmax_gradients(self):
        x = Tensor(np.random.default_rng(6).normal(size=(4, 5)), requires_grad=True)
        loss = (x.tanh() * x.sigmoid() + x.softmax(axis=-1)).sum()
        loss.backward()

        def forward():
            data = x.data
            soft = np.exp(data - data.max(axis=-1, keepdims=True))
            soft = soft / soft.sum(axis=-1, keepdims=True)
            return float((np.tanh(data) * (1 / (1 + np.exp(-data))) + soft).sum())

        numeric = numeric_gradient(forward, x.data)
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_embedding_lookup_gradient(self):
        table = Tensor(np.random.default_rng(7).normal(size=(6, 3)), requires_grad=True)
        indices = np.array([[0, 2], [2, 5]])
        table.embedding_lookup(indices).sum().backward()
        expected = np.zeros((6, 3))
        for index in indices.reshape(-1):
            expected[index] += 1.0
        assert np.allclose(table.grad, expected)

    def test_cross_entropy_gradient_and_masking(self):
        logits = Tensor(np.random.default_rng(8).normal(size=(3, 4)), requires_grad=True)
        targets = np.array([0, 1, 2])
        mask = np.array([1.0, 1.0, 0.0])
        loss = logits.cross_entropy(targets, mask)
        loss.backward()
        # Masked row contributes no gradient.
        assert np.allclose(logits.grad[2], 0.0)
        numeric = numeric_gradient(
            lambda: _reference_ce(logits.data, targets, mask), logits.data)
        assert np.allclose(logits.grad, numeric, atol=1e-5)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x + 1).backward()

    def test_concat_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        Tensor.concat([a, b], axis=-1).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_mean_over_axis_matches_numpy(self, rows, cols):
        data = np.arange(rows * cols, dtype=float).reshape(rows, cols)
        assert np.allclose(Tensor(data).mean_over_axis(1).data, data.mean(axis=1))


def _reference_ce(logits, targets, mask):
    shifted = logits - logits.max(axis=1, keepdims=True)
    probabilities = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    picked = probabilities[np.arange(len(targets)), targets]
    return float((-np.log(picked) * mask).sum() / mask.sum())


class TestModulesAndOptim:
    def test_linear_shapes(self):
        rng = SeededRng(0)
        layer = Linear(4, 3, rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)
        out3 = layer(Tensor(np.ones((2, 5, 4))))
        assert out3.shape == (2, 5, 3)

    def test_embedding_shapes(self):
        layer = Embedding(10, 6, SeededRng(0))
        assert layer(np.array([[1, 2, 3]])).shape == (1, 3, 6)

    def test_state_dict_roundtrip(self):
        model = Seq2SeqModel(Seq2SeqConfig(10, 10, embedding_dim=4, hidden_dim=6))
        state = model.state_dict()
        other = Seq2SeqModel.from_state_dict(
            Seq2SeqConfig(10, 10, embedding_dim=4, hidden_dim=6, seed=99), state)
        assert [name for name, _ in other.named_parameters()] == list(state)
        for name, parameter in other.named_parameters():
            assert parameter.data is state[name]  # held as given, not copied

    def test_state_dict_shape_mismatch(self):
        model = Seq2SeqModel(Seq2SeqConfig(10, 10, embedding_dim=4, hidden_dim=6))
        with pytest.raises(ValueError, match="shape mismatch"):
            Seq2SeqModel.from_state_dict(
                Seq2SeqConfig(10, 10, embedding_dim=4, hidden_dim=8), model.state_dict())

    def test_training_init_is_pinned(self):
        """The seeded init a training run starts from, digested at the
        parameter level: a changed init would retrain every router."""
        model = Seq2SeqModel(Seq2SeqConfig(11, 13, embedding_dim=4, hidden_dim=6, seed=7))
        digest = hashlib.sha256()
        for name, parameter in model.named_parameters():
            digest.update(name.encode())
            digest.update(str(parameter.data.shape).encode())
            digest.update(parameter.data.tobytes())
        assert digest.hexdigest() == \
            "ecabb44160d95aeb33e0e02d241afbc2371c5d82ac3784c7a5eb191fad6b39c7"

    def test_adamw_reduces_quadratic(self):
        from repro.nn.modules import Parameter

        parameter = Parameter(np.array([5.0, -3.0]))
        optimizer = AdamW([parameter], learning_rate=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            parameter.grad = 2 * parameter.data
            optimizer.step()
        assert np.abs(parameter.data).max() < 0.5

    def test_linear_schedule_decays(self):
        schedule = LinearSchedule(1.0, 100)
        assert schedule.learning_rate(0) == pytest.approx(1.0)
        assert schedule.learning_rate(50) == pytest.approx(0.5)
        assert schedule.learning_rate(1000) >= 0.0

    def test_clip_gradients(self):
        from repro.nn.modules import Parameter

        parameter = Parameter(np.zeros(3))
        parameter.grad = np.array([3.0, 4.0, 0.0])
        norm = clip_gradients([parameter], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(parameter.grad) <= 1.0 + 1e-9


class TestTokenizerAndData:
    def test_vocabulary_specials(self):
        vocabulary = Vocabulary()
        assert vocabulary.pad_id == 0
        assert vocabulary.id_of("unknown-token") == vocabulary.unk_id

    def test_build_vocabulary_and_encode(self):
        vocabulary = build_vocabulary(["which singer held concerts"])
        tokenizer = WordTokenizer(vocabulary)
        ids = tokenizer.encode_text("which singer")
        assert len(ids) == 2 and vocabulary.unk_id not in ids

    def test_encode_tokens_adds_bos_eos(self):
        vocabulary = build_vocabulary([], extra_tokens=["a", "b"])
        tokenizer = WordTokenizer(vocabulary)
        ids = tokenizer.encode_tokens(["a", "b"])
        assert ids[0] == vocabulary.bos_id and ids[-1] == vocabulary.eos_id

    def test_decode_skips_specials_keeps_sep(self):
        vocabulary = build_vocabulary([], extra_tokens=["a"])
        tokenizer = WordTokenizer(vocabulary)
        tokens = tokenizer.decode([vocabulary.bos_id, vocabulary.id_of("a"),
                                   vocabulary.sep_id, vocabulary.eos_id])
        assert tokens == ["a", vocabulary.specials.sep]

    def test_pad_batch(self):
        batch = pad_batch([([1, 2], [3]), ([4], [5, 6, 7])], pad_id=0)
        assert batch.source_ids.shape == (2, 2)
        assert batch.target_ids.shape == (2, 3)
        assert batch.source_mask.sum() == 3
        with pytest.raises(ValueError):
            pad_batch([], pad_id=0)


def _greedy(model, source, vocabulary, **search):
    """Greedy decoding: the one engine at one beam in one group."""
    ((hypothesis,),) = diverse_beam_search_batch(
        model, [model.encode_numpy(source)], vocabulary.bos_id, vocabulary.eos_id,
        num_beams=1, num_groups=1, **search)
    return hypothesis


class TestSeq2SeqAndDecoding:
    @pytest.fixture(scope="class")
    def toy_setup(self):
        source_vocab = build_vocabulary(["alpha beta", "gamma delta", "epsilon zeta"])
        target_vocab = build_vocabulary([], extra_tokens=["one", "two", "three", "four"])
        source_tokenizer = WordTokenizer(source_vocab)
        target_tokenizer = WordTokenizer(target_vocab)
        data = [("alpha beta", ["one", "two"]),
                ("gamma delta", ["three"]),
                ("epsilon zeta", ["four", "one"])]
        pairs = [(source_tokenizer.encode_text(question), target_tokenizer.encode_tokens(target))
                 for question, target in data]
        model = Seq2SeqModel(Seq2SeqConfig(len(source_vocab), len(target_vocab),
                                           embedding_dim=16, hidden_dim=24, seed=1))
        history = Seq2SeqTrainer(model, TrainerConfig(epochs=80, batch_size=3,
                                                      learning_rate=0.02, seed=1)).train(pairs)
        return model, source_tokenizer, target_tokenizer, data, history

    def test_training_loss_decreases(self, toy_setup):
        _, _, _, _, history = toy_setup
        assert history.final_loss < history.epoch_losses[0] * 0.2

    def test_greedy_memorises_training_pairs(self, toy_setup):
        model, source_tokenizer, target_tokenizer, data, _ = toy_setup
        vocabulary = target_tokenizer.vocabulary
        for question, target in data:
            hypothesis = _greedy(model, source_tokenizer.encode_text(question),
                                 vocabulary)
            assert target_tokenizer.decode(hypothesis.tokens) == target

    def test_beam_contains_greedy(self, toy_setup):
        model, source_tokenizer, target_tokenizer, data, _ = toy_setup
        vocabulary = target_tokenizer.vocabulary
        source = source_tokenizer.encode_text(data[0][0])
        greedy = _greedy(model, source, vocabulary)
        (beams,) = diverse_beam_search_batch(
            model, [model.encode_numpy(source)], vocabulary.bos_id, vocabulary.eos_id,
            num_beams=4, num_groups=1, diversity_penalty=0.0)
        assert greedy.tokens in [hypothesis.tokens for hypothesis in beams]

    def test_diverse_beam_produces_distinct_hypotheses(self, toy_setup):
        model, source_tokenizer, target_tokenizer, data, _ = toy_setup
        vocabulary = target_tokenizer.vocabulary
        (hypotheses,) = diverse_beam_search_batch(
            model, [model.encode_numpy(source_tokenizer.encode_text(data[0][0]))],
            vocabulary.bos_id, vocabulary.eos_id,
            num_beams=4, num_groups=2, diversity_penalty=2.0)
        sequences = [tuple(hypothesis.tokens) for hypothesis in hypotheses]
        assert len(sequences) == len(set(sequences))

    def test_constraint_restricts_tokens(self, toy_setup):
        model, source_tokenizer, target_tokenizer, data, _ = toy_setup
        vocabulary = target_tokenizer.vocabulary
        allowed_id = vocabulary.id_of("two")
        hypothesis = _greedy(model, source_tokenizer.encode_text(data[0][0]),
                             vocabulary, max_length=3,
                             constraint=PrefixConstraint(lambda prefix: {allowed_id}))
        assert set(hypothesis.tokens) <= {allowed_id}

    def test_invalid_beam_configuration(self, toy_setup):
        model, source_tokenizer, _, data, _ = toy_setup
        with pytest.raises(ValueError):
            diverse_beam_search_batch(model, [model.encode_numpy([1])], 1, 2,
                                      num_beams=5, num_groups=3)

    def test_batch_kernel_row_and_padding_invariance(self, toy_setup):
        """The bit-exactness contract of ``decode_step_numpy_batch``: each row
        is unaffected by the other rows in the stack and by zero-padding."""
        model, source_tokenizer, _, data, _ = toy_setup
        encoded = model.encode_numpy_batch(
            [source_tokenizer.encode_text(question) for question, _ in data])
        hidden = model.config.hidden_dim
        padded_length = max(item.memory.shape[0] for item in encoded) + 3
        rows = len(encoded)
        memory = np.zeros((rows, padded_length, hidden))
        memory_mask = np.zeros((rows, padded_length), dtype=bool)
        for row, item in enumerate(encoded):
            memory[row, : item.memory.shape[0]] = item.memory
            memory_mask[row, : item.memory.shape[0]] = True
        states = np.stack([item.state for item in encoded])
        previous = np.arange(rows, dtype=np.int64) % model.config.target_vocab_size
        log_probs, new_states = model.decode_step_numpy_batch(
            memory, memory_mask, states, previous)
        for row, item in enumerate(encoded):
            single_log_probs, single_state = model.decode_step_numpy(
                item, item.state, int(previous[row]))
            assert np.array_equal(log_probs[row], single_log_probs)
            assert np.array_equal(new_states[row], single_state)

    def test_encode_empty_source_uses_pad_token(self, toy_setup):
        model, _, _, _, _ = toy_setup
        empty = model.encode_numpy([])
        pad = model.encode_numpy([0])
        assert np.array_equal(empty.memory, pad.memory)
        assert np.array_equal(empty.state, pad.state)
        explicit = model.encode_numpy([], pad_id=2)
        assert np.array_equal(explicit.memory, model.encode_numpy([2]).memory)
        batched = model.encode_numpy_batch([[], [1, 2]])
        assert np.array_equal(batched[0].memory, pad.memory)
        assert np.array_equal(batched[0].state, pad.state)

    def test_trainer_requires_data(self, toy_setup):
        model, _, _, _, _ = toy_setup
        with pytest.raises(ValueError):
            Seq2SeqTrainer(model).train([])
