"""Attention-based encoder-decoder used as the DSI schema router backbone.

Architecture (a compact stand-in for the paper's T5-base):

* Encoder: word embeddings projected through a tanh layer form a memory of
  per-token states; a masked mean of the memory initialises the decoder state.
* Decoder: a simple recurrent cell ``s_t = tanh(W_in e(y_{t-1}) + W_hh s_{t-1})``
  with dot-product attention over the encoder memory; the attended context and
  state are combined and projected to target-vocabulary logits.

Training uses the autograd engine; inference (:meth:`Seq2SeqModel.encode_numpy`
and :meth:`Seq2SeqModel.decode_step_numpy_batch`) runs on raw numpy so that
beam search and constrained decoding stay fast and allocation-free.

The decode hot path is the batched kernel
:meth:`Seq2SeqModel.decode_step_numpy_batch`, which advances any number of
beams -- across questions -- in one stacked step;
:meth:`Seq2SeqModel.decode_step_numpy` is its single-beam wrapper.  The kernel
keeps a strict bit-exactness contract (see its docstring): a beam produces the
same doubles whether it is decoded alone or stacked into a batch, which is
what lets the vectorized and loop decode backends return identical routes.
Every fixed-dimension projection of the encoder and of that kernel goes
through :func:`row_stable_matmul`, a GEMM in fixed ``TILE_ROWS``-row tiles:
row-stable like the one-row GEMVs it replaced, at nearly the speed of a flat
GEMM.  The trunk exists once: :class:`DecodeKernel` (what the batched search
engine steps through, for a monolith or a whole cluster wave of one model)
steps :meth:`Seq2SeqModel.decode_trunk_numpy_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.autograd import Tensor, stack_rows
from repro.nn.modules import Embedding, Linear, Module
from repro.utils.rng import SeededRng

#: Rows per GEMM tile of :func:`row_stable_matmul`.  Measured on OpenBLAS at
#: this model's widths: M = 4, 8 and 16 are all bit-stable per row; 8 is the
#: fastest at the 8-40 rows a decode step carries (1 is a GEMV per row, the
#: numerics before the tiles).
TILE_ROWS = 8


def row_stable_matmul(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``rows @ weight`` -- ``(R, k) @ (k, n) -> (R, n)`` -- such that a row's
    doubles depend on that row and the tile shape only: never on ``R``, on
    the row's position, or on the rows around it.

    BLAS picks its kernel (and with it the order partial sums are grouped in)
    from the operand shapes, so a flat ``(R, k) @ (k, n)`` GEMM gives a row
    different last bits for different ``R``.  Here BLAS only ever sees one
    shape: the rows are copied into a C-contiguous buffer zero-padded to a
    multiple of :data:`TILE_ROWS` and multiplied as a stack of ``(TILE_ROWS,
    k) @ (k, n)`` tiles (numpy calls BLAS once per tile), then the pad is
    dropped.  The copy is unconditional -- whatever strides the caller's
    array has, BLAS reads the same layout, so there is one path.

    That a row of a fixed-shape GEMM does not see its tile neighbours is a
    property of the BLAS at hand, not of the standard.  It is checked, not
    assumed: ``tests/test_row_stable_matmul.py`` is the tripwire for a BLAS on
    which it does not hold.  There is no runtime probe and no fallback path.
    """
    count, width = rows.shape
    num_tiles = -(-count // TILE_ROWS)
    tiles = np.zeros((num_tiles, TILE_ROWS, width))
    tiles.reshape(-1, width)[:count] = rows
    return np.matmul(tiles, weight).reshape(-1, weight.shape[1])[:count]


@dataclass(frozen=True)
class Seq2SeqConfig:
    """Hyper-parameters of the Seq2Seq model."""

    source_vocab_size: int
    target_vocab_size: int
    embedding_dim: int = 48
    hidden_dim: int = 96
    seed: int = 0


@dataclass
class EncodedSource:
    """Numpy-side encoder outputs used during inference."""

    memory: np.ndarray  # (T_src, hidden)
    mask: np.ndarray    # (T_src,)
    state: np.ndarray   # (hidden,)


def _layers(config: Seq2SeqConfig) -> tuple[tuple[str, str, tuple[int, int], str], ...]:
    """Every layer of the model, in parameter order: its attribute, the label
    of its init stream, its weight's shape, and its kind -- an ``embedding``
    table, a ``linear`` map, or an ``unbiased`` linear map."""
    dim, hidden = config.embedding_dim, config.hidden_dim
    return (
        ("source_embedding", "src_emb", (config.source_vocab_size, dim), "embedding"),
        ("encoder_projection", "enc_proj", (dim, hidden), "linear"),
        ("state_init", "state_init", (hidden, hidden), "linear"),
        ("target_embedding", "tgt_emb", (config.target_vocab_size, dim), "embedding"),
        ("input_projection", "w_in", (dim, hidden), "unbiased"),
        ("recurrent_projection", "w_hh", (hidden, hidden), "linear"),
        ("combine_projection", "combine", (2 * hidden, hidden), "linear"),
        ("output_projection", "out", (hidden, config.target_vocab_size), "linear"),
    )


class Seq2SeqModel(Module):
    """Encoder-decoder with attention; see the module docstring.

    ``Seq2SeqModel(config)`` draws the seeded training init;
    :meth:`from_state_dict` builds a trained model from its arrays and draws
    nothing."""

    source_embedding: Embedding
    encoder_projection: Linear
    state_init: Linear
    target_embedding: Embedding
    input_projection: Linear
    recurrent_projection: Linear
    combine_projection: Linear
    output_projection: Linear

    def __init__(self, config: Seq2SeqConfig) -> None:
        self.config = config
        rng = SeededRng(config.seed)
        for attribute, label, shape, kind in _layers(config):
            setattr(self, attribute,
                    Embedding(*shape, rng.child(label), name=attribute) if kind == "embedding"
                    else Linear(*shape, rng.child(label), bias=kind == "linear", name=attribute))

    @classmethod
    def from_state_dict(cls, config: Seq2SeqConfig,
                        state: dict[str, np.ndarray]) -> "Seq2SeqModel":
        """The model whose parameters are ``state``'s arrays, held as given --
        no init stream is seeded or drawn.  Strict: ``ValueError`` unless
        ``state`` holds exactly the parameters ``config`` implies, each in
        its shape."""
        expected = {}
        for attribute, _, shape, kind in _layers(config):
            expected[f"{attribute}.weight"] = shape
            if kind == "linear":
                expected[f"{attribute}.bias"] = shape[1:]
        missing, unexpected = set(expected) - set(state), set(state) - set(expected)
        if missing or unexpected:
            raise ValueError(
                f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, shape in expected.items():
            if state[name].shape != shape:
                raise ValueError(f"shape mismatch for {name}: {shape} vs {state[name].shape}")
        model = cls.__new__(cls)
        model.config = config
        for attribute, _, _, kind in _layers(config):
            weight = state[f"{attribute}.weight"]
            setattr(model, attribute,
                    Embedding.from_arrays(weight, name=attribute) if kind == "embedding"
                    else Linear.from_arrays(weight, state.get(f"{attribute}.bias"), name=attribute))
        return model

    # ------------------------------------------------------------------
    # Training path (autograd)
    # ------------------------------------------------------------------
    def encode(self, source_ids: np.ndarray, source_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Encode a batch; returns (memory ``(B,T,h)``, initial state ``(B,h)``)."""
        embedded = self.source_embedding(source_ids)                    # (B, T, d)
        memory = self.encoder_projection(embedded).tanh()               # (B, T, h)
        mask3 = np.asarray(source_mask, dtype=np.float64)[:, :, None]
        masked = memory * Tensor(mask3)
        pooled = masked.mean_over_axis(axis=1)                          # (B, h) == sum / T
        lengths = np.clip(mask3.sum(axis=1), 1.0, None)                 # (B, 1)
        scale = mask3.shape[1] / lengths                                # rescale mean -> masked mean
        pooled = pooled * Tensor(scale)
        state = self.state_init(pooled).tanh()                          # (B, h)
        return memory, state

    def decoder_step(self, previous_ids: np.ndarray, state: Tensor, memory: Tensor,
                     source_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """One decoder step; returns (logits ``(B,V)``, new state ``(B,h)``)."""
        batch_size = memory.shape[0]
        hidden = self.config.hidden_dim
        previous_embedded = self.target_embedding(previous_ids)         # (B, d)
        state = (self.input_projection(previous_embedded)
                 + self.recurrent_projection(state)).tanh()             # (B, h)
        # Dot-product attention over the encoder memory.
        scores = memory.bmm(state.reshape(batch_size, hidden, 1))       # (B, T, 1)
        mask3 = np.asarray(source_mask, dtype=np.float64)[:, :, None]
        scores = scores + Tensor((1.0 - mask3) * -1e9)
        attention = scores.softmax(axis=1)                              # (B, T, 1)
        context = attention.transpose_last_two().bmm(memory)            # (B, 1, h)
        context = context.reshape(batch_size, hidden)
        combined = self.combine_projection(Tensor.concat([state, context], axis=-1)).tanh()
        logits = self.output_projection(combined)                       # (B, V)
        return logits, state

    def forward_loss(self, source_ids: np.ndarray, source_mask: np.ndarray,
                     target_ids: np.ndarray, target_mask: np.ndarray) -> Tensor:
        """Teacher-forced sequence cross-entropy for one batch.

        ``target_ids`` must start with BOS and end with EOS (plus padding);
        the loss is computed over the shifted targets.
        """
        decoder_inputs = target_ids[:, :-1]
        decoder_targets = target_ids[:, 1:]
        decoder_mask = target_mask[:, 1:]
        memory, state = self.encode(source_ids, source_mask)
        step_logits: list[Tensor] = []
        for step in range(decoder_inputs.shape[1]):
            logits, state = self.decoder_step(decoder_inputs[:, step], state, memory, source_mask)
            step_logits.append(logits)
        logits_over_time = stack_rows(step_logits)                      # (T, B, V)
        targets_over_time = decoder_targets.T                           # (T, B)
        mask_over_time = decoder_mask.T
        return logits_over_time.cross_entropy(targets_over_time, mask_over_time)

    # ------------------------------------------------------------------
    # Inference path (plain numpy, no autograd overhead)
    # ------------------------------------------------------------------
    def encode_numpy(self, source_ids: list[int] | np.ndarray,
                     pad_id: int = 0) -> EncodedSource:
        """Encode one source sequence for decoding.

        An empty sequence (an empty or all-whitespace question) encodes as a
        single ``pad_id`` token, so "no input" flows through the same defined
        path instead of borrowing whatever word happens to sit at id 0.
        """
        ids = np.asarray(source_ids, dtype=np.int64)
        if ids.size == 0:
            ids = np.asarray([pad_id], dtype=np.int64)
        embedded = self.source_embedding.weight.data[ids]               # (T, d)
        # Row-stable: a token's projection is independent of the sequence's
        # length and of any batching, so :meth:`encode_numpy_batch`
        # reproduces it bit-for-bit.
        memory = np.tanh(
            row_stable_matmul(embedded, self.encoder_projection.weight.data)
            + self.encoder_projection.bias.data)                        # (T, h)
        pooled = memory.mean(axis=0)
        state = np.tanh(pooled @ self.state_init.weight.data + self.state_init.bias.data)
        return EncodedSource(memory=memory, mask=np.ones(len(ids)), state=state)

    def encode_numpy_batch(self, source_ids_batch: list[list[int]],
                           pad_id: int = 0) -> list[EncodedSource]:
        """Encode several source sequences at once for decoding.

        The embedding lookup and encoder projection run as one stacked matmul
        over every token of the padded batch (the expensive part), then each
        item's memory is cut back to its true length.  The product is
        :func:`row_stable_matmul`'s, as in :meth:`encode_numpy`, so each
        question encodes to *bit-identical* doubles no matter which
        micro-batch it arrives in: routes, and therefore caches and
        cross-shard merges, never depend on batch composition.  Empty
        sequences encode as a single ``pad_id`` token, exactly as in
        :meth:`encode_numpy`.
        """
        if not source_ids_batch:
            return []
        sequences = [np.asarray(ids if len(ids) else [pad_id], dtype=np.int64)
                     for ids in source_ids_batch]
        max_length = max(len(sequence) for sequence in sequences)
        padded = np.zeros((len(sequences), max_length), dtype=np.int64)
        for row, sequence in enumerate(sequences):
            padded[row, : len(sequence)] = sequence
        embedded = self.source_embedding.weight.data[padded]            # (B, T, d)
        batch_size, length, dim = embedded.shape
        projected = row_stable_matmul(embedded.reshape(batch_size * length, dim),
                                      self.encoder_projection.weight.data)
        memory = np.tanh(
            projected.reshape(batch_size, length, -1)
            + self.encoder_projection.bias.data)                        # (B, T, h)
        encoded: list[EncodedSource] = []
        for row, sequence in enumerate(sequences):
            item_memory = memory[row, : len(sequence)]
            pooled = item_memory.mean(axis=0)
            state = np.tanh(pooled @ self.state_init.weight.data + self.state_init.bias.data)
            encoded.append(EncodedSource(memory=item_memory,
                                         mask=np.ones(len(sequence)), state=state))
        return encoded

    def decode_step_numpy(self, encoded: EncodedSource, state: np.ndarray,
                          previous_id: int) -> tuple[np.ndarray, np.ndarray]:
        """One inference decoder step for one beam (a thin wrapper).

        Delegates to :meth:`decode_step_numpy_batch` with a single row; by the
        kernel's bit-exactness contract the result is identical to the same
        beam advanced inside any larger batch.  Returns (log-probabilities
        ``(V,)``, new state ``(h,)``).
        """
        memory = encoded.memory[None, :, :]
        memory_mask = (np.asarray(encoded.mask) != 0.0)[None, :]
        log_probabilities, new_states = self.decode_step_numpy_batch(
            memory, memory_mask,
            np.asarray(state, dtype=np.float64)[None, :],
            np.asarray([previous_id], dtype=np.int64),
        )
        return log_probabilities[0], new_states[0]

    def decode_step_numpy_batch(self, memory: np.ndarray, memory_mask: np.ndarray,
                                states: np.ndarray, previous_ids: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``R`` decoder beams with one stacked step.

        ``memory`` is ``(R, T, h)`` (zero-padded along ``T``), ``memory_mask``
        ``(R, T)`` bool (True at real source positions), ``states`` ``(R, h)``,
        ``previous_ids`` ``(R,)``.  Returns (log-probabilities ``(R, V)``, new
        states ``(R, h)``).

        Bit-exactness contract: row ``r`` of the result depends only on row
        ``r`` of the inputs, and is invariant both to the number of other rows
        in the batch and to how far ``T`` is zero-padded.  A beam therefore
        decodes to identical doubles whether it runs alone (the ``loop``
        backend, via :meth:`decode_step_numpy`) or stacked with the rest of a
        micro-batch (the ``vectorized`` backend).  The contract dictates the
        numerics used here:

        * the fixed-dimension projections run through
          :func:`row_stable_matmul` -- BLAS only ever sees ``(TILE_ROWS, k) @
          (k, n)`` tiles, so a row's doubles depend on its own operands and
          the tile shape, never on ``R``, its position or its neighbours (a
          flat ``(R, k) @ (k, n)`` GEMM does not have that property: OpenBLAS
          picks different kernels for different row counts);
        * contractions over the padded ``T`` axis use ``einsum`` forms whose
          reduction axis is *not* innermost (``rth,rh->rt`` / ``rt,rth->rh``),
          which accumulate ``t`` sequentially -- appending zero terms is then
          an exact no-op (plain ``sum(axis=...)`` pairwise reductions and
          innermost-axis einsums regroup partial sums when ``T`` changes);
        * the attention normalizer rides along the stable context einsum via a
          ones column appended to the memory, instead of a separate
          length-sensitive row sum;
        * per-row softmax reductions run over the vocabulary axis, whose
          length never varies with batching.
        """
        augmented = np.concatenate([memory, np.ones(memory.shape[:2] + (1,))], axis=2)
        combined, new_states = self.decode_trunk_numpy_batch(
            self.target_embedding.weight.data[previous_ids], augmented, memory_mask,
            states)
        return (head_log_softmax(combined, self.output_projection.weight.data,
                                 self.output_projection.bias.data), new_states)

    def decode_trunk_numpy_batch(self, previous_embedded: np.ndarray,
                                 memory: np.ndarray, memory_mask: np.ndarray,
                                 states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact kernel up to the output head: ``(R, d)`` previous-token
        embeddings in, (pre-head activations ``(R, h)``, new states ``(R, h)``)
        out, under the bit-exactness contract of
        :meth:`decode_step_numpy_batch` -- which is this plus the model's own
        head, as is :meth:`DecodeKernel.step`.  ``memory`` is the ``(R, T,
        h+1)`` ones-augmented layout of :func:`pad_encoder_memories`."""
        pre_activation = (
            row_stable_matmul(previous_embedded, self.input_projection.weight.data)
            + row_stable_matmul(states, self.recurrent_projection.weight.data)
        ) + self.recurrent_projection.bias.data
        new_states = np.tanh(pre_activation)                                    # (R, h)

        hidden = new_states.shape[1]
        scores = np.einsum("rth,rh->rt", memory[:, :, :hidden], new_states)     # (R, T)
        scores = np.where(memory_mask, scores, -np.inf)
        scores = scores - scores.max(axis=1, keepdims=True)
        attention = np.exp(scores)                                              # pads -> 0.0
        pooled = np.einsum("rt,rth->rh", attention, memory)                     # (R, h+1)
        context = pooled[:, :hidden] / pooled[:, hidden:]                       # (R, h)

        combined = np.tanh(
            row_stable_matmul(np.concatenate([new_states, context], axis=1),
                              self.combine_projection.weight.data)
            + self.combine_projection.bias.data)
        return combined, new_states


def head_log_softmax(combined: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray) -> np.ndarray:
    """``log_softmax(combined @ weight + bias)`` per row, ``(R, h) -> (R, V)``.

    The projection runs through :func:`row_stable_matmul`, so a row's doubles
    do not depend on which other rows share the call."""
    logits = row_stable_matmul(combined, weight) + bias
    logits = logits - logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def pad_encoder_memories(encoded_batch: "Sequence[EncodedSource]"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Stack encoder memories zero-padded along ``T`` as the exact trunk reads
    them: the ``(Q, T, h+1)`` memory with a ones column appended (the plain
    memory is its ``[:, :, :-1]`` view) and the ``(Q, T)`` bool mask (True at
    real source positions)."""
    padded_length = max(encoded.memory.shape[0] for encoded in encoded_batch)
    hidden = encoded_batch[0].memory.shape[1]
    memory = np.zeros((len(encoded_batch), padded_length, hidden + 1))
    memory[:, :, hidden] = 1.0
    memory_mask = np.zeros((len(encoded_batch), padded_length), dtype=bool)
    for row, encoded in enumerate(encoded_batch):
        true_length = encoded.memory.shape[0]
        memory[row, :true_length, :hidden] = encoded.memory
        memory_mask[row, :true_length] = np.asarray(encoded.mask) != 0.0
    return memory, memory_mask


class DecodeKernel:
    """What the batched beam search steps through: one decode stream over one
    model -- a monolith's batch, or a whole cluster wave.

    The search engine (:func:`repro.nn.decoding.diverse_beam_search_batch`)
    keeps one flat row per distinct live ``(question, prefix)`` and asks the
    kernel for three things: :meth:`input_table` once per search,
    :meth:`resident_memory` once per search (per-question operands the engine
    gathers per row whenever its row -> question map moves), and :meth:`step`
    once per decode step.

    Every shard router of a fleet decodes the master's own model object
    (:func:`repro.cluster.shard.project_router` shares it), so a cluster wave
    steps the same kernel as a monolith: shards differ only in their
    constraints, which the engine applies per row -- the kernel never sees a
    shard.

    Every kernel steps the *exact* trunk
    (:meth:`Seq2SeqModel.decode_trunk_numpy_batch`): a row decodes to the
    same doubles whatever else shares its call -- other prefixes, questions
    or shards, cache hits thinning the stack, longer neighbours padding ``T``
    -- and however many beams read it, so the search is bit-identical to the
    loop oracle and a cluster answers a question identically in every wave.

    Fixed tile, measured (PR 18; OpenBLAS 0.3.31 Haswell kernels, one thread;
    q/s are ``route_batch`` in waves of 8 over 1 232 fixture questions,
    alternating the variants wave by wave).  The exact trunk multiplies in
    :func:`row_stable_matmul` tiles.  Tile heights 4, 8 and 16 were each
    bit-identical per row over 12 000 random stackings (1-69 rows, any
    position, any neighbours).  The four projections of a step at 8 / 21 / 32
    rows cost 53 / 134 / 191 us as one-row GEMVs (the numerics until then),
    28 / 63 / 78 at M = 4, 27 / 59 / 73 at M = 8, 41 / 72 / 70 at M = 16 and
    19 / 42 / 54 as flat GEMMs; inside a decode M = 4 and 8 tie (762 vs 761
    q/s) and 16 trails (748).  The exact search at M = 8 runs at 799 q/s
    against 719 on one-row GEMVs and 832 with the same trunk on flat GEMMs:
    row-stability costs 4 %.
    """

    def __init__(self, model: Seq2SeqModel) -> None:
        self.model = model
        self.config = model.config

    def input_table(self) -> np.ndarray:
        """The previous-token table a search gathers from each step: the
        model's target embedding."""
        return self.model.target_embedding.weight.data

    def resident_memory(self, encoded_batch: Sequence[EncodedSource]
                        ) -> tuple[np.ndarray, np.ndarray]:
        """What a step reads besides the rows, built once per search.

        Every operand leads with the question axis; the engine gathers one
        entry per row (``operand[row -> question]``) and hands that to
        :meth:`step`: the :func:`pad_encoder_memories` pair.
        """
        return pad_encoder_memories(encoded_batch)

    def step(self, states: np.ndarray, previous_ids: np.ndarray,
             input_table: np.ndarray, operands: tuple[np.ndarray, np.ndarray]
             ) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``R`` rows one token: ``states`` ``(R, h)``,
        ``previous_ids`` ``(R,)``, ``operands`` the :meth:`resident_memory`
        entries of each row's question.  Returns (log-probabilities ``(R,
        V)``, new states ``(R, h)``)."""
        memory, memory_mask = operands
        combined, new_states = self.model.decode_trunk_numpy_batch(
            input_table[previous_ids], memory, memory_mask, states)
        head = self.model.output_projection
        return head_log_softmax(combined, head.weight.data, head.bias.data), new_states
