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
:meth:`Seq2SeqModel.decode_step_numpy_batch_fast` is its throughput-first
sibling (the ``fast`` decode tier): slot-dense flat GEMMs and batched
attention, same math, no row-stability guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.nn.autograd import Tensor, stack_rows
from repro.nn.modules import Embedding, Linear, Module
from repro.utils.rng import SeededRng


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


class Seq2SeqModel(Module):
    """Encoder-decoder with attention; see the module docstring."""

    def __init__(self, config: Seq2SeqConfig) -> None:
        self.config = config
        rng = SeededRng(config.seed)
        dim, hidden = config.embedding_dim, config.hidden_dim
        self.source_embedding = Embedding(config.source_vocab_size, dim, rng.child("src_emb"),
                                          name="source_embedding")
        self.encoder_projection = Linear(dim, hidden, rng.child("enc_proj"), name="encoder_projection")
        self.state_init = Linear(hidden, hidden, rng.child("state_init"), name="state_init")
        self.target_embedding = Embedding(config.target_vocab_size, dim, rng.child("tgt_emb"),
                                          name="target_embedding")
        self.input_projection = Linear(dim, hidden, rng.child("w_in"), bias=False,
                                       name="input_projection")
        self.recurrent_projection = Linear(hidden, hidden, rng.child("w_hh"),
                                           name="recurrent_projection")
        self.combine_projection = Linear(2 * hidden, hidden, rng.child("combine"),
                                         name="combine_projection")
        self.output_projection = Linear(hidden, config.target_vocab_size, rng.child("out"),
                                        name="output_projection")

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
        # One (1, d) matmul slice per token: per-token results are then
        # independent of the sequence's length and of any batching, so
        # :meth:`encode_numpy_batch` can reproduce them bit-for-bit.
        memory = np.tanh(
            np.matmul(embedded[:, None, :],
                      self.encoder_projection.weight.data)[:, 0, :]
            + self.encoder_projection.bias.data)                        # (T, h)
        pooled = memory.mean(axis=0)
        state = np.tanh(pooled @ self.state_init.weight.data + self.state_init.bias.data)
        return EncodedSource(memory=memory, mask=np.ones(len(ids)), state=state)

    def encode_numpy_batch(self, source_ids_batch: list[list[int]],
                           pad_id: int = 0) -> list[EncodedSource]:
        """Encode several source sequences at once for decoding.

        The embedding lookup and encoder projection run as one stacked matmul
        over every token of the padded batch (the expensive part), then each
        item's memory is sliced back to its true length.  The stack presents
        one ``(1, d)`` slice per token to BLAS -- the same shape
        :meth:`encode_numpy` uses -- so each question encodes to *bit-identical*
        doubles no matter which micro-batch it arrives in: routes, and
        therefore caches and cross-shard merges, never depend on batch
        composition.  Empty sequences encode as a single ``pad_id`` token,
        exactly as in :meth:`encode_numpy`.
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
        projected = np.matmul(embedded.reshape(batch_size * length, 1, dim),
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
                                states: np.ndarray, previous_ids: np.ndarray,
                                augmented_memory: np.ndarray | None = None
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``R`` decoder beams with one stacked step.

        ``memory`` is ``(R, T, h)`` (zero-padded along ``T``), ``memory_mask``
        ``(R, T)`` bool (True at real source positions), ``states`` ``(R, h)``,
        ``previous_ids`` ``(R,)``.  ``augmented_memory`` is an optional
        precomputed ``(R, T, h+1)`` copy of ``memory`` with a ones column
        appended (hot callers build it once per decode instead of per step);
        built here when absent.  Returns (log-probabilities ``(R, V)``, new
        states ``(R, h)``).

        Bit-exactness contract: row ``r`` of the result depends only on row
        ``r`` of the inputs, and is invariant both to the number of other rows
        in the batch and to how far ``T`` is zero-padded.  A beam therefore
        decodes to identical doubles whether it runs alone (the ``loop``
        backend, via :meth:`decode_step_numpy`) or stacked with the rest of a
        micro-batch (the ``vectorized`` backend).  The contract dictates the
        numerics used here:

        * the fixed-dimension projections run as stacked ``(R, 1, k) @ (k, n)``
          matmuls -- BLAS sees one ``(1, k)`` slice per row, so per-row results
          cannot depend on ``R`` (a flat ``(R, k) @ (k, n)`` GEMM does not have
          that property: OpenBLAS picks different kernels for different row
          counts);
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
        combined, new_states = self.decode_trunk_numpy_batch(
            self.target_embedding.weight.data[previous_ids], memory, memory_mask,
            states, augmented_memory)
        return (head_log_softmax(combined, self.output_projection.weight.data,
                                 self.output_projection.bias.data), new_states)

    def decode_trunk_numpy_batch(self, previous_embedded: np.ndarray,
                                 memory: np.ndarray, memory_mask: np.ndarray,
                                 states: np.ndarray,
                                 augmented_memory: np.ndarray | None = None
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """The exact kernel up to the output head: ``(R, d)`` previous-token
        embeddings in, (pre-head activations ``(R, h)``, new states ``(R, h)``)
        out, under the bit-exactness contract of
        :meth:`decode_step_numpy_batch` -- which is this plus the model's own
        head; :class:`WaveDecodeKernel` puts other heads on the same trunk."""
        pre_activation = (
            np.matmul(previous_embedded[:, None, :], self.input_projection.weight.data)
            + np.matmul(states[:, None, :], self.recurrent_projection.weight.data)
        )[:, 0, :] + self.recurrent_projection.bias.data
        new_states = np.tanh(pre_activation)                                    # (R, h)

        scores = np.einsum("rth,rh->rt", memory, new_states)                    # (R, T)
        scores = np.where(memory_mask, scores, -np.inf)
        scores = scores - scores.max(axis=1, keepdims=True)
        attention = np.exp(scores)                                              # pads -> 0.0
        rows, length, hidden = memory.shape
        if augmented_memory is None:
            augmented_memory = np.concatenate(
                [memory, np.ones((rows, length, 1))], axis=2)                   # (R, T, h+1)
        pooled = np.einsum("rt,rth->rh", attention, augmented_memory)           # (R, h+1)
        context = pooled[:, :hidden] / pooled[:, hidden:]                       # (R, h)

        combined = np.tanh(
            np.matmul(np.concatenate([new_states, context], axis=1)[:, None, :],
                      self.combine_projection.weight.data)[:, 0, :]
            + self.combine_projection.bias.data)
        return combined, new_states

    def fast_input_table(self) -> np.ndarray:
        """The fused ``(V, h)`` previous-token table for the fast kernel.

        ``embedding @ W_in + b_hh`` precomputed for every vocabulary entry,
        so each fast step replaces an embedding gather, a GEMM, and two bias
        adds with a single table gather.  Computed fresh on each call (one
        small ``(V, d) @ (d, h)`` GEMM) -- hot callers grab it once per
        decode and pass it to every step, which keeps it trivially coherent
        with the live weights.
        """
        return (self.target_embedding.weight.data
                @ self.input_projection.weight.data
                + self.recurrent_projection.bias.data)

    def decode_step_numpy_batch_fast(self, memory: np.ndarray, memory_mask: np.ndarray,
                                     states: np.ndarray, previous_ids: np.ndarray,
                                     input_table: np.ndarray | None = None,
                                     memory_t: np.ndarray | None = None
                                     ) -> tuple[np.ndarray, np.ndarray]:
        """The throughput-first, slot-dense sibling of
        :meth:`decode_step_numpy_batch`.

        Advances ``S`` beam slots of each of ``Q`` questions at once:
        ``memory`` is ``(Q, T, h)`` (zero-padded along ``T``), ``memory_mask``
        ``(Q, T)`` bool, ``states`` ``(Q, S, h)``, ``previous_ids`` ``(Q,
        S)``.  Returns (log-probabilities ``(Q, S, V)``, new states ``(Q, S,
        h)``).  Same math as the exact kernel, but every fixed-dimension
        projection runs as one true flat ``(Q*S, k) @ (k, n)`` GEMM (the
        ``(Q*S, h) @ (h, V)`` output projection is the dominant cost) and
        attention contracts as batched ``(Q, S, h) @ (Q, h, T)`` / ``(Q, S,
        T) @ (Q, T, h)`` matmuls with an ordinary row-sum softmax normalizer
        -- no per-row ``(R, 1, k)`` slice stabilization, no padding-exact
        einsum forms, and crucially no per-step row gathers: callers keep
        their slot grid resident and hand the kernel whole-array views.

        That freedom is exactly what breaks the exact kernel's bit-exactness
        contract: BLAS picks different micro-kernels (different partial-sum
        regroupings) for different row counts, so a beam's doubles may drift
        in the last ulps with batch composition.  The ``fast`` decode backend
        therefore trades bit-identity for *tolerance-checked* agreement
        (seeded top-1 agreement gates in
        ``benchmarks/bench_decode_throughput.py`` and CI); anything that must
        be reproducible to the bit stays on :meth:`decode_step_numpy_batch`.
        ``input_table`` is the :meth:`fast_input_table` fusion of the
        previous-token embedding and input projection, and ``memory_t`` a
        C-contiguous ``(Q, h, T)`` transpose of ``memory``; hot callers
        compute both once per decode, and they are rebuilt here when absent.
        """
        if input_table is None:
            input_table = self.fast_input_table()
        if memory_t is None:
            memory_t = np.ascontiguousarray(memory.transpose(0, 2, 1))
        combined, new_states = self.decode_trunk_numpy_batch_fast(
            input_table[previous_ids.reshape(-1)], memory, memory_mask, states, memory_t)
        log_probabilities = head_log_softmax(
            combined, self.output_projection.weight.data,
            self.output_projection.bias.data, row_stable=False)
        return (log_probabilities.reshape(states.shape[:2] + (-1,)), new_states)

    def decode_trunk_numpy_batch_fast(self, previous_inputs: np.ndarray,
                                      memory: np.ndarray, memory_mask: np.ndarray,
                                      states: np.ndarray, memory_t: np.ndarray
                                      ) -> tuple[np.ndarray, np.ndarray]:
        """The fast kernel up to the output head: ``(Q*S, h)`` gathered
        :meth:`fast_input_table` rows in, (pre-head activations ``(Q*S, h)``,
        new states ``(Q, S, h)``) out; :class:`WaveDecodeKernel` gathers from
        per-shard tables and puts other heads on the same trunk."""
        questions, slots, hidden = states.shape
        new_states = np.tanh(
            previous_inputs
            + states.reshape(questions * slots, hidden)
            @ self.recurrent_projection.weight.data)                            # (Q*S, h)
        states3 = new_states.reshape(questions, slots, hidden)

        scores = np.matmul(states3, memory_t)                                   # (Q, S, T)
        if not memory_mask.all():
            scores = np.where(memory_mask[:, None, :], scores, -np.inf)
        # Both attention operands are tanh outputs, so |score| <= hidden and
        # the exp cannot overflow at ordinary widths -- the max-subtraction
        # is only needed (and only paid) when hidden approaches the float64
        # exp limit of ~709.
        if hidden > 512:
            scores = scores - scores.max(axis=2, keepdims=True)
        attention = np.exp(scores)                                              # pads -> 0.0
        attention /= attention.sum(axis=2, keepdims=True)
        context = np.matmul(attention, memory)                                  # (Q, S, h)

        combined = np.tanh(
            np.concatenate([new_states, context.reshape(-1, hidden)], axis=1)
            @ self.combine_projection.weight.data
            + self.combine_projection.bias.data)                                # (Q*S, h)
        return combined, states3

    # The slot-dense engine's kernel protocol (``WaveDecodeKernel`` speaks it
    # too): a per-search previous-token table, a resident memory operand the
    # engine rebuilds whenever compaction shrinks ``memory``, and the step.
    dense_input_table = fast_input_table

    @staticmethod
    def dense_memory(memory: np.ndarray, memory_mask: np.ndarray,
                     slots: int) -> np.ndarray:
        return np.ascontiguousarray(memory.transpose(0, 2, 1))                  # (Q, h, T)

    def dense_step(self, memory: np.ndarray, memory_mask: np.ndarray,
                   states: np.ndarray, previous_ids: np.ndarray,
                   input_table: np.ndarray, resident: np.ndarray,
                   tags: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        return self.decode_step_numpy_batch_fast(
            memory, memory_mask, states, previous_ids,
            input_table=input_table, memory_t=resident)


def head_log_softmax(combined: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     row_stable: bool = True) -> np.ndarray:
    """``log_softmax(combined @ weight + bias)`` per row, ``(R, h) -> (R, V)``.

    ``row_stable`` (the exact kernel) runs the projection as stacked
    ``(R, 1, h) @ (h, V)`` matmuls, so a row's doubles do not depend on which
    other rows share the call; the fast kernel's flat GEMM does not promise
    that."""
    logits = (np.matmul(combined[:, None, :], weight)[:, 0, :] if row_stable
              else combined @ weight) + bias
    logits = logits - logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class VocabularySlice:
    """Mapping from a sliced target vocabulary back to the master output head.

    A sliced shard model keeps only its sub-catalog's rows of the target
    embedding and output projection, so its per-step log-softmax normalizes
    over the *slice* -- scores inflate by exactly ``-log(slice probability
    mass)`` per step relative to the master vocabulary, and the inflation is
    largest precisely on shards the question does *not* belong to.  No
    per-shard constant can undo that, so calibration is exact instead:
    finished hypotheses are replayed teacher-forced through the shared trunk
    with the full master head (:func:`rescore_token_sequences`), which
    reproduces the global-vocabulary score.  This record carries what the
    replay needs: the kept master row ids (ascending; the special tokens'
    head is always kept, so special ids coincide between slice and master)
    and the master head parameters.
    """

    kept_ids: np.ndarray       # (V_slice,) int64, ascending master row ids
    output_weight: np.ndarray  # (h, V_master) master output projection weight
    output_bias: np.ndarray    # (V_master,) master output projection bias


def rescore_token_sequences(model: "Seq2SeqModel",
                            encoded_list: list[EncodedSource],
                            sequences: list[list[int]],
                            vocabulary_slice: VocabularySlice,
                            bos_id: int = 1) -> np.ndarray:
    """Exact master-vocabulary log-probabilities of sliced decodes.

    Replays each token sequence (sliced-vocabulary ids, *including* the
    trailing EOS for finished hypotheses) teacher-forced through ``model``'s
    trunk, scoring every step against the full master head carried by
    ``vocabulary_slice``.  The decoder state recursion never touches the
    output head and the sliced embedding rows are the master's kept rows, so
    the replayed trunk states match a master-vocabulary decode of the same
    path -- the returned score is the global score the master model would
    have assigned, up to GEMM regrouping noise.

    Runs fast-kernel style: all rows advance together, one flat output GEMM
    per step over the rows still inside their sequence.  Returns ``(R,)``
    summed log-probabilities (zeros for empty sequences).
    """
    if not sequences:
        return np.zeros(0)
    lengths = np.asarray([len(sequence) for sequence in sequences], dtype=np.int64)
    max_length = int(lengths.max())
    scores = np.zeros(len(sequences))
    if max_length == 0:
        return scores
    hidden = model.config.hidden_dim
    rows = len(sequences)
    memory_length = max(encoded.memory.shape[0] for encoded in encoded_list)
    memory = np.zeros((rows, memory_length, hidden))
    memory_mask = np.zeros((rows, memory_length), dtype=bool)
    states = np.empty((rows, hidden))
    for row, encoded in enumerate(encoded_list):
        true_length = encoded.memory.shape[0]
        memory[row, :true_length] = encoded.memory
        memory_mask[row, :true_length] = np.asarray(encoded.mask) != 0.0
        states[row] = encoded.state
    memory_t = np.ascontiguousarray(memory.transpose(0, 2, 1))
    targets = np.zeros((rows, max_length), dtype=np.int64)
    for row, sequence in enumerate(sequences):
        targets[row, : len(sequence)] = sequence

    input_table = model.fast_input_table()
    recurrent_weight = model.recurrent_projection.weight.data
    combine_weight = model.combine_projection.weight.data
    combine_bias = model.combine_projection.bias.data
    kept_ids = vocabulary_slice.kept_ids
    head_weight = vocabulary_slice.output_weight
    head_bias = vocabulary_slice.output_bias
    all_visible = bool(memory_mask.all())

    previous = np.full(rows, bos_id, dtype=np.int64)
    for step in range(max_length):
        active = np.nonzero(step < lengths)[0]
        new_states = np.tanh(input_table[previous] + states @ recurrent_weight)
        attention_scores = np.matmul(new_states[:, None, :], memory_t)[:, 0, :]
        if not all_visible:
            attention_scores = np.where(memory_mask, attention_scores, -np.inf)
        if hidden > 512:
            attention_scores = attention_scores - attention_scores.max(axis=1, keepdims=True)
        attention = np.exp(attention_scores)
        attention /= attention.sum(axis=1, keepdims=True)
        context = np.matmul(attention[:, None, :], memory)[:, 0, :]
        combined = np.tanh(
            np.concatenate([new_states, context], axis=1) @ combine_weight + combine_bias)
        logits = combined[active] @ head_weight + head_bias                     # (A, V_master)
        logits = logits - logits.max(axis=1, keepdims=True)
        normalizers = np.log(np.exp(logits).sum(axis=1))
        master_targets = kept_ids[targets[active, step]]
        scores[active] += logits[np.arange(len(active)), master_targets] - normalizers
        states = new_states
        previous = np.where(step < lengths, targets[:, step], 0)
    return scores


class WaveDecodeKernel:
    """One decode stream over several shard models of one trunk.

    Speaks the slot-dense engine's kernel protocol (``config``,
    :meth:`dense_input_table`, :meth:`dense_memory`, :meth:`dense_step`),
    batching every shard's beams of a scatter wave into one step call.  All
    shard models must share the trunk modules by reference (they do:
    :func:`repro.cluster.shard.project_router` either reuses the master model
    outright or shares its trunk into a sliced twin); only the target
    embedding / output head may differ per shard.  Each question row carries
    a shard ``tag``; the previous-token gather indexes a stacked per-shard
    table, and the output head is the master's: shared outright by unsliced
    shards, or -- calibrated-head mode, every shard a slice of one master
    head -- normalized over the *master* vocabulary with each shard's kept
    columns gathered into a ``-inf``-padded common-width grid, so the
    engine's top-k machinery is untouched and emitted scores are exact
    master-vocabulary scores.

    ``row_stable`` picks the numerics, like ``RouterConfig.decode_backend``
    does for one router.  True (the default) steps through the *exact*
    kernel (:meth:`Seq2SeqModel.decode_trunk_numpy_batch`): a (shard,
    question) row decodes to the same doubles whatever else shares its wave
    -- other questions, other shards, cache hits thinning the stack, longer
    neighbours padding ``T`` -- so a cluster answers a question identically
    in every wave, bit for bit the pool path's answer for unsliced shards;
    the gain is one step loop for the whole fleet.  False steps through the
    fast kernel's flat GEMMs (:meth:`Seq2SeqModel.decode_trunk_numpy_batch_fast`)
    -- measured ~1.4x the exact wave's questions/s -- under the ``fast``
    backend's contract: scores may drift in the last ulps with wave
    composition.
    """

    _TRUNK_MODULES = ("source_embedding", "encoder_projection", "state_init",
                      "input_projection", "recurrent_projection",
                      "combine_projection")

    def __init__(self, models: list[Seq2SeqModel] | tuple[Seq2SeqModel, ...],
                 vocabulary_slices: Sequence[VocabularySlice | None] | None = None,
                 row_stable: bool = True) -> None:
        if not models:
            raise ValueError("a wave kernel needs at least one shard model")
        self.models = list(models)
        self.row_stable = row_stable
        base = self.models[0]
        for model in self.models[1:]:
            for attribute in self._TRUNK_MODULES:
                if getattr(model, attribute) is not getattr(base, attribute):
                    raise ValueError(
                        f"wave decode requires shard models sharing one trunk; "
                        f"{attribute!r} differs")
        self.vocab_width = max(model.config.target_vocab_size for model in self.models)
        self.config = replace(base.config, target_vocab_size=self.vocab_width)
        slices = list(vocabulary_slices or [None] * len(self.models))
        if len(slices) != len(self.models):
            raise ValueError("one vocabulary slice (or None) per shard model")
        # Calibrated-head mode: every shard is a slice of one master head.
        self.calibrated_head = all(
            vocabulary_slice is not None
            and vocabulary_slice.output_weight is slices[0].output_weight
            and vocabulary_slice.output_bias is slices[0].output_bias
            for vocabulary_slice in slices)
        if self.calibrated_head:
            self.head_weight, self.head_bias = (slices[0].output_weight,
                                                slices[0].output_bias)
            self.kept_ids = [vocabulary_slice.kept_ids for vocabulary_slice in slices]
        elif not any(slices) and all(
                model.output_projection is base.output_projection
                for model in self.models):
            self.head_weight = base.output_projection.weight.data
            self.head_bias = base.output_projection.bias.data
        else:
            raise ValueError(
                "wave decode requires shards that all decode the master head "
                "or all slice one shared master head")

    def dense_input_table(self) -> np.ndarray:
        """Per-shard previous-token tables, stacked ``(K * Vmax, ·)``: target
        embeddings when ``row_stable``, fused :meth:`Seq2SeqModel.fast_input_table`
        rows otherwise.

        Shard ``k``'s rows occupy ``[k * Vmax, k * Vmax + V_k)``; the gather
        offset is ``tag * Vmax + previous_id``.  Pad rows stay zero and are
        never gathered (a shard's previous ids are < ``V_k``).
        """
        tables = [model.target_embedding.weight.data if self.row_stable
                  else model.fast_input_table() for model in self.models]
        table = np.zeros((len(tables) * self.vocab_width, tables[0].shape[1]))
        for shard, shard_table in enumerate(tables):
            start = shard * self.vocab_width
            table[start : start + shard_table.shape[0]] = shard_table
        return table

    def dense_memory(self, memory: np.ndarray, memory_mask: np.ndarray, slots: int):
        """What a step reads besides the grid, built once per search and per
        compaction: the fast trunk's ``(Q, h, T)`` transpose, or the exact
        trunk's per-beam-row ``(Q*S, T, ·)`` memory, mask and ones-augmented
        memory."""
        if not self.row_stable:
            return Seq2SeqModel.dense_memory(memory, memory_mask, slots)
        memory = np.repeat(memory, slots, axis=0)
        return (memory, np.repeat(memory_mask, slots, axis=0),
                np.concatenate([memory, np.ones(memory.shape[:2] + (1,))], axis=2))

    def dense_step(self, memory: np.ndarray, memory_mask: np.ndarray,
                   states: np.ndarray, previous_ids: np.ndarray,
                   input_table: np.ndarray, resident,
                   tags: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """One step for a shard-tagged wave: :meth:`Seq2SeqModel.dense_step`'s
        shapes plus ``tags`` ``(Q,)``, the shard index of each question row.

        Columns ``>= V_k`` of a shard's rows come back ``-inf``, so padded
        vocabulary slots can never win a top-k.
        """
        if tags is None:
            raise ValueError("the wave kernel needs per-question shard tags")
        questions, slots, hidden = states.shape
        previous_inputs = input_table[
            (previous_ids + tags[:, None] * self.vocab_width).reshape(-1)]
        if self.row_stable:
            combined, new_states = self.models[0].decode_trunk_numpy_batch(
                previous_inputs, resident[0], resident[1],
                states.reshape(questions * slots, hidden), resident[2])
        else:
            combined, new_states = self.models[0].decode_trunk_numpy_batch_fast(
                previous_inputs, memory, memory_mask, states, resident)
        log_probabilities = head_log_softmax(combined, self.head_weight,
                                             self.head_bias, self.row_stable)
        if self.calibrated_head:
            # Normalizing over the master vocabulary is the calibration; what
            # is left per shard is a kept-column gather.
            master_log_probabilities = log_probabilities
            log_probabilities = np.full((questions * slots, self.vocab_width), -np.inf)
            flat_tags = np.repeat(tags, slots)
            for shard, kept_ids in enumerate(self.kept_ids):
                rows = np.nonzero(flat_tags == shard)[0]
                if rows.size:
                    log_probabilities[rows, : len(kept_ids)] = \
                        master_log_probabilities[rows][:, kept_ids]
        return (log_probabilities.reshape(questions, slots, -1),
                new_states.reshape(questions, slots, hidden))
