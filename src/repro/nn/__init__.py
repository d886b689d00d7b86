"""Neural-network substrate.

The paper's schema router and schema questioner are T5-base Seq2Seq models
fine-tuned with HF transformers on GPUs.  Neither the library nor the hardware
is available offline, so this package provides a from-scratch substitute: a
small reverse-mode autodiff engine over numpy arrays (:mod:`repro.nn.autograd`),
basic modules (:mod:`repro.nn.modules`), an attention-based encoder-decoder
(:mod:`repro.nn.seq2seq`), AdamW with a linear schedule (:mod:`repro.nn.optim`),
a word-level tokenizer (:mod:`repro.nn.tokenizer`), batching utilities, a
trainer, and diverse beam search with pluggable constraints
(:mod:`repro.nn.decoding`).

The substitution preserves what matters for the reproduction: the router is a
parameterised Seq2Seq model that memorises serialized schemata and decodes
them autoregressively under graph constraints, exactly as the paper's DSI
does -- only smaller.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Tensor": "repro.nn.autograd",
    "Embedding": "repro.nn.modules",
    "Linear": "repro.nn.modules",
    "Module": "repro.nn.modules",
    "Parameter": "repro.nn.modules",
    "SpecialTokens": "repro.nn.tokenizer",
    "Vocabulary": "repro.nn.tokenizer",
    "WordTokenizer": "repro.nn.tokenizer",
    "Seq2SeqConfig": "repro.nn.seq2seq",
    "Seq2SeqModel": "repro.nn.seq2seq",
    "AdamW": "repro.nn.optim",
    "LinearSchedule": "repro.nn.optim",
    "Batch": "repro.nn.data",
    "pad_batch": "repro.nn.data",
    "Seq2SeqTrainer": "repro.nn.trainer",
    "TrainerConfig": "repro.nn.trainer",
    "BeamHypothesis": "repro.nn.decoding",
    "diverse_beam_search_batch": "repro.nn.decoding",
    "diverse_beam_search_loop": "repro.nn.decoding",
})
