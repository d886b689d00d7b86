"""Shared utilities: seeded randomness, text normalisation, timing, tables,
bounded memos."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SeededRng": "repro.utils.rng",
    "derive_seed": "repro.utils.rng",
    "evict_oldest": "repro.utils.memo",
    "camel_to_snake": "repro.utils.text",
    "normalize_identifier": "repro.utils.text",
    "normalize_whitespace": "repro.utils.text",
    "pluralize": "repro.utils.text",
    "singularize": "repro.utils.text",
    "tokenize_text": "repro.utils.text",
    "Stopwatch": "repro.utils.timing",
    "ResultTable": "repro.utils.tables",
    "lazy_exports": "repro.utils.lazy",
})
