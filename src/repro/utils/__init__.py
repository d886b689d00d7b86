"""Shared utilities: seeded randomness, text normalisation, timing, tables,
bounded memos."""

from repro.utils.memo import evict_oldest
from repro.utils.rng import SeededRng, derive_seed
from repro.utils.text import (
    camel_to_snake,
    normalize_identifier,
    normalize_whitespace,
    pluralize,
    singularize,
    tokenize_text,
)
from repro.utils.timing import Stopwatch
from repro.utils.tables import ResultTable

__all__ = [
    "SeededRng",
    "derive_seed",
    "evict_oldest",
    "camel_to_snake",
    "normalize_identifier",
    "normalize_whitespace",
    "pluralize",
    "singularize",
    "tokenize_text",
    "Stopwatch",
    "ResultTable",
]
