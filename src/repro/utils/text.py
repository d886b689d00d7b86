"""Text normalisation helpers shared by the schema, dataset, and NLP layers."""

from __future__ import annotations

import re
from typing import Mapping, TypeVar

T = TypeVar("T")

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_WORD = re.compile(r"[^a-z0-9_]+")
_WORD = re.compile(r"[a-z0-9]+")
_WHITESPACE = re.compile(r"\s+")
_UNDERSCORES = re.compile(r"_+")
_NORMAL_IDENTIFIER = re.compile(r"[a-z0-9]+(?:_[a-z0-9]+)*")

# Irregular noun forms used by the synthetic schema generator; pluralisation is
# intentionally small because schema identifiers only need to look realistic.
_IRREGULAR_PLURALS = {
    "person": "people",
    "child": "children",
    "category": "categories",
    "company": "companies",
    "city": "cities",
    "country": "countries",
    "facility": "facilities",
    "currency": "currencies",
    "inventory": "inventories",
    "delivery": "deliveries",
    "diagnosis": "diagnoses",
    "analysis": "analyses",
    "status": "statuses",
    "address": "addresses",
    "branch": "branches",
    "match": "matches",
    "batch": "batches",
    "index": "indexes",
    "series": "series",
    "species": "species",
    "staff": "staff",
}
_IRREGULAR_SINGULARS = {plural: singular for singular, plural in _IRREGULAR_PLURALS.items()}


def camel_to_snake(name: str) -> str:
    """Convert ``CamelCase`` (or mixedCase) to ``snake_case``."""
    return _CAMEL_BOUNDARY.sub("_", name).lower()


def normalize_identifier(name: str) -> str:
    """Normalise a schema identifier to lowercase snake_case words."""
    if _NORMAL_IDENTIFIER.fullmatch(name):
        # Already normal -- true of every name that has been through here
        # once, which is nearly every name that comes back.
        return name
    snake = camel_to_snake(name.strip())
    snake = snake.replace("-", "_").replace(" ", "_")
    snake = _NON_WORD.sub("_", snake)
    return _UNDERSCORES.sub("_", snake).strip("_")


def lookup_identifier(mapping: Mapping[str, T], name: str) -> T | None:
    """``mapping``'s value for ``name``, its keys being normalised identifiers.

    The name is tried as given before it is normalised: names the program
    made itself are already normal, and those are nearly all it looks up.
    """
    found = mapping.get(name)
    if found is None:
        found = mapping.get(normalize_identifier(name))
    return found


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace and strip the ends."""
    return _WHITESPACE.sub(" ", text).strip()


def tokenize_text(text: str) -> list[str]:
    """Lowercase word tokenisation used for retrieval and the router."""
    return _WORD.findall(text.lower().replace("_", " "))


def pluralize(word: str) -> str:
    """Return a plausible plural form of an English noun."""
    if word in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[word]
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    if word.endswith("y") and len(word) > 1 and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


def singularize(word: str) -> str:
    """Best-effort inverse of :func:`pluralize`."""
    if word in _IRREGULAR_SINGULARS:
        return _IRREGULAR_SINGULARS[word]
    if word.endswith("ies") and len(word) > 3:
        return word[:-3] + "y"
    if word.endswith("es") and word[:-2].endswith(("s", "x", "z", "ch", "sh")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word
