"""The prefix-walk constraint interpreter, kept verbatim as a test oracle.

``repro.core.constrained.GraphConstrainedDecoding`` is one automaton: a beam
carries a ``ConstraintState`` and pays O(1) per emitted token.  Before it was
the only interpreter, the class also re-parsed a beam's whole prefix on every
query -- ``interpret`` / ``_commit_element`` below, with the ``allowed_tokens``
/ ``allowed_mask`` faces built on them.  That code lives on here: the two
interpreter bodies unchanged except that they read the tries of the
constraint they wrap and spell the retired ``PrefixTrie.identifiers_at``
through ``node_at``; the two faces resolve an interpretation through the
wrapped constraint's ``_allowed_for_state``, uncached.
``tests/test_constrained_incremental.py`` checks the automaton against it token
by token, and ``tests/test_oracle_independence.py`` decodes through it.

:class:`PrefixConstraint` puts any ``prefix -> allowed ids`` function behind
the decoders' one state protocol; wrapping :meth:`PrefixWalkConstraint.allowed_tokens`
in it gives a decoder that never touches an automaton state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.constrained import GraphConstrainedDecoding
from repro.core.trie import PrefixTrie


@dataclass
class _DecodedState:
    """The interpretation of a decoded prefix."""

    database: str | None = None
    tables: tuple[str, ...] = ()
    current_words: tuple[int, ...] = ()
    complete: bool = False  # True when the last token was a separator


def _identifiers_at(trie: PrefixTrie, prefix) -> list[str]:
    return PrefixTrie.node_identifiers(trie.node_at(prefix))


class PrefixWalkConstraint:
    """The prefix-walk interpreter over ``constraint``'s catalog."""

    def __init__(self, constraint: GraphConstrainedDecoding) -> None:
        self.constraint = constraint
        self.vocabulary = constraint.vocabulary
        self._database_trie = constraint._database_trie
        self._table_trie = constraint._table_trie

    # -- prefix interpretation -----------------------------------------------------
    def interpret(self, prefix: list[int] | tuple[int, ...]) -> _DecodedState:
        """Parse the decoded prefix into (database, tables, current element)."""
        separator = self.vocabulary.sep_id
        state = _DecodedState(complete=True)
        element: list[int] = []
        for token in prefix:
            if token == separator:
                if not element:
                    continue
                state = self._commit_element(state, tuple(element))
                element = []
            else:
                element.append(int(token))
        if element:
            state.current_words = tuple(element)
            state.complete = False
        else:
            state.current_words = ()
            state.complete = True
        return state

    def _commit_element(self, state: _DecodedState, words: tuple[int, ...]) -> _DecodedState:
        if state.database is None:
            matches = _identifiers_at(self._database_trie, words)
            database = matches[0] if matches else None
            return _DecodedState(database=database, tables=(), complete=True)
        matches = _identifiers_at(self._table_trie(state.database), words)
        if matches and matches[0] not in state.tables:
            return _DecodedState(database=state.database,
                                 tables=state.tables + (matches[0],), complete=True)
        return _DecodedState(database=state.database, tables=state.tables, complete=True)

    # -- the constraint callable ------------------------------------------------------
    def allowed_tokens(self, prefix: list[int] | tuple[int, ...]) -> frozenset[int]:
        """Token ids allowed after ``prefix``."""
        size = len(self.vocabulary)
        return frozenset(token for token in
                         self.constraint._allowed_for_state(self.interpret(prefix))
                         if 0 <= token < size)

    def allowed_mask(self, prefix: list[int] | tuple[int, ...]) -> np.ndarray:
        """A boolean mask over the vocabulary of the tokens allowed next."""
        mask = np.zeros(len(self.vocabulary), dtype=bool)
        mask[sorted(self.allowed_tokens(prefix))] = True
        return mask

    def __call__(self, prefix: list[int] | tuple[int, ...]) -> frozenset[int]:
        return self.allowed_tokens(prefix)


class PrefixConstraint:
    """``allowed(prefix)`` behind the decoders' state protocol.

    A state is the prefix itself -- the root is a *falsy* ``()``, which no
    decoder may mind -- and its ids are ``sorted(allowed(prefix))``, or
    ``None`` where ``allowed`` leaves the prefix open.  It keeps no cache and
    makes no automaton state, so the decode span's counters read zero."""

    mask_cache_hits = mask_cache_misses = constraint_states = 0

    def __init__(self, allowed) -> None:
        self.allowed = allowed

    def initial_state(self) -> tuple[int, ...]:
        return ()

    def advance(self, state: tuple[int, ...], token: int) -> tuple[int, ...]:
        return state + (int(token),)

    def allowed_ids_for_state(self, state: tuple[int, ...]) -> list[int] | None:
        allowed = self.allowed(state)
        return None if allowed is None else sorted(allowed)
