"""Prefix trie over token-id sequences.

Constrained decoding maintains "a dynamic prefix tree containing the names of
accessible nodes from decoded schema elements" (paper §3.5).  The trie maps
the word-id decomposition of each accessible identifier to the identifier, so
that at every decoding step the set of allowed next tokens is the set of trie
children under the already-decoded word prefix.

The constraint automaton carries a cursor through the search
(:meth:`PrefixTrie.root` / :meth:`PrefixTrie.child` /
:meth:`PrefixTrie.node_identifiers`), paying O(1) per consumed token; it
resolves a state's allowed ids once with the prefix queries
(:meth:`PrefixTrie.allowed_next` / :meth:`PrefixTrie.is_terminal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class _TrieNode:
    children: dict[int, "_TrieNode"] = field(default_factory=dict)
    #: Identifiers whose word decomposition ends exactly at this node.
    terminals: list[str] = field(default_factory=list)


class PrefixTrie:
    """A trie keyed by token ids, storing identifier strings at terminals."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def insert(self, token_ids: Sequence[int], identifier: str) -> None:
        """Insert one identifier under its token-id decomposition."""
        node = self._root
        for token_id in token_ids:
            node = node.children.setdefault(int(token_id), _TrieNode())
        node.terminals.append(identifier)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    # -- cursor API ----------------------------------------------------------
    def root(self) -> _TrieNode:
        """The cursor at the empty prefix (``node_at(())``, but O(1))."""
        return self._root

    @staticmethod
    def child(node: _TrieNode | None, token_id: int) -> _TrieNode | None:
        """Advance a cursor by one token; ``None`` stays ``None`` (dead walk)."""
        if node is None:
            return None
        return node.children.get(int(token_id))

    @staticmethod
    def node_identifiers(node: _TrieNode | None) -> list[str]:
        """Identifiers ending exactly at the cursor."""
        return list(node.terminals) if node is not None else []

    # -- queries -------------------------------------------------------------
    def node_at(self, prefix: Sequence[int]) -> _TrieNode | None:
        node = self._root
        for token_id in prefix:
            node = node.children.get(int(token_id))
            if node is None:
                return None
        return node

    def allowed_next(self, prefix: Sequence[int]) -> set[int]:
        """Token ids that can extend ``prefix`` towards some identifier."""
        node = self.node_at(prefix)
        if node is None:
            return set()
        return set(node.children.keys())

    def is_terminal(self, prefix: Sequence[int]) -> bool:
        """Whether ``prefix`` spells a complete identifier."""
        node = self.node_at(prefix)
        return bool(node and node.terminals)
