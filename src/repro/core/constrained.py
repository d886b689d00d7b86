"""Graph-based constrained decoding (paper §3.5, Figure 4).

At each autoregressive step the decoder may only emit tokens that extend the
prefix towards a *valid* serialized schema:

* the first element must spell the name of a database of the catalog;
* subsequent elements must spell tables of that database; once at least one
  table has been generated, the accessible tables are restricted to graph
  neighbours of the already-generated tables (not arbitrary tables of the
  database), mirroring how a SQL query's tables must be connected;
* the element separator is only allowed when the current word prefix spells a
  complete identifier, and EOS only after at least one complete table.

The constraint is exposed as a callable compatible with
:func:`repro.nn.decoding.diverse_beam_search`, and resolves every interpreter
state once into two cached faces of the same answer: the allowed token *ids*
(an ascending tuple, typically one to a few tokens -- all the batched decode
engine ever ranks) and a read-only boolean *mask* over the vocabulary (what
the loop oracle and greedy decoding apply with ``np.where``).

Two interpretation paths lead to those resolutions:

* the *prefix-walk oracle*: :meth:`GraphConstrainedDecoding.interpret` re-parses
  a beam's full prefix (O(len) Python + trie lookups) -- the reference
  semantics, used by the ``loop`` decode backend and the differential tests
  through :meth:`GraphConstrainedDecoding.allowed_mask`;
* the *incremental path*: each beam carries a :class:`ConstraintState` through
  the search and pays O(1) per emitted token --
  :meth:`GraphConstrainedDecoding.advance` consumes one token via the trie
  cursor API and :meth:`GraphConstrainedDecoding.allowed_ids_for_state`
  hands out the state's ids without ever touching the prefix again.  The two
  paths are exactly equivalent by construction (``advance`` mirrors one loop
  iteration of ``interpret``), which ``tests/test_constrained_incremental.py``
  enforces differentially.  The states form an automaton that is a function
  of the catalog, not of the question, so it belongs to the constraint object:
  every search starts from the one persistent
  :meth:`GraphConstrainedDecoding.initial_state` and walks -- and grows --
  the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import SchemaGraph
from repro.core.serialization import element_words
from repro.core.trie import PrefixTrie
from repro.nn.tokenizer import Vocabulary
from repro.utils.memo import evict_oldest


@dataclass
class _DecodedState:
    """The interpretation of a decoded prefix."""

    database: str | None = None
    tables: tuple[str, ...] = ()
    current_words: tuple[int, ...] = ()
    complete: bool = False  # True when the last token was a separator


class ConstraintState:
    """An incrementally-updatable interpreter state carried by one beam.

    Semantically identical to the :class:`_DecodedState` that
    :meth:`GraphConstrainedDecoding.interpret` would produce for the beam's
    prefix, plus two private accelerators: ``node`` -- the trie cursor of the
    current element's walk in the *commit* trie (the database trie before a
    database is committed, the database's full table trie after), which makes
    :meth:`GraphConstrainedDecoding.advance` O(1) per token -- and
    ``allowed_ids``, a memoized reference to the state's allowed token ids
    (ascending), so repeated beams resolve their constraint as one attribute
    read.  The ids are the primary face: they are what the batched engine
    gathers and ranks.  ``mask`` memoizes the boolean form the same way, for
    the oracle-side consumers that still apply one.

    Instances are immutable from the search's point of view (``advance``
    returns a new state), so beams share them freely across groups,
    questions, shards' questions, searches and requests.  ``transitions``
    memoizes outgoing ``advance`` edges (token -> successor state), so a
    transition any beam of any earlier search took is one dict hit.  The tree
    is rooted at the constraint's persistent ``initial_state()`` and lives as
    long as the constraint object (the router's catalog) does, bounded by its
    ``max_cached_masks``: past the bound the constraint drops the root whole
    and the tree regrows from the next search on, while searches in flight
    keep the states they hold.
    """

    __slots__ = ("database", "tables", "current_words", "complete", "node",
                 "allowed_ids", "mask", "transitions")

    def __init__(self, database: str | None, tables: tuple[str, ...],
                 current_words: tuple[int, ...], complete: bool, node) -> None:
        self.database = database
        self.tables = tables
        self.current_words = current_words
        self.complete = complete
        self.node = node
        self.allowed_ids: tuple[int, ...] | None = None
        self.mask: np.ndarray | None = None
        self.transitions: dict[int, "ConstraintState"] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConstraintState(database={self.database!r}, "
                f"tables={self.tables!r}, current_words={self.current_words!r}, "
                f"complete={self.complete!r})")


class _MaskEntry:
    """One cached constraint resolution: ids, boolean mask, lazy token set.

    ``ids`` -- the allowed token ids, ascending -- is the primary face, the
    short list the batched engine ranks; ``mask`` says the same over the whole
    vocabulary for the loop oracle and greedy decoding.  The token set is
    derived from the ids on first request (only the set-protocol face
    :meth:`GraphConstrainedDecoding.allowed_tokens` ever asks for it), so set
    consumers pay for it once per interpreter state instead of per call.
    """

    __slots__ = ("ids", "mask", "_tokens")

    def __init__(self, ids: tuple[int, ...], mask: np.ndarray) -> None:
        self.ids = ids
        self.mask = mask
        self._tokens: frozenset[int] | None = None

    def tokens(self) -> frozenset[int]:
        if self._tokens is None:
            self._tokens = frozenset(self.ids)
        return self._tokens


class GraphConstrainedDecoding:
    """Builds the token-level constraint for a schema graph and vocabulary."""

    def __init__(self, graph: SchemaGraph, vocabulary: Vocabulary,
                 max_tables: int = 4) -> None:
        self.graph = graph
        self.vocabulary = vocabulary
        self.max_tables = max_tables
        self._database_trie = PrefixTrie()
        for database in graph.databases():
            self._database_trie.insert(self._word_ids(database), database)
        # Per-database table tries are built lazily and cached.
        self._table_tries: dict[str, PrefixTrie] = {}
        self._table_word_ids: dict[tuple[str, str], tuple[int, ...]] = {}
        # Allowed-token cache entries (ascending ids, boolean mask, lazily
        # derived token set), keyed by the interpreter state a prefix parses
        # to.  Many prefixes collapse onto one state (every beam inside a
        # database shares a handful of trie positions), so the cache turns
        # the per-step constraint from trie walks + set building into one
        # dictionary hit returning a shared tuple or ndarray.  Distinct states
        # are combinatorial in catalog size (ordered table tuples x
        # word-prefix positions), so the cache is bounded: oldest entries are
        # evicted first once ``max_cached_masks`` is reached.
        self._mask_cache: dict[tuple, _MaskEntry] = {}
        self.max_cached_masks = 4096
        # The incremental automaton: one persistent root (see
        # :meth:`initial_state`) and the number of states hanging off it,
        # held to ``max_cached_masks`` like the mask cache.
        self._root: ConstraintState | None = None
        self._tree_states = 0
        # Observability counters: memo/cache hits vs fresh mask computations,
        # and automaton states made.  Read (as before/after deltas) by
        # SchemaRouter's decode spans.
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0
        self.constraint_states = 0

    # -- helpers --------------------------------------------------------------
    def _word_ids(self, identifier: str) -> tuple[int, ...]:
        return tuple(self.vocabulary.id_of(word) for word in element_words(identifier))

    def _table_trie(self, database: str) -> PrefixTrie:
        trie = self._table_tries.get(database)
        if trie is None:
            trie = PrefixTrie()
            for table in self.graph.tables_of(database):
                ids = self._word_ids(table)
                trie.insert(ids, table)
                self._table_word_ids[(database, table)] = ids
            self._table_tries[database] = trie
        return trie

    def _restricted_trie(self, database: str, tables: tuple[str, ...]) -> PrefixTrie:
        """Trie over the tables reachable from the already-decoded tables."""
        self._table_trie(database)  # ensure word ids are cached
        allowed: set[str] = set()
        for table in tables:
            for neighbor in self.graph.table_neighbors(database, table):
                if neighbor not in tables:
                    allowed.add(neighbor)
        trie = PrefixTrie()
        for table in sorted(allowed):
            trie.insert(self._table_word_ids[(database, table)], table)
        return trie

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
            matches = self._database_trie.identifiers_at(words)
            database = matches[0] if matches else None
            return _DecodedState(database=database, tables=(), complete=True)
        matches = self._table_trie(state.database).identifiers_at(words)
        if matches and matches[0] not in state.tables:
            return _DecodedState(database=state.database,
                                 tables=state.tables + (matches[0],), complete=True)
        return _DecodedState(database=state.database, tables=state.tables, complete=True)

    # -- incremental interpretation --------------------------------------------------
    def initial_state(self) -> ConstraintState:
        """The interpreter state of the empty prefix: one persistent root.

        Every search -- every question, group, (shard, question) pair and
        request -- starts here, so the ``transitions`` / ``mask`` memos below
        the root live as long as this constraint does, and a steady-state
        decode makes no state at all (``constraint_states`` stands still).
        The tree holds at most ``max_cached_masks`` states: the state that
        would exceed the bound drops the root whole (:meth:`_new_state`), the
        next call here roots a fresh tree, and searches in flight finish on
        the states they hold.  Concurrent searches share the tree under the
        GIL without a lock: a lost race builds an equal state twice, exactly
        as the mask cache tolerates.
        """
        root = self._root
        if root is None:
            root = self._root = self._new_state(
                None, (), (), True, self._database_trie.root())
        return root

    def _new_state(self, database: str | None, tables: tuple[str, ...],
                   current_words: tuple[int, ...], complete: bool,
                   node) -> ConstraintState:
        """Make (and count) one automaton state, resetting a full tree."""
        if self._tree_states >= self.max_cached_masks:
            self._root = None
            self._tree_states = 0
        self._tree_states += 1
        self.constraint_states += 1
        return ConstraintState(database, tables, current_words, complete, node)

    def advance(self, state: ConstraintState, token: int) -> ConstraintState:
        """Consume one emitted token: O(1), no prefix re-walk.

        Exactly mirrors one loop iteration of :meth:`interpret`: a separator
        after a non-empty element commits it (database first, then tables,
        matched at the carried trie cursor instead of by a root walk); a
        separator after an empty element is skipped; any other token -- EOS
        included -- extends the current element and advances the cursor
        (``None`` once the walk leaves the trie, exactly like a failed
        ``node_at``).  Transitions are memoized per state, so beams taking a
        transition any sibling already took pay one dict hit.
        """
        token = int(token)
        transitions = state.transitions
        if transitions is None:
            transitions = state.transitions = {}
        successor = transitions.get(token)
        if successor is None:
            if token == self.vocabulary.sep_id:
                successor = state if not state.current_words \
                    else self._commit_state(state)
            else:
                successor = self._new_state(state.database, state.tables,
                                            state.current_words + (token,), False,
                                            PrefixTrie.child(state.node, token))
            transitions[token] = successor
        return successor

    def _commit_state(self, state: ConstraintState) -> ConstraintState:
        """Commit the current element (the incremental :meth:`_commit_element`)."""
        matches = PrefixTrie.node_identifiers(state.node)
        if state.database is None:
            if not matches:
                return self.initial_state()
            database = matches[0]
            return self._new_state(database, (), (), True,
                                   self._table_trie(database).root())
        tables = state.tables
        if matches and matches[0] not in tables:
            tables = tables + (matches[0],)
        return self._new_state(state.database, tables, (), True,
                               self._table_trie(state.database).root())

    def allowed_ids_for_state(self, state: ConstraintState) -> tuple[int, ...]:
        """The allowed token ids of an incrementally-maintained state, ascending.

        What the batched engine asks once per registered row.  Resolution
        order: the state's own memoized reference (one attribute read -- the
        common case once any beam has stood here before; counted as a mask
        cache hit), then the shared per-key cache, then a fresh computation.
        Identical to ``np.flatnonzero(allowed_mask(prefix))`` for the prefix
        the state was advanced over; the tuple is shared, never copied.
        """
        ids = state.allowed_ids
        if ids is None:
            ids = state.allowed_ids = self._mask_entry(state).ids
        else:
            self.mask_cache_hits += 1
        return ids

    def allowed_mask_for_state(self, state: ConstraintState) -> np.ndarray:
        """The same resolution as a boolean mask: the oracle-side face of
        :meth:`allowed_ids_for_state`, identical to ``allowed_mask(prefix)``
        for the prefix the state was advanced over."""
        mask = state.mask
        if mask is None:
            mask = self._mask_entry(state).mask
            state.mask = mask
        else:
            self.mask_cache_hits += 1
        return mask

    # -- the constraint callable ------------------------------------------------------
    def allowed_tokens(self, prefix: list[int] | tuple[int, ...]) -> frozenset[int]:
        """Token ids allowed after ``prefix`` (the Constraint protocol).

        Served from the same per-state cache as :meth:`allowed_mask`: the
        token set is derived from the cached ids once per interpreter state,
        instead of rebuilding restricted tries and a fresh Python set on
        every call.
        """
        return self._mask_entry(self.interpret(prefix)).tokens()

    def allowed_mask(self, prefix: list[int] | tuple[int, ...]) -> np.ndarray:
        """A boolean mask over the vocabulary of the tokens allowed next.

        Masks are cached per interpreter state (the database / tables / trie
        position a prefix parses to), so repeated beams pay one dict lookup
        instead of rebuilding restricted tries and Python sets.  The returned
        array is shared and read-only; apply it with ``np.where``.
        """
        return self._mask_entry(self.interpret(prefix)).mask

    def _mask_entry(self, state: "_DecodedState | ConstraintState") -> _MaskEntry:
        key = (state.database, state.tables, state.current_words, state.complete)
        entry = self._mask_cache.get(key)
        if entry is None:
            self.mask_cache_misses += 1
            size = len(self.vocabulary)
            # _allowed_for_state never returns an empty set (it falls back to
            # {eos}), so there is always at least one id and one bit set --
            # the same guarantee the set-based path in repro.nn.decoding gives.
            ids = tuple(sorted(token for token in self._allowed_for_state(state)
                               if 0 <= token < size))
            mask = np.zeros(size, dtype=bool)
            mask[list(ids)] = True
            mask.setflags(write=False)
            evict_oldest(self._mask_cache, self.max_cached_masks)
            entry = _MaskEntry(ids, mask)
            self._mask_cache[key] = entry
        else:
            self.mask_cache_hits += 1
        return entry

    def _allowed_for_state(self, state: _DecodedState) -> set[int]:
        separator = self.vocabulary.sep_id
        eos = self.vocabulary.eos_id
        allowed: set[int] = set()

        if state.database is None:
            # Still decoding the database name.
            allowed |= self._database_trie.allowed_next(state.current_words)
            if state.current_words and self._database_trie.is_terminal(state.current_words):
                allowed.add(separator)
            return allowed

        # Decoding table names within the committed database.
        if not state.tables:
            trie = self._table_trie(state.database)
        elif len(state.tables) >= self.max_tables:
            trie = PrefixTrie()  # no further tables allowed
        else:
            trie = self._restricted_trie(state.database, state.tables)
        allowed |= trie.allowed_next(state.current_words)
        if state.current_words and trie.is_terminal(state.current_words):
            allowed.add(separator)
        if state.complete and state.tables:
            # A complete schema (>= 1 table) may stop here.
            allowed.add(eos)
        if not allowed:
            allowed.add(eos)
        return allowed

    def __call__(self, prefix: list[int] | tuple[int, ...]) -> frozenset[int]:
        return self.allowed_tokens(prefix)
