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

The constraint is one automaton over emitted tokens -- the protocol every
decoder of :mod:`repro.nn.decoding` accepts: each beam carries a
:class:`ConstraintState` from :meth:`GraphConstrainedDecoding.initial_state`,
:meth:`GraphConstrainedDecoding.advance` consumes one token via the trie
cursor API in O(1), and :meth:`GraphConstrainedDecoding.allowed_ids_for_state`
hands out the state's allowed token ids (an ascending tuple, typically one to
a few tokens) without ever touching the prefix again.  The states are a
function of the catalog, not of the question, so they belong to the
constraint object: every search starts from the one persistent root and
walks -- and grows -- the same tree.  The prefix-walk interpreter this
automaton replaced is kept, verbatim, as the test oracle
``tests/reference_constraint.py``, and ``tests/test_constrained_incremental.py``
checks the two against each other token by token.
"""

from __future__ import annotations

from repro.core.graph import SchemaGraph
from repro.core.serialization import element_words
from repro.core.trie import PrefixTrie
from repro.nn.tokenizer import Vocabulary
from repro.utils.memo import evict_oldest


class ConstraintState:
    """One automaton state, carried by a beam.

    ``database`` / ``tables`` / ``current_words`` / ``complete`` are the
    interpretation of the prefix the state was advanced over; ``node`` is the
    trie cursor of the current element's walk in the *commit* trie (the
    database trie before a database is committed, the database's full table
    trie after), which makes :meth:`GraphConstrainedDecoding.advance` O(1) per
    token; ``allowed_ids`` memoizes a reference to the state's allowed token
    ids (ascending), so repeated beams resolve their constraint as one
    attribute read.

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
                 "allowed_ids", "transitions")

    def __init__(self, database: str | None, tables: tuple[str, ...],
                 current_words: tuple[int, ...], complete: bool, node) -> None:
        self.database = database
        self.tables = tables
        self.current_words = current_words
        self.complete = complete
        self.node = node
        self.allowed_ids: tuple[int, ...] | None = None
        self.transitions: dict[int, "ConstraintState"] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConstraintState(database={self.database!r}, "
                f"tables={self.tables!r}, current_words={self.current_words!r}, "
                f"complete={self.complete!r})")


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
        # Allowed token ids (ascending tuples), keyed by the interpretation a
        # state stands for.  Many states share one (a regrown tree repeats
        # the old one's), so a state resolves to a shared tuple.  Distinct
        # interpretations are combinatorial in catalog size (ordered table
        # tuples x word-prefix positions), so the cache is bounded: oldest
        # entries are evicted first once ``max_cached_masks`` is reached.
        self._id_cache: dict[tuple, tuple[int, ...]] = {}
        self.max_cached_masks = 4096
        # The automaton: one persistent root (see :meth:`initial_state`) and
        # the number of states hanging off it, held to ``max_cached_masks``
        # like the id cache.
        self._root: ConstraintState | None = None
        self._tree_states = 0
        # Observability counters: resolutions served from a memo vs fresh
        # computations, and automaton states made.  Read (as before/after
        # deltas) by SchemaRouter's decode spans.
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

    # -- the automaton ----------------------------------------------------------------
    def initial_state(self) -> ConstraintState:
        """The state of the empty prefix: one persistent root.

        Every search -- every question, group, (shard, question) pair and
        request -- starts here, so the ``transitions`` / ``allowed_ids`` memos
        below the root live as long as this constraint does, and a
        steady-state decode makes no state at all (``constraint_states``
        stands still).  The tree holds at most ``max_cached_masks`` states:
        the state that would exceed the bound drops the root whole
        (:meth:`_new_state`), the next call here roots a fresh tree, and
        searches in flight finish on the states they hold.  Concurrent
        searches share the tree under the GIL without a lock: a lost race
        builds an equal state twice, exactly as the id cache tolerates.
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

        A separator after a non-empty element commits it (database first,
        then tables, matched at the carried trie cursor); a separator after
        an empty element is skipped; any other token -- EOS included --
        extends the current element and advances the cursor (``None`` once
        the walk leaves the trie).  Transitions are memoized per state, so
        beams taking a transition any sibling already took pay one dict hit;
        only edges to the states they make are, so the tree has no cycle and
        is freed by reference counting once nothing holds it.
        """
        token = int(token)
        transitions = state.transitions
        if transitions is None:
            transitions = state.transitions = {}
        successor = transitions.get(token)
        if successor is None:
            if token != self.vocabulary.sep_id:
                successor = self._new_state(state.database, state.tables,
                                            state.current_words + (token,), False,
                                            PrefixTrie.child(state.node, token))
            elif not state.current_words:
                return state
            else:
                successor = self._commit_state(state)
                if successor.database is None:
                    return successor  # no database matched: back to the root
            transitions[token] = successor
        return successor

    def _commit_state(self, state: ConstraintState) -> ConstraintState:
        """Commit the current element: the database, or one more table."""
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
        """The token ids allowed after ``state``, ascending.

        What every decoder asks once per beam (the loop oracle, greedy
        decoding) or per registered row (the batched engine).  Resolution
        order: the state's own memoized reference (one attribute read -- the
        common case once any beam has stood here before; counted as a hit),
        then the shared id cache (a hit), then a fresh computation (a miss).
        The tuple is shared, never copied.
        """
        ids = state.allowed_ids
        if ids is not None:
            self.mask_cache_hits += 1
            return ids
        key = (state.database, state.tables, state.current_words, state.complete)
        ids = self._id_cache.get(key)
        if ids is None:
            self.mask_cache_misses += 1
            size = len(self.vocabulary)
            ids = tuple(sorted(token for token in self._allowed_for_state(state)
                               if 0 <= token < size))
            evict_oldest(self._id_cache, self.max_cached_masks)
            self._id_cache[key] = ids
        else:
            self.mask_cache_hits += 1
        state.allowed_ids = ids
        return ids

    def _allowed_for_state(self, state: ConstraintState) -> set[int]:
        """The allowed ids of an interpretation, computed from the tries."""
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
