"""The Seq2Seq schema router (paper §3.5).

The router is a differentiable search index: it is trained to map a question
to serialized SQL query schemata and, at inference time, decodes multiple
candidate schemata with diverse beam search under graph-based constraints.
Candidate sequences that share the same database are combined into a single
candidate schema, exactly as described in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.constrained import GraphConstrainedDecoding
from repro.core.graph import SchemaGraph
from repro.core.serialization import (
    ELEMENT_SEPARATOR,
    basic_serialize,
    dfs_serialize,
    schema_to_tokens,
    tokens_to_schema,
)
from repro.nn.decoding import diverse_beam_search_batch, diverse_beam_search_loop
from repro.nn.seq2seq import DecodeKernel, EncodedSource, Seq2SeqConfig, Seq2SeqModel
from repro.nn.tokenizer import Vocabulary, WordTokenizer
from repro.obs.trace import distinct_traces, stage_spans
from repro.utils.memo import evict_oldest
from repro.utils.rng import SeededRng

if TYPE_CHECKING:  # training / evaluation types: a serving process never loads them
    from repro.core.synthesis import SyntheticExample
    from repro.retrieval.base import RoutingPrediction

#: "Not in the parse memo": ``None`` is itself a cached verdict (unparsable).
_UNPARSED = object()


@dataclass(frozen=True)
class RouterConfig:
    """Hyper-parameters of the schema router.

    The decoding defaults follow §4.1.5: 10 schema sequences per question via
    diverse beam search with 10 beams, 10 beam groups, diversity penalty 2.0.
    """

    embedding_dim: int = 48
    hidden_dim: int = 96
    epochs: int = 14
    batch_size: int = 32
    learning_rate: float = 5e-3
    weight_decay: float = 0.01
    num_beams: int = 10
    beam_groups: int = 10
    diversity_penalty: float = 2.0
    max_source_length: int = 24
    max_decode_length: int = 40
    max_candidate_schemas: int = 5
    #: "dfs" (paper) or "basic" (ablation "w/ BS").
    serialization: str = "dfs"
    constrained_decoding: bool = True
    diverse_beam: bool = True
    #: Decode search.  "vectorized" (default) decodes every question of a
    #: batch through the one batched grid engine
    #: (:func:`repro.nn.decoding.diverse_beam_search_batch`); "loop" is the
    #: per-beam reference search, the oracle.  Both step the one row-stable
    #: kernel, so they return bit-identical routes.
    decode_backend: str = "vectorized"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.decode_backend not in ("vectorized", "loop"):
            raise ValueError(
                f"decode_backend must be 'vectorized' or 'loop', "
                f"got {self.decode_backend!r}")

    def ablated(self, **changes: object) -> "RouterConfig":
        """A copy with some fields overridden (used by the ablation study)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SchemaRoute:
    """One candidate schema produced by the router.

    A router's ``score`` is the hypothesis's raw log-probability; a fleet's
    merged answer carries a pooled softmax weight instead
    (:func:`merge_route_lists`), so the two compare only through that merge.
    """

    database: str
    tables: tuple[str, ...]
    score: float


#: One candidate as a shard reply carries it: ``(score, database, tables)``.
RouteRow = tuple[float, str, tuple[str, ...]]


def normalize_route_scores(routes: Sequence[SchemaRoute]) -> list[SchemaRoute]:
    """Softmax-normalize raw log-probability scores over a candidate pool.

    The transformation is monotonic, so it never changes the ranking of the
    pool it is applied to; it turns accumulated log-probabilities into
    probability-like weights in ``(0, 1]`` that sum to 1.  Cross-shard merging
    uses this on the *pooled* candidates of all shards (never per shard), which
    keeps scores produced by the same underlying model directly comparable
    while presenting a calibrated ranking to callers.
    """
    if not routes:
        return []
    peak = max(route.score for route in routes)
    weights = [math.exp(route.score - peak) for route in routes]
    # fsum is exactly rounded, so the normalizer -- and therefore every
    # normalized score -- is identical no matter what order shards answer in.
    total = math.fsum(weights)
    # Direct construction, not dataclasses.replace: this runs once per pooled
    # candidate on every merge, and replace() pays field introspection per
    # call (~5x the cost; it shows up in cluster wave profiles).
    return [SchemaRoute(database=route.database, tables=route.tables,
                        score=weight / total)
            for route, weight in zip(routes, weights)]


def schema_routes(route_lists: Iterable[Sequence["SchemaRoute | RouteRow"]]
                  ) -> list[list[SchemaRoute]]:
    """Per-question lists of reply rows (or routes) as :class:`SchemaRoute` lists."""
    return [[route if isinstance(route, SchemaRoute)
             else SchemaRoute(database=route[1], tables=route[2], score=route[0])
             for route in routes] for routes in route_lists]


def candidate_budget(max_candidates: int | None, default: int | None) -> int | None:
    """``max_candidates``, or ``default`` when it is None; a budget below 1
    is a ``ValueError`` (``0`` is not "the default")."""
    if max_candidates is None:
        max_candidates = default
    if max_candidates is not None and max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1 (or None), got {max_candidates}")
    return max_candidates


def merge_route_lists(route_lists: Iterable[Sequence["SchemaRoute | RouteRow"]],
                      max_candidates: int | None = None) -> list[SchemaRoute]:
    """Deterministically merge per-shard candidate lists into one ranking.

    The result is independent of the order of ``route_lists`` (scatter-gather
    may collect shards in any order): candidates -- reply rows or
    :class:`SchemaRoute` objects, mixed freely -- are pooled as
    ``(score, database, tables)``, weighted by the pooled softmax of
    :func:`normalize_route_scores`, sorted by ``(-weight, database, tables)``,
    and deduplicated per database keeping the best-weighted entry.  With
    disjoint shard catalogs the dedup is a no-op; it guards against
    overlapping assignments.  The merged routes score pooled weights, not the
    log-probabilities they were read with, so a monolith's answers compare to
    a fleet's as ``merge_route_lists([routes])``.  This runs per question on every cluster gather,
    so a ``SchemaRoute`` is built only for each of the first
    ``max_candidates`` survivors (``0`` merges to ``[]``).
    """
    if max_candidates is not None and max_candidates < 0:
        raise ValueError(f"max_candidates must be >= 0, got {max_candidates}")
    pooled = [(route.score, route.database, route.tables)
              if isinstance(route, SchemaRoute) else route
              for routes in route_lists for route in routes]
    if not pooled or max_candidates == 0:
        return []
    peak = max([score for score, _, _ in pooled])
    ranked = sorted([(-math.exp(score - peak), database, tables)
                     for score, database, tables in pooled])
    # fsum is exactly rounded, so the normalizer is identical no matter what
    # order shards answer in (and negating every weight negates it exactly).
    total = -math.fsum([negative for negative, _, _ in ranked])
    merged: list[SchemaRoute] = []
    seen: set[str] = set()
    for negative, database, tables in ranked:
        if database not in seen:
            seen.add(database)
            merged.append(SchemaRoute(database=database, tables=tables,
                                      score=-negative / total))
            if len(merged) == max_candidates:
                break
    return merged


def _constraint_counts(constraints: Iterable) -> tuple[int, int, int]:
    """Summed (mask-cache hits, mask-cache misses, automaton states made) of
    the constraints (``None`` skipped)."""
    live = [constraint for constraint in constraints if constraint is not None]
    return (sum(constraint.mask_cache_hits for constraint in live),
            sum(constraint.mask_cache_misses for constraint in live),
            sum(constraint.constraint_states for constraint in live))


def decode_wave(kernel: DecodeKernel | None,
                routers: "Sequence[SchemaRouter]",
                tags: Sequence[int],
                encoded_batch: "Sequence[EncodedSource]",
                traces: Sequence = ()) -> list[list]:
    """One beam search for every row of a wave over routers of one model.

    Row ``i`` decodes ``encoded_batch[i]`` under the constraint of
    ``routers[tags[i]]``, all rows advancing together through ``kernel`` (a
    :class:`repro.nn.seq2seq.DecodeKernel` over the routers' one model), or,
    with ``kernel=None``, each row alone through the loop oracle
    (``decode_backend="loop"``).  The routers must agree on the beam budget
    and share their vocabularies (the cluster wave engine checks that), so
    ``routers[0]`` configures the search.

    Every context in ``traces`` gets a ``decode`` span -- the one place
    decode counters are reported -- annotated with the engine counters
    (``steps`` / ``beam_rows`` / ``live_beams`` / ``ranked_tokens`` /
    ``questions_compacted``: kernel rows are distinct live prefixes, so
    ``beam_rows / live_beams`` is the sharing ratio, and selection ranks
    only the ids the constraint allows, so ``ranked_tokens / beam_rows``
    against the vocabulary size is what sparsity buys), the constraints'
    mask-cache traffic (one resolution per registered row: a hit when the
    row's state already holds its allowed ids) and the automaton states they
    made (``constraint_states``: 0 once the catalog's automaton is grown).
    Returns one hypothesis list per row, never empty: every group keeps at
    least its initial beam, so a row whose root allows nothing comes back as
    the empty, unfinished hypothesis (which parses to no route).
    """
    config = routers[0].config
    vocabulary = routers[0].target_vocabulary
    search = dict(num_beams=config.num_beams, num_groups=1, diversity_penalty=0.0,
                  max_length=config.max_decode_length)
    if config.diverse_beam:
        search.update(num_groups=config.beam_groups,
                      diversity_penalty=config.diversity_penalty)
    constraints = [router.constraint for router in routers]
    row_constraints = [constraints[tag] for tag in tags]
    stats: dict = {}
    counts_before = _constraint_counts(constraints)
    with stage_spans(traces, "decode", backend=config.decode_backend,
                     questions=len(encoded_batch)) as spans:
        if kernel is None:
            hypotheses_batch = [
                diverse_beam_search_loop(
                    routers[0].model, (), vocabulary.bos_id, vocabulary.eos_id,
                    constraint=constraint, encoded=encoded, stats=stats, **search)
                for encoded, constraint in zip(encoded_batch, row_constraints)]
        else:
            hypotheses_batch = diverse_beam_search_batch(
                kernel, list(encoded_batch), vocabulary.bos_id, vocabulary.eos_id,
                constraint=row_constraints, stats=stats, **search)
        if spans:
            hits, misses, states = _constraint_counts(constraints)
            for span in spans:
                span.annotate(mask_cache_hits=hits - counts_before[0],
                              mask_cache_misses=misses - counts_before[1],
                              constraint_states=states - counts_before[2],
                              **stats)
    return hypotheses_batch


def route_wave(routers: "Sequence[SchemaRouter]", questions: Sequence[str],
               max_candidates: int | None = None,
               traces: "Sequence | None" = None) -> list[list[list[SchemaRoute]]]:
    """Route ``questions`` through every router of one model: the one decode
    path.  Returns ``[router][question]``.

    A monolith's :meth:`SchemaRouter.route_batch` is a wave of one router;
    an inproc fleet's wave is a wave of every shard's router
    (:class:`repro.cluster.wave.ClusterWaveEngine`).  Every question is
    encoded once, by ``routers[0]``: the routers decode one model and share
    its vocabularies.  One :func:`decode_wave` then decodes every (router,
    question) row, router-major, through the kernel ``routers[0].config``'s
    ``decode_backend`` names.  Each row parses with its own router: its
    constraint, its sub-catalog graph and parse memo, its default
    ``max_candidates``.  A row whose constraint allows nothing at the root (a
    router projected onto no databases) keeps its empty hypothesis and
    routes to ``[]``.

    ``traces`` is an optional per-question list of ``repro.obs`` trace
    contexts (``None`` entries allowed; repeats collapse): each distinct
    context gets ``encode`` / ``decode`` / ``parse`` spans, the decode span
    carrying the decode counters (:func:`decode_wave`).  Tracing does not
    affect routing results.
    """
    base = routers[0]
    model = base.model
    budgets = [candidate_budget(max_candidates, router.default_max_candidates)
               for router in routers]
    if not questions:
        return [[] for _ in routers]
    contexts = distinct_traces(traces)
    source_tokenizer = WordTokenizer(base.source_vocabulary)
    with stage_spans(contexts, "encode", questions=len(questions)):
        encoded = model.encode_numpy_batch(
            [source_tokenizer.encode_text(question,
                                          max_length=base.config.max_source_length)
             for question in questions],
            pad_id=base.source_vocabulary.pad_id)
    tags = [tag for tag in range(len(routers)) for _ in questions]
    stacked = [encoding for _ in routers for encoding in encoded]
    kernel = None if base.config.decode_backend == "loop" else DecodeKernel(model)
    hypotheses_batch = decode_wave(kernel, routers, tags, stacked, traces=contexts)
    with stage_spans(contexts, "parse"):
        rows = iter(hypotheses_batch)
        return [[router._combine_hypotheses(next(rows), budget) for _ in questions]
                for router, budget in zip(routers, budgets)]


@dataclass
class SchemaRouter:
    """Trainable DSI router over a schema graph."""

    graph: SchemaGraph
    config: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self) -> None:
        self._source_vocabulary: Vocabulary | None = None
        self._target_vocabulary: Vocabulary | None = None
        self._model: Seq2SeqModel | None = None
        self._constraint: GraphConstrainedDecoding | None = None
        # Decoded-hypothesis parse memo: token tuple -> (database, tables).
        # Hypotheses repeat heavily across beams and requests (the catalog is
        # finite), and parsing re-tokenizes identifier names against the
        # graph; bounded like the constraint mask cache, oldest-first.
        self._parse_cache: dict[tuple[int, ...], tuple[str, tuple[str, ...]] | None] = {}
        self.max_cached_parses = 4096
        self.training_losses: list[float] = []

    # -- vocabulary --------------------------------------------------------------
    def _build_vocabularies(self, examples: list[SyntheticExample]) -> None:
        source = Vocabulary()
        for example in examples:
            source.add_text(example.question)
        target = Vocabulary()
        target.add(ELEMENT_SEPARATOR)
        for database in self.graph.databases():
            target.add_text(database)
            for table in self.graph.tables_of(database):
                target.add_text(table)
        self._source_vocabulary = source
        self._target_vocabulary = target

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    @property
    def default_max_candidates(self) -> int:
        """The answer size of a request that names none
        (``config.max_candidate_schemas``)."""
        return self.config.max_candidate_schemas

    @property
    def source_vocabulary(self) -> Vocabulary:
        if self._source_vocabulary is None:
            raise RuntimeError("the router has not been trained yet")
        return self._source_vocabulary

    @property
    def target_vocabulary(self) -> Vocabulary:
        if self._target_vocabulary is None:
            raise RuntimeError("the router has not been trained yet")
        return self._target_vocabulary

    @property
    def model(self) -> Seq2SeqModel:
        if self._model is None:
            raise RuntimeError("the router has not been trained yet")
        return self._model

    @property
    def constraint(self) -> GraphConstrainedDecoding | None:
        """The active decoding constraint (None when decoding unconstrained):
        what :func:`route_wave` decodes this router's rows under."""
        return self._constraint if self.config.constrained_decoding else None

    def num_parameters(self) -> int:
        return self._model.num_parameters() if self._model is not None else 0

    # -- training -------------------------------------------------------------------
    def _serialize(self, database: str, tables: tuple[str, ...], rng: SeededRng) -> list[str]:
        if self.config.serialization == "basic":
            serialized = basic_serialize(database, tables, rng)
        else:
            serialized = dfs_serialize(self.graph, database, tables, rng)
        return schema_to_tokens(serialized)

    def fit(self, examples: list[SyntheticExample]) -> list[float]:
        """Train the router on synthetic (question, schema) examples."""
        from repro.nn.trainer import Seq2SeqTrainer, TrainerConfig

        if not examples:
            raise ValueError("no training examples supplied")
        self._parse_cache.clear()
        self._build_vocabularies(examples)
        source_tokenizer = WordTokenizer(self.source_vocabulary)
        target_tokenizer = WordTokenizer(self.target_vocabulary)
        rng = SeededRng(self.config.seed)
        pairs = []
        for example in examples:
            if not example.tables:
                continue
            source_ids = source_tokenizer.encode_text(example.question,
                                                      max_length=self.config.max_source_length)
            tokens = self._serialize(example.database, example.tables, rng.child(example.question))
            target_ids = target_tokenizer.encode_tokens(tokens)
            pairs.append((source_ids, target_ids))
        self._model = Seq2SeqModel(Seq2SeqConfig(
            source_vocab_size=len(self.source_vocabulary),
            target_vocab_size=len(self.target_vocabulary),
            embedding_dim=self.config.embedding_dim,
            hidden_dim=self.config.hidden_dim,
            seed=self.config.seed,
        ))
        trainer = Seq2SeqTrainer(self._model, TrainerConfig(
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
            seed=self.config.seed,
        ), pad_id=self.target_vocabulary.pad_id)
        history = trainer.train(pairs)
        self.training_losses = history.epoch_losses
        if self.config.constrained_decoding:
            self._constraint = GraphConstrainedDecoding(self.graph, self.target_vocabulary)
        else:
            self._constraint = None
        return history.epoch_losses

    # -- persistence --------------------------------------------------------------------
    def restore(self, model: Seq2SeqModel, source_vocabulary: Vocabulary,
                target_vocabulary: Vocabulary,
                training_losses: list[float] | None = None) -> None:
        """Install a trained state (the checkpoint-load path, no training run)."""
        self._source_vocabulary = source_vocabulary
        self._target_vocabulary = target_vocabulary
        self._model = model
        self._parse_cache.clear()
        self.training_losses = list(training_losses or [])
        if self.config.constrained_decoding:
            self._constraint = GraphConstrainedDecoding(self.graph, target_vocabulary)
        else:
            self._constraint = None

    @classmethod
    def from_checkpoint(cls, path: str) -> "SchemaRouter":
        """Load a trained router saved with :func:`repro.serving.save_router`."""
        from repro.serving.checkpoint import load_router

        return load_router(path)

    # -- inference ----------------------------------------------------------------------
    def route(self, question: str, max_candidates: int | None = None) -> list[SchemaRoute]:
        """Decode candidate schemata for ``question`` (best first)."""
        return self.route_batch([question], max_candidates=max_candidates)[0]

    def route_batch(self, questions: list[str],
                    max_candidates: int | None = None, *,
                    traces: "Sequence | None" = None) -> list[list[SchemaRoute]]:
        """Route several questions as one batch: a wave of this one router
        (:func:`route_wave`, whose ``traces`` these are).

        The source encoding runs once for the whole batch, and (with the
        default ``decode_backend="vectorized"``) every distinct live prefix
        of every question advances through one stacked kernel call per
        decode step.  ``decode_backend="loop"`` decodes each question through
        the per-beam reference path instead; both backends -- and
        per-question :meth:`route` calls -- return bit-identical results.
        """
        return route_wave([self], questions, max_candidates, traces)[0]

    def _combine_hypotheses(self, hypotheses: list,
                            max_candidates: int | None) -> list[SchemaRoute]:
        """Parse hypotheses to schemata and combine those sharing a database."""
        combined: dict[str, SchemaRoute] = {}
        order: list[str] = []
        for hypothesis in hypotheses:
            key = tuple(hypothesis.tokens)
            # One read: a concurrent decode may evict the key between a
            # membership test and a lookup (``None`` is a cached verdict).
            parsed = self._parse_cache.get(key, _UNPARSED)
            if parsed is _UNPARSED:
                tokens = WordTokenizer(self.target_vocabulary).decode(hypothesis.tokens)
                parsed = tokens_to_schema(tokens, self.graph)
                evict_oldest(self._parse_cache, self.max_cached_parses)
                self._parse_cache[key] = parsed
            if parsed is None:
                continue
            database, tables = parsed
            if not tables:
                continue
            if database not in combined:
                combined[database] = SchemaRoute(database=database, tables=tables,
                                                 score=hypothesis.score)
                order.append(database)
            else:
                existing = combined[database]
                merged_tables = existing.tables + tuple(
                    table for table in tables if table not in existing.tables
                )
                combined[database] = SchemaRoute(database=database, tables=merged_tables,
                                                 score=max(existing.score, hypothesis.score))
        routes = [combined[database] for database in order]
        routes.sort(key=lambda route: route.score, reverse=True)
        return routes[:max_candidates]

    def predict(self, question: str, max_candidates: int | None = None) -> RoutingPrediction:
        """Route and convert to the shared :class:`RoutingPrediction` format.

        The decoded candidate schemata determine the head of the table ranking;
        the tail is backfilled with the remaining tables of the candidate
        databases (graph neighbours of predicted tables first), so recall@k for
        larger k can be measured on the same footing as the retrieval baselines.
        """
        from repro.retrieval.base import CandidateSchema, RankedTable, RoutingPrediction

        routes = self.route(question, max_candidates=max_candidates)
        ranked_databases = [route.database for route in routes]
        ranked_tables: list[RankedTable] = []
        seen: set[tuple[str, str]] = set()

        def push(database: str, table: str, score: float) -> None:
            key = (database, table)
            if key not in seen:
                seen.add(key)
                ranked_tables.append(RankedTable(database=database, table=table, score=score))

        for rank, route in enumerate(routes):
            for position, table in enumerate(route.tables):
                push(route.database, table, route.score - 0.01 * position - 10.0 * rank)
        # Backfill: neighbours of the predicted tables, then the rest of each
        # candidate database, in candidate order.
        for rank, route in enumerate(routes):
            base = route.score - 100.0 - 10.0 * rank
            offset = 0
            for table in route.tables:
                for neighbor in self.graph.table_neighbors(route.database, table):
                    push(route.database, neighbor, base - 0.01 * offset)
                    offset += 1
            for table in self.graph.tables_of(route.database):
                push(route.database, table, base - 1.0 - 0.01 * offset)
                offset += 1
        candidates = [CandidateSchema(database=route.database, tables=route.tables,
                                      score=route.score) for route in routes]
        return RoutingPrediction(
            ranked_databases=ranked_databases,
            ranked_tables=ranked_tables,
            candidate_schemas=candidates,
        )
