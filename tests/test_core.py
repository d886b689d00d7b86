"""Tests for the DBCopilot core: graph, serialization, sampling, questioner,
synthesis, constrained decoding, and the schema router."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DBCopilot,
    DBCopilotConfig,
    GraphConstrainedDecoding,
    PrefixTrie,
    RouterConfig,
    SamplerConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    NeuralQuestioner,
    basic_serialize,
    dfs_serialize,
    schema_to_tokens,
    synthesize_training_data,
    tokens_to_schema,
)
from repro.core.serialization import ELEMENT_SEPARATOR, tokens_to_elements
from repro.nn.tokenizer import Vocabulary
from repro.utils.rng import SeededRng
from reference_constraint import PrefixWalkConstraint


@pytest.fixture
def graph(small_catalog):
    return SchemaGraph.from_catalog(small_catalog)


class TestSchemaGraph:
    def test_node_counts(self, graph, small_catalog):
        # root + databases + tables
        assert graph.num_nodes() == 1 + len(small_catalog) + small_catalog.num_tables

    def test_databases_and_tables(self, graph):
        assert set(graph.databases()) == {"concert_singer", "world"}
        assert set(graph.tables_of("world")) == {"country", "city"}

    def test_table_neighbors_via_foreign_keys(self, graph):
        assert set(graph.table_neighbors("concert_singer", "singer_in_concert")) == \
               {"singer", "concert"}
        assert graph.table_neighbors("world", "city") == ["country"]

    def test_unknown_lookups_raise(self, graph):
        with pytest.raises(KeyError):
            graph.tables_of("missing")
        with pytest.raises(KeyError):
            graph.table_neighbors("world", "missing")

    def test_valid_schema_checks(self, graph):
        assert graph.is_valid_schema("world", ("city", "country"))
        assert graph.is_valid_schema("world", ("city",))
        assert not graph.is_valid_schema("world", ())
        assert not graph.is_valid_schema("world", ("singer",))
        assert not graph.is_valid_schema("missing", ("city",))
        # singer and concert are not directly connected (only via the junction).
        assert not graph.is_valid_schema("concert_singer", ("singer", "concert"))
        assert graph.is_valid_schema("concert_singer",
                                     ("singer", "singer_in_concert", "concert"))


class TestSerialization:
    def test_dfs_starts_with_database(self, graph):
        serialized = dfs_serialize(graph, "concert_singer",
                                   ("singer", "concert", "singer_in_concert"), SeededRng(1))
        assert serialized.elements[0] == "concert_singer"
        assert set(serialized.tables) == {"singer", "concert", "singer_in_concert"}

    def test_dfs_keeps_related_tables_adjacent(self, graph):
        # With the junction in the schema, DFS orders it adjacent to at least
        # one of the tables it connects.
        serialized = dfs_serialize(graph, "concert_singer",
                                   ("singer", "singer_in_concert"), SeededRng(3))
        tables = list(serialized.tables)
        assert abs(tables.index("singer") - tables.index("singer_in_concert")) == 1

    def test_basic_serialize_contains_all_tables(self):
        serialized = basic_serialize("db", ("a", "b", "c"), SeededRng(0))
        assert serialized.elements[0] == "db"
        assert set(serialized.tables) == {"a", "b", "c"}

    def test_tokens_roundtrip(self, graph):
        serialized = dfs_serialize(graph, "world", ("city", "country"), SeededRng(0))
        tokens = schema_to_tokens(serialized)
        assert tokens.count(ELEMENT_SEPARATOR) == 3
        parsed = tokens_to_schema(tokens, graph)
        assert parsed == ("world", tuple(serialized.tables))

    def test_tokens_to_schema_rejects_unknown_database(self, graph):
        assert tokens_to_schema(["bogus", ELEMENT_SEPARATOR], graph) is None

    def test_tokens_to_elements(self):
        elements = tokens_to_elements(["a", "b", ELEMENT_SEPARATOR, "c", ELEMENT_SEPARATOR])
        assert elements == [("a", "b"), ("c",)]


class TestSamplerAndSynthesis:
    def test_sampled_schemas_are_valid(self, graph):
        sampler = SchemaSampler(graph, SamplerConfig(max_tables=3), seed=2)
        for database, tables in sampler.sample_many(50):
            assert graph.is_valid_schema(database, tables)

    def test_coverage_samples_touch_every_table(self, graph, small_catalog):
        sampler = SchemaSampler(graph, seed=2)
        covered = set()
        for database, tables in sampler.coverage_samples():
            covered.update((database, table) for table in tables)
        expected = {(db.name, t.name) for db, t in small_catalog.iter_tables()}
        assert covered == expected

    def test_max_tables_respected(self, graph):
        sampler = SchemaSampler(graph, SamplerConfig(max_tables=2, stop_probability=0.0), seed=0)
        assert all(len(tables) <= 2 for _, tables in sampler.sample_many(30))

    def test_template_questioner_mentions_schema_or_paraphrase(self, small_catalog):
        questioner = TemplateQuestioner(catalog=small_catalog, paraphrase_probability=0.0, seed=1)
        question = questioner.question_for("concert_singer", ("singer",))
        assert "singer" in question.lower()

    def test_template_questioner_paraphrases(self, small_catalog):
        questioner = TemplateQuestioner(catalog=small_catalog, paraphrase_probability=1.0, seed=1)
        questions = [questioner.question_for("concert_singer", ("singer", "singer_in_concert"))
                     for _ in range(10)]
        assert len(set(questions)) > 3

    def test_neural_questioner_falls_back_untrained(self, small_catalog):
        questioner = NeuralQuestioner(small_catalog)
        assert not questioner.is_trained
        assert isinstance(questioner.question_for("world", ("city",)), str)

    def test_neural_questioner_trains(self, small_catalog):
        questioner = NeuralQuestioner(small_catalog, embedding_dim=12, hidden_dim=16)
        triples = [("world", ("city",), "how many cities are there"),
                   ("world", ("country",), "list the countries"),
                   ("concert_singer", ("singer",), "who are the singers")]
        losses = questioner.fit(triples, epochs=25)
        assert questioner.is_trained
        assert losses[-1] < losses[0]
        assert isinstance(questioner.question_for("world", ("city",)), str)

    def test_neural_questioner_output_is_pinned(self, small_catalog):
        """The toy setup above decodes greedily -- the one engine at one
        beam -- to the words ``greedy_decode``, the per-question loop it
        replaced, produced."""
        questioner = NeuralQuestioner(small_catalog, embedding_dim=12, hidden_dim=16)
        questioner.fit([("world", ("city",), "how many cities are there"),
                        ("world", ("country",), "list the countries"),
                        ("concert_singer", ("singer",), "who are the singers")],
                       epochs=25)
        for database, tables in [("world", ("city",)), ("world", ("country",)),
                                 ("concert_singer", ("singer",)),
                                 ("world", ("city", "country"))]:
            assert questioner.question_for(database, tables) == "list the the?"

    def test_synthesis_covers_catalog(self, graph, small_catalog):
        sampler = SchemaSampler(graph, seed=4)
        questioner = TemplateQuestioner(catalog=small_catalog, seed=4)
        report = synthesize_training_data(sampler, questioner, SynthesisConfig(num_samples=40))
        assert report.full_coverage
        assert report.num_examples >= 40
        assert all(example.question for example in report.examples)


class TestTrieAndConstrainedDecoding:
    def test_prefix_trie(self):
        trie = PrefixTrie()
        trie.insert([1, 2], "ab")
        trie.insert([1, 3], "ac")
        assert trie.allowed_next([]) == {1}
        assert trie.allowed_next([1]) == {2, 3}
        assert trie.is_terminal([1, 2])
        assert not trie.is_terminal([1])
        assert PrefixTrie.node_identifiers(trie.node_at([1, 3])) == ["ac"]
        assert trie.allowed_next([9]) == set()
        assert len(trie) == 2

    def test_prefix_trie_cursor_api_matches_prefix_walks(self):
        """The O(1) cursor lands on the node the root re-walk finds at every
        position, including dead (off-trie) cursors."""
        trie = PrefixTrie()
        trie.insert([1, 2], "ab")
        trie.insert([1, 3], "ac")
        trie.insert([4], "d")
        expected = {(1, 2): ["ab"], (1, 3): ["ac"], (4,): ["d"]}
        for prefix in ([], [1], [1, 2], [1, 3], [4], [9], [1, 9], [1, 2, 9]):
            node = trie.root()
            for token in prefix:
                node = PrefixTrie.child(node, token)
            assert node is trie.node_at(prefix)
            assert PrefixTrie.node_identifiers(node) == expected.get(tuple(prefix), [])

    @pytest.fixture
    def constrained(self, graph):
        vocabulary = Vocabulary()
        vocabulary.add(ELEMENT_SEPARATOR)
        for database in graph.databases():
            vocabulary.add_text(database)
            for table in graph.tables_of(database):
                vocabulary.add_text(table)
        return GraphConstrainedDecoding(graph, vocabulary), vocabulary

    @staticmethod
    def _state(decoder, prefix):
        state = decoder.initial_state()
        for token in prefix:
            state = decoder.advance(state, token)
        return state

    def _allowed(self, decoder, prefix) -> set[int]:
        return set(decoder.allowed_ids_for_state(self._state(decoder, prefix)))

    def test_first_tokens_are_database_words(self, constrained, graph):
        decoder, vocabulary = constrained
        allowed = self._allowed(decoder, [])
        first_words = {vocabulary.token_of(token) for token in allowed}
        assert first_words == {"concert", "world"}

    def test_separator_only_after_complete_identifier(self, constrained, vocab=None):
        decoder, vocabulary = constrained
        concert = vocabulary.id_of("concert")
        singer = vocabulary.id_of("singer")
        allowed_after_concert = self._allowed(decoder, [concert])
        assert vocabulary.sep_id not in allowed_after_concert  # "concert" alone is not a database
        allowed_full = self._allowed(decoder, [concert, singer])
        assert vocabulary.sep_id in allowed_full

    def test_tables_restricted_to_neighbors(self, constrained, graph):
        decoder, vocabulary = constrained
        prefix = [vocabulary.id_of("world"), vocabulary.sep_id, vocabulary.id_of("city"),
                  vocabulary.sep_id]
        allowed = self._allowed(decoder, prefix)
        words = {vocabulary.token_of(token) for token in allowed}
        # After decoding "city", only its neighbour "country" (or EOS) may follow.
        assert "country" in words
        assert "city" not in words
        assert vocabulary.eos_id in allowed

    def test_decoded_prefix_interpretation(self, constrained):
        decoder, vocabulary = constrained
        prefix = [vocabulary.id_of("world"), vocabulary.sep_id,
                  vocabulary.id_of("country"), vocabulary.sep_id]
        state = self._state(decoder, prefix)
        assert state.database == "world"
        assert state.tables == ("country",)

    def test_ids_cached_per_interpreter_state(self, constrained):
        decoder, vocabulary = constrained
        prefix = [vocabulary.id_of("world"), vocabulary.sep_id]
        first = decoder.allowed_ids_for_state(self._state(decoder, prefix))
        decoder._root = None  # a regrown tree: new states, same interpretations
        again = decoder.allowed_ids_for_state(self._state(decoder, prefix))
        assert first is again  # served from the per-interpretation id cache
        assert first == tuple(sorted(first))

    def test_id_cache_is_bounded(self, constrained):
        decoder, vocabulary = constrained
        decoder.max_cached_masks = 1
        decoder._id_cache.clear()
        reference = PrefixWalkConstraint(decoder)
        prefixes = [[], [vocabulary.id_of("world")],
                    [vocabulary.id_of("world"), vocabulary.sep_id]]
        for prefix in prefixes:  # evictions never change the answers
            assert self._allowed(decoder, prefix) == reference.allowed_tokens(prefix)
        assert len(decoder._id_cache) == 1


class TestSchemaRouter:
    @pytest.fixture
    def trained_router(self, small_catalog):
        graph = SchemaGraph.from_catalog(small_catalog)
        questioner = TemplateQuestioner(catalog=small_catalog, seed=11)
        sampler = SchemaSampler(graph, seed=11)
        report = synthesize_training_data(sampler, questioner, SynthesisConfig(num_samples=250))
        router = SchemaRouter(graph=graph, config=RouterConfig(
            epochs=10, embedding_dim=24, hidden_dim=40, num_beams=4, beam_groups=2, seed=11))
        router.fit(report.examples)
        return router

    def test_training_reduces_loss(self, trained_router):
        losses = trained_router.training_losses
        assert losses[-1] < losses[0]

    def test_routes_are_valid_schemas(self, trained_router):
        routes = trained_router.route("how many cities are there in each country")
        assert routes
        for route in routes:
            assert trained_router.graph.is_valid_schema(route.database, route.tables)

    def test_prediction_format(self, trained_router):
        prediction = trained_router.predict("which singers performed in a concert")
        assert prediction.ranked_databases
        assert prediction.candidate_schemas
        assert prediction.ranked_tables
        assert prediction.best_schema is not None

    def test_untrained_router_raises(self, small_catalog):
        graph = SchemaGraph.from_catalog(small_catalog)
        router = SchemaRouter(graph=graph)
        with pytest.raises(RuntimeError):
            router.route("anything")
        with pytest.raises(ValueError):
            router.fit([])

    def test_config_ablation_copy(self):
        config = RouterConfig()
        changed = config.ablated(serialization="basic", constrained_decoding=False)
        assert changed.serialization == "basic"
        assert not changed.constrained_decoding
        assert config.serialization == "dfs"


class TestDBCopilotFacade:
    def test_build_and_route_tiny(self, tiny_dataset):
        config = DBCopilotConfig(
            router=RouterConfig(epochs=6, embedding_dim=24, hidden_dim=40,
                                num_beams=4, beam_groups=2, seed=3),
            synthesis=SynthesisConfig(num_samples=300),
            seed=3,
        )
        copilot = DBCopilot.build(tiny_dataset.catalog, tiny_dataset.instances, config=config)
        assert copilot.build_report.synthesis.full_coverage
        assert copilot.build_report.num_parameters > 0
        example = tiny_dataset.test_examples[0]
        routes = copilot.route(example.question)
        assert routes and copilot.graph.is_valid_schema(routes[0].database, routes[0].tables)
        prediction = copilot.predict(example.question)
        assert prediction.ranked_databases
        assert copilot.best_schema(example.question) is not None

    def test_unknown_questioner_kind(self, tiny_dataset):
        with pytest.raises(ValueError):
            DBCopilot.build(tiny_dataset.catalog, config=DBCopilotConfig(questioner="bogus"))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_dfs_serialization_always_covers_schema(seed):
    from repro.schema import Catalog

    # Use a stable small catalog built once per example via fixtureless path.
    catalog = Catalog(name="c", databases=[_example_database()])
    graph = SchemaGraph.from_catalog(catalog)
    rng = SeededRng(seed)
    tables = tuple(rng.sample(graph.tables_of("concert_singer"), rng.randint(1, 3)))
    serialized = dfs_serialize(graph, "concert_singer", tables, rng)
    assert set(serialized.tables) == set(tables)
    assert serialized.elements[0] == "concert_singer"


def _example_database():
    from repro.schema import Column, ColumnType, Database, ForeignKey, Table

    return Database(
        name="concert_singer",
        tables=[
            Table("singer", [Column("singer_id", ColumnType.INTEGER, True), Column("name")]),
            Table("concert", [Column("concert_id", ColumnType.INTEGER, True), Column("venue")]),
            Table("singer_in_concert", [Column("singer_id", ColumnType.INTEGER),
                                        Column("concert_id", ColumnType.INTEGER)]),
        ],
        foreign_keys=[
            ForeignKey("singer_in_concert", "singer_id", "singer", "singer_id"),
            ForeignKey("singer_in_concert", "concert_id", "concert", "concert_id"),
        ],
    )
