"""Tests for prompt construction, the simulated LLM, and EX evaluation."""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets.examples import Example
from repro.engine.instance import CatalogInstance, DatabaseInstance
from repro.llm import (
    CostModel,
    OracleSchemaProvider,
    PromptStrategy,
    SchemaAgnosticNL2SQL,
    SimulatedLLM,
    build_best_schema_prompt,
    build_cot_selection_prompt,
    build_multiple_schema_prompt,
    count_tokens,
    evaluate_nl2sql,
)
from repro.llm.sqlgen import HeuristicSqlGenerator
from repro.retrieval.base import CandidateSchema, RoutingPrediction
from repro.sql import SqlExecutor, parse_sql


class TestCostModel:
    def test_count_tokens_scales_with_words(self):
        assert count_tokens("one two three") > count_tokens("one")

    def test_cost_positive_and_output_weighted(self):
        model = CostModel()
        assert model.cost(1000, 0) == pytest.approx(0.0005)
        assert model.cost(0, 1000) == pytest.approx(0.0015)
        assert model.cost_of_call("a prompt here", "select 1") > 0


class TestPrompts:
    def test_best_schema_prompt_contains_tables_and_question(self, concert_database):
        prompt = build_best_schema_prompt(concert_database, ["singer", "concert"],
                                          "Which singers held concerts?")
        assert "singer(" in prompt.text and "concert(" in prompt.text
        assert "Which singers held concerts?" in prompt.text
        assert prompt.text.strip().endswith("SELECT")

    def test_columns_filter_limits_columns(self, concert_database):
        prompt = build_best_schema_prompt(concert_database, ["singer"], "q",
                                          columns_filter={"singer": ["name"]})
        assert "age" not in prompt.text

    def test_multiple_schema_prompt_concatenates(self, concert_database, world_database):
        prompt = build_multiple_schema_prompt(
            [(concert_database, ["singer"]), (world_database, ["city"])], "q")
        assert "singer(" in prompt.text and "city(" in prompt.text

    def test_cot_prompt_has_identifiers(self, concert_database, world_database):
        prompt = build_cot_selection_prompt(
            [(concert_database, ["singer"]), (world_database, ["city"])], "q")
        assert "[1]" in prompt and "[2]" in prompt


class TestHeuristicGenerator:
    @pytest.fixture
    def generator(self):
        return HeuristicSqlGenerator()

    def test_count_question(self, generator, concert_database, concert_instance):
        sql = generator.generate("How many singers are there whose country is France?",
                                 concert_database, ["singer"])
        result = SqlExecutor(concert_instance).execute_sql(sql)
        assert result.rows == [(2,)]

    def test_filter_question(self, generator, concert_database, concert_instance):
        sql = generator.generate("What is the name of the singer whose country is Japan?",
                                 concert_database, ["singer"])
        result = SqlExecutor(concert_instance).execute_sql(sql)
        assert result.rows == [("Bob",)]

    def test_superlative_projects_identity(self, generator, concert_database, concert_instance):
        sql = generator.generate("Which singer has the highest age?",
                                 concert_database, ["singer"])
        result = SqlExecutor(concert_instance).execute_sql(sql)
        assert result.rows == [("Bob",)]

    def test_join_question_uses_junction(self, generator, concert_database, concert_instance):
        sql = generator.generate(
            "Which singers are linked to the concert whose venue is Grand Arena?",
            concert_database, ["singer", "singer_in_concert", "concert"])
        result = SqlExecutor(concert_instance).execute_sql(sql)
        assert sorted(row[0] for row in result.rows) == ["Alice", "Bob"]

    def test_missing_connector_degrades(self, generator, concert_database):
        # Without the junction table the generator cannot express the join.
        sql = generator.generate(
            "Which singers are linked to the concert whose venue is Grand Arena?",
            concert_database, ["singer", "concert"])
        statement = parse_sql(sql)
        assert statement.from_table.table in ("singer", "concert")

    def test_generates_parseable_sql_for_varied_questions(self, generator, concert_database):
        questions = [
            "What is the average age of all singers?",
            "Which concert has the lowest year?",
            "Show the venue of concerts belonging to the singer whose name is Alice.",
            "Which singer has the most concerts?",
        ]
        for question in questions:
            sql = generator.generate(question, concert_database, concert_database.table_names)
            parse_sql(sql)  # must not raise

    def test_empty_schema(self, generator, concert_database):
        assert generator.generate("anything", concert_database, []) == "SELECT 1"

    def test_fixture_sql_is_unchanged(self, generator, spider_like, spider_like_test_examples):
        """The SQL written for every test question of the benchmark fixture
        (regular, ``syn`` and ``real`` variants; prompted with the gold
        tables, the whole database, and the gold columns) is what it was when
        the generator still re-derived every table's and column's word set
        per question and scoring call -- 2 700 statements, by digest."""
        digest = hashlib.sha256()
        for example in spider_like_test_examples:
            database = spider_like.catalog.database(example.database)
            gold_columns: dict[str, list[str]] = {}
            for qualified in example.columns:
                table, _, column = qualified.partition(".")
                gold_columns.setdefault(table, []).append(column)
            for sql in (
                generator.generate(example.question, database, list(example.tables)),
                generator.generate(example.question, database, database.table_names),
                generator.generate(example.question, database, list(example.tables),
                                   columns_filter=gold_columns),
            ):
                digest.update(sql.encode() + b"\n")
        assert len(spider_like_test_examples) == 900
        assert digest.hexdigest() == \
            "2572c85ddb339404b1bf9c3456fd81cab293b35c6681f673a4edace5a51de0dd"


class TestSimulatedLLMAndPipeline:
    @pytest.fixture
    def environment(self, small_catalog, concert_instance, world_database):
        instances = CatalogInstance(catalog=small_catalog, instances={
            "concert_singer": concert_instance,
            "world": DatabaseInstance(schema=world_database),
        })
        llm = SimulatedLLM(catalog=small_catalog)
        return small_catalog, instances, llm

    @pytest.fixture
    def example(self):
        return Example(
            question="What is the name of the singer whose country is Japan?",
            database="concert_singer",
            tables=("singer",),
            sql="SELECT name FROM singer WHERE country = 'Japan'",
            columns=("singer.name", "singer.country"),
        )

    def test_llm_tracks_cost(self, environment, concert_database):
        _, _, llm = environment
        _, response = llm.generate_sql("How many singers are there?", concert_database, ["singer"])
        assert response.cost > 0
        assert llm.total_cost == pytest.approx(response.cost)
        llm.reset_usage()
        assert llm.total_cost == 0.0

    def test_select_schema_prefers_matching_candidate(self, environment, concert_database,
                                                      world_database):
        _, _, llm = environment
        index, _ = llm.select_schema("which cities have the largest population",
                                     [(concert_database, ["singer"]), (world_database, ["city"])])
        assert index == 1

    def test_best_schema_pipeline_correct_with_gold_routing(self, environment, example):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        prediction = RoutingPrediction(
            ranked_databases=["concert_singer"],
            candidate_schemas=[CandidateSchema("concert_singer", ("singer",), 1.0)],
        )
        result = pipeline.answer(example, prediction=prediction)
        assert result.correct
        assert result.cost > 0

    def test_pipeline_wrong_database_is_incorrect(self, environment, example):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        prediction = RoutingPrediction(
            ranked_databases=["world"],
            candidate_schemas=[CandidateSchema("world", ("city",), 1.0)],
        )
        result = pipeline.answer(example, prediction=prediction)
        assert not result.correct

    def test_human_in_the_loop_selects_gold_candidate(self, environment, example):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm,
                                        strategy=PromptStrategy.HUMAN_IN_THE_LOOP)
        prediction = RoutingPrediction(
            ranked_databases=["world", "concert_singer"],
            candidate_schemas=[
                CandidateSchema("world", ("city",), 2.0),
                CandidateSchema("concert_singer", ("singer",), 1.0),
            ],
        )
        result = pipeline.answer(example, prediction=prediction)
        assert result.predicted_database == "concert_singer"
        assert result.correct

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Every SQL text handed to a parser, through either module's name for it."""
        import repro.llm.pipeline as pipeline_module
        import repro.sql.executor as executor_module

        seen = []
        for module in (pipeline_module, executor_module):
            def counting(sql, parse=module.parse_sql):
                seen.append(sql)
                return parse(sql)
            monkeypatch.setattr(module, "parse_sql", counting)
        return seen

    def test_each_query_is_parsed_once_per_answer(self, environment, example, parsed):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        result = pipeline.answer_with_schema(example, "concert_singer", ["singer"])
        assert result.correct
        assert parsed == [result.predicted_sql, example.sql]

    @pytest.mark.parametrize("strategy", list(PromptStrategy))
    def test_each_query_is_parsed_once_on_every_strategy(self, environment, example, parsed,
                                                         strategy):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm, strategy=strategy)
        prediction = RoutingPrediction(
            ranked_databases=["world", "concert_singer"],
            candidate_schemas=[CandidateSchema("world", ("city",), 2.0),
                               CandidateSchema("concert_singer", ("singer",), 1.0)],
        )
        result = pipeline.answer(example, prediction=prediction)
        assert parsed == [result.predicted_sql, example.sql]
        assert result.error == ""

    def test_candidates_answer_parses_once_and_executes_the_statement(self, environment,
                                                                      example, parsed):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        result = pipeline.answer_with_candidates(
            example, [("world", ["city"]), ("concert_singer", ["singer"])])
        assert parsed == [result.predicted_sql, example.sql]
        assert result.predicted_database == "concert_singer" and result.correct

    @pytest.mark.parametrize("malformed", ["SELECT name FROM", "SELECT name FROM singer WHERE -1"])
    def test_malformed_multi_schema_sql_fails_on_the_first_candidate(
            self, environment, example, parsed, monkeypatch, malformed):
        catalog, instances, llm = environment
        monkeypatch.setattr(llm, "generate_sql_multi", lambda *args: (malformed, None))
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm,
                                        strategy=PromptStrategy.MULTIPLE_SCHEMA)
        candidates = [("world", ["city"]), ("concert_singer", ["singer"])]
        prediction = RoutingPrediction(
            ranked_databases=[name for name, _ in candidates],
            candidate_schemas=[CandidateSchema(name, tuple(tables), 1.0)
                               for name, tables in candidates])
        for result in (pipeline.answer(example, prediction=prediction),
                       pipeline.answer_with_candidates(example, candidates)):
            assert (result.predicted_database, result.correct, result.error) == \
                ("world", False, "execution failed")
        # the gold query was run by the first answer and is remembered
        assert parsed == [malformed, example.sql, malformed]

    @pytest.fixture
    def executions(self, monkeypatch):
        """How many statements ``SqlExecutor.execute`` ran."""
        counts = [0]
        execute = SqlExecutor.execute

        def counting(executor, statement):
            counts[0] += 1
            return execute(executor, statement)
        monkeypatch.setattr(SqlExecutor, "execute", counting)
        return counts

    def test_gold_query_runs_once_across_answers(self, environment, example, parsed,
                                                 executions):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        paraphrase = example.with_question("Which singer comes from Japan?")
        results = [pipeline.answer_with_schema(example, "concert_singer", ["singer"]),
                   pipeline.answer_with_schema(example, "concert_singer", ["singer"]),
                   pipeline.answer_with_schema(paraphrase, "concert_singer", ["singer"])]
        assert parsed == [results[0].predicted_sql, example.sql,
                          results[1].predicted_sql, results[2].predicted_sql]
        # every predicted query runs, the gold query once
        assert executions[0] == len(results) + 1
        assert results[0] == results[1] and results[0].correct

    def test_an_insert_reruns_the_gold_query(self, environment, example, parsed, monkeypatch):
        catalog, instances, llm = environment
        predicted = "SELECT name FROM singer WHERE name = 'Bob'"
        monkeypatch.setattr(llm, "generate_sql", lambda *args: (predicted, None))
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)

        def verdict():
            return pipeline.answer_with_schema(example, "concert_singer", ["singer"]).correct

        assert verdict() and verdict()
        assert parsed == [predicted, example.sql, predicted]
        # a second singer from Japan: the gold result grows, the prediction does not
        instances.instance("concert_singer").insert("singer", (4, "Dora", "Japan", 22))
        assert not verdict()
        assert parsed[3:] == [predicted, example.sql]
        # an instance replaced by another object at the same version is not trusted
        original = instances.instance("concert_singer")
        replacement = DatabaseInstance(schema=original.schema, tables={
            "singer": [(2, "Bob", "Japan", 40)]})
        replacement.version = original.version
        instances.instances["concert_singer"] = replacement
        assert verdict()
        assert parsed[5:] == [predicted, example.sql]

    def test_a_failing_gold_query_is_remembered_and_never_matches(self, environment,
                                                                  example, parsed):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        broken = Example(question=example.question, database=example.database,
                         tables=example.tables, sql="SELECT nonsense")
        results = [pipeline.answer_with_schema(broken, "concert_singer", ["singer"])
                   for _ in range(3)]
        assert [(result.correct, result.error) for result in results] == [(False, "")] * 3
        assert parsed.count("SELECT nonsense") == 1
        assert len(parsed) == 4

    @pytest.mark.parametrize("strategy", list(PromptStrategy))
    def test_remembered_gold_judges_like_a_fresh_pipeline(self, tiny_dataset, strategy):
        """Each test example answered twice by one pipeline gets the result a
        new pipeline gives it, on routes that put the gold database first,
        second or nowhere."""
        catalog, instances = tiny_dataset.catalog, tiny_dataset.instances
        names = catalog.database_names

        def prediction(index, example):
            others = [name for name in names if name != example.database]
            other = others[index % len(others)]
            ranked = ([example.database, other], [other, example.database],
                      others[:2])[index % 3]
            return RoutingPrediction(
                ranked_databases=ranked,
                candidate_schemas=[CandidateSchema(name, tuple(example.tables), 1.0)
                                   for name in ranked])

        def fresh():
            return SchemaAgnosticNL2SQL(catalog, instances, SimulatedLLM(catalog=catalog),
                                        strategy=strategy)

        pipeline = fresh()
        examples = tiny_dataset.test_examples
        for index, example in enumerate(examples * 2):
            routes = prediction(index % len(examples), example)
            # per-answer billing, so that cost does not depend on earlier calls
            pipeline.llm.reset_usage()
            assert pipeline.answer(example, prediction=routes) == \
                fresh().answer(example, prediction=routes)

    def test_row_order_counts_when_the_gold_query_orders(self, environment, example):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        unordered = "SELECT name FROM singer"
        by_age = "SELECT name FROM singer ORDER BY age"
        for gold, predicted, correct in ((unordered, by_age, True), (by_age, unordered, False),
                                         (by_age, by_age, True), ("SELECT nonsense", by_age, False)):
            gold_example = Example(question=example.question, database=example.database,
                                   tables=example.tables, sql=gold)
            assert pipeline._judge(gold_example, "concert_singer", predicted) == (correct, "")

    def test_answer_requires_router_or_prediction(self, environment, example):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        with pytest.raises(ValueError):
            pipeline.answer(example)

    def test_answer_with_schema_oracle(self, environment, example):
        catalog, instances, llm = environment
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm)
        result = pipeline.answer_with_schema(example, "concert_singer", ["singer"])
        assert result.correct

    def test_evaluate_nl2sql_aggregates(self, environment, example):
        catalog, instances, llm = environment
        prediction = RoutingPrediction(
            ranked_databases=["concert_singer"],
            candidate_schemas=[CandidateSchema("concert_singer", ("singer",), 1.0)],
        )
        pipeline = SchemaAgnosticNL2SQL(catalog, instances, llm,
                                        router=lambda question: prediction)
        evaluation = evaluate_nl2sql(pipeline, [example, example])
        assert evaluation.execution_accuracy == 1.0
        assert evaluation.total_cost > 0
        assert evaluation.as_row()["EX"] == 100.0


class TestOracleProvider:
    def test_oracle_levels(self, tiny_dataset):
        oracle = OracleSchemaProvider(tiny_dataset.catalog)
        example = tiny_dataset.test_examples[0]
        database, tables, columns = oracle.gold_tables_and_columns(example)
        assert database == example.database and set(tables) == set(example.tables)
        assert columns
        _, all_tables = oracle.gold_database(example)
        assert set(tables) <= set(all_tables)
        five = oracle.five_databases(example)
        assert len(five) == min(5, len(tiny_dataset.catalog))
        assert example.database in [name for name, _ in five]
