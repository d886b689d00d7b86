"""Schema-agnostic NL2SQL pipeline and execution-accuracy evaluation.

The pipeline couples any routing method (DBCopilot or a retrieval baseline)
with the simulated LLM and one of the prompt strategies of §3.6, executes the
generated SQL on the in-memory engine, and scores execution accuracy (EX)
against the gold query, reporting the accumulated LLM cost -- the protocol of
the paper's Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.datasets.examples import Example
from repro.engine.comparison import results_equivalent
from repro.engine.instance import CatalogInstance, DatabaseInstance
from repro.engine.relation import Relation
from repro.llm.client import SimulatedLLM
from repro.llm.prompts import PromptStrategy
from repro.retrieval.base import RoutingPrediction
from repro.schema.catalog import Catalog
from repro.sql.ast import SelectStatement
from repro.sql.errors import SqlError
from repro.sql.executor import SqlExecutor
from repro.sql.parser import parse_sql
from repro.utils.memo import evict_oldest

#: A routing function maps a question to a RoutingPrediction.
Router = Callable[[str], RoutingPrediction]

#: Gold results a pipeline remembers, oldest evicted first.  A test set holds
#: far fewer distinct ``(database, gold SQL)`` pairs than examples: the 900
#: examples of the benchmark fixture hold 260.
MAX_GOLD_RESULTS = 4096


@dataclass
class GenerationResult:
    """One end-to-end NL2SQL attempt."""

    question: str
    predicted_sql: str
    predicted_database: str
    gold_database: str
    correct: bool
    cost: float
    error: str = ""


@dataclass
class Nl2SqlEvaluation:
    """Aggregate EX and cost over a test set."""

    results: list[GenerationResult] = field(default_factory=list)
    total_cost: float = 0.0

    @property
    def execution_accuracy(self) -> float:
        if not self.results:
            return 0.0
        return sum(1.0 for result in self.results if result.correct) / len(self.results)

    def as_row(self) -> dict[str, float]:
        return {
            "EX": round(100.0 * self.execution_accuracy, 2),
            "cost": round(self.total_cost, 4),
        }


class SchemaAgnosticNL2SQL:
    """Route a question, prompt the LLM, execute, and compare."""

    def __init__(self, catalog: Catalog, instances: CatalogInstance, llm: SimulatedLLM,
                 router: Router | None = None,
                 strategy: PromptStrategy = PromptStrategy.BEST_SCHEMA,
                 num_candidates: int = 5) -> None:
        self.catalog = catalog
        self.instances = instances
        self.llm = llm
        self.router = router
        self.strategy = strategy
        self.num_candidates = num_candidates
        #: (database, gold SQL) -> (instance, its version then, gold result or
        #: ``None`` if the gold query failed); see :meth:`_gold`.
        self._gold_results: dict[tuple[str, str],
                                 tuple[DatabaseInstance, int, Relation | None]] = {}

    # -- execution and judgement -------------------------------------------------------
    def _execute(self, database: str, query: str | SelectStatement | None) -> Relation | None:
        """Run SQL text, or a statement the caller already parsed (``None``: it
        did not parse); any failure is ``None``."""
        if query is None:
            return None
        try:
            executor = SqlExecutor(self.instances.instance(database))
            if isinstance(query, str):
                return executor.execute_sql(query)
            return executor.execute(query)
        except (SqlError, KeyError):
            return None

    def _gold(self, example: Example) -> Relation | None:
        """The gold query's result (``None``: it failed), executed once per
        database version.

        The memo entry keeps the instance object and the ``version`` it was
        computed at; a replaced instance or an insert since then recomputes
        it, so a changed database is never judged against a stale result.  An
        unknown gold database is not remembered.
        """
        try:
            instance = self.instances.instance(example.database)
        except KeyError:
            return None
        key = (example.database, example.sql)
        # One read, as in the router's parse memo; a failed gold query is
        # remembered as the entry's ``None`` result, so a missing entry is a miss.
        entry = self._gold_results.get(key)
        if entry is None or entry[0] is not instance or entry[1] != instance.version:
            entry = (instance, instance.version, self._execute(example.database, example.sql))
            evict_oldest(self._gold_results, MAX_GOLD_RESULTS)
            self._gold_results[key] = entry
        return entry[2]

    def _judge(self, example: Example, predicted_database: str,
               query: str | SelectStatement | None) -> tuple[bool, str]:
        """Execute ``query`` and compare it with the gold result; returns (EX
        verdict, error note).

        The predicted query -- the system under test -- is executed on every
        call: text parsed inside ``execute_sql``, or the statement the
        multi-schema strategies' ``_database_of_sql`` already parsed.  The gold
        query is parsed and executed once per database version
        (:meth:`_gold`), and whether row order counts is read off its *result*
        (``Relation.ordered``), not from another parse of the gold text.
        """
        predicted = self._execute(predicted_database, query)
        gold = self._gold(example)
        correct = results_equivalent(predicted, gold,
                                     order_sensitive=gold is not None and gold.ordered) \
            and predicted_database == example.database
        return correct, "" if predicted is not None else "execution failed"

    # -- candidate selection ------------------------------------------------------------
    def _candidates(self, prediction: RoutingPrediction) -> list[tuple[str, list[str]]]:
        candidates = []
        for candidate in prediction.candidate_schemas[: self.num_candidates]:
            if not self.catalog.has_database(candidate.database):
                continue
            database = self.catalog.database(candidate.database)
            tables = [table for table in candidate.tables if database.has_table(table)]
            if not tables:
                tables = database.table_names
            candidates.append((candidate.database, tables))
        return candidates

    # -- main entry point ------------------------------------------------------------------
    def answer(self, example: Example, prediction: RoutingPrediction | None = None,
               gold_schema_selector: bool = False) -> GenerationResult:
        """Answer one example; returns the generation result with EX judgement."""
        if prediction is None:
            if self.router is None:
                raise ValueError("either a router or a prediction must be provided")
            prediction = self.router(example.question)
        candidates = self._candidates(prediction)
        if not candidates:
            return GenerationResult(question=example.question, predicted_sql="",
                                    predicted_database="", gold_database=example.database,
                                    correct=False, cost=0.0, error="no candidate schema")

        cost_before = self.llm.total_cost
        # ``query`` is what gets judged: the SQL text, or -- from the one strategy
        # that has to parse it to attribute it -- the statement (``None``: malformed).
        query: str | SelectStatement | None
        if gold_schema_selector or self.strategy is PromptStrategy.HUMAN_IN_THE_LOOP:
            chosen = self._human_in_the_loop_choice(example, candidates)
            database = self.catalog.database(chosen[0])
            sql, _ = self.llm.generate_sql(example.question, database, chosen[1])
            query = sql
            predicted_database = chosen[0]
        elif self.strategy is PromptStrategy.BEST_SCHEMA:
            database_name, tables = candidates[0]
            database = self.catalog.database(database_name)
            sql, _ = self.llm.generate_sql(example.question, database, tables)
            query = sql
            predicted_database = database_name
        elif self.strategy is PromptStrategy.MULTIPLE_SCHEMA:
            structured = [(self.catalog.database(name), tables) for name, tables in candidates]
            sql, _ = self.llm.generate_sql_multi(example.question, structured)
            predicted_database, query = self._database_of_sql(structured, sql)
        elif self.strategy is PromptStrategy.MULTIPLE_SCHEMA_COT:
            structured = [(self.catalog.database(name), tables) for name, tables in candidates]
            chosen_index, _ = self.llm.select_schema(example.question, structured)
            database, tables = structured[chosen_index]
            sql, _ = self.llm.generate_sql(example.question, database, list(tables))
            query = sql
            predicted_database = database.name
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown prompt strategy {self.strategy}")
        cost = self.llm.total_cost - cost_before

        correct, error = self._judge(example, predicted_database, query)
        return GenerationResult(question=example.question, predicted_sql=sql,
                                predicted_database=predicted_database,
                                gold_database=example.database, correct=correct,
                                cost=cost, error=error)

    # -- oracle entry points (Table 6 upper-bound rows) -------------------------------
    def answer_with_schema(self, example: Example, database_name: str, tables: list[str],
                           columns_filter: dict[str, list[str]] | None = None) -> GenerationResult:
        """Answer with an explicitly provided schema (gold T&C / gold T / gold DB)."""
        database = self.catalog.database(database_name)
        cost_before = self.llm.total_cost
        sql, _ = self.llm.generate_sql(example.question, database, tables, columns_filter)
        cost = self.llm.total_cost - cost_before
        correct, error = self._judge(example, database_name, sql)
        return GenerationResult(question=example.question, predicted_sql=sql,
                                predicted_database=database_name,
                                gold_database=example.database, correct=correct, cost=cost,
                                error=error)

    def answer_with_candidates(self, example: Example,
                               candidates: list[tuple[str, list[str]]]) -> GenerationResult:
        """Answer with several full schemata in one prompt ("5 DB w. Gold")."""
        structured = [(self.catalog.database(name), tables) for name, tables in candidates]
        cost_before = self.llm.total_cost
        sql, _ = self.llm.generate_sql_multi(example.question, structured)
        cost = self.llm.total_cost - cost_before
        predicted_database, statement = self._database_of_sql(structured, sql)
        correct, error = self._judge(example, predicted_database, statement)
        return GenerationResult(question=example.question, predicted_sql=sql,
                                predicted_database=predicted_database,
                                gold_database=example.database, correct=correct, cost=cost,
                                error=error)

    def _human_in_the_loop_choice(self, example: Example,
                                  candidates: list[tuple[str, list[str]]]) -> tuple[str, list[str]]:
        """Simulate a user picking the best of the top candidates.

        The user recognises their target database and the tables they care
        about, so the candidate from the gold database with the highest gold
        table coverage is selected; when none matches, the top candidate is
        kept (the user cannot invent a schema that was never proposed).
        """
        best = candidates[0]
        best_coverage = -1.0
        for database, tables in candidates:
            if database != example.database:
                continue
            coverage = len(set(tables) & set(example.tables)) / max(len(example.tables), 1)
            if coverage > best_coverage:
                best_coverage = coverage
                best = (database, tables)
        return best

    @staticmethod
    def _database_of_sql(structured: list[tuple[object, list[str]]],
                         sql: str) -> tuple[str, SelectStatement | None]:
        """Best-effort attribution of multi-schema SQL to one candidate database.

        Returns the database and the statement ``sql`` parsed to, for the
        caller to execute (``None``, and the first candidate, if it did not
        parse).
        """
        try:
            statement = parse_sql(sql)
        except SqlError:
            return structured[0][0].name, None  # type: ignore[union-attr]
        referenced = {ref.table for ref in statement.table_refs()}
        for database, tables in structured:
            if referenced <= set(getattr(database, "table_names", tables)):
                return database.name, statement  # type: ignore[union-attr]
        return structured[0][0].name, statement  # type: ignore[union-attr]


def evaluate_nl2sql(pipeline: SchemaAgnosticNL2SQL, examples: Sequence[Example],
                    predictions: Sequence[RoutingPrediction] | None = None) -> Nl2SqlEvaluation:
    """Evaluate EX and cost over ``examples`` (optionally with precomputed routing)."""
    evaluation = Nl2SqlEvaluation()
    for index, example in enumerate(examples):
        prediction = predictions[index] if predictions is not None else None
        result = pipeline.answer(example, prediction=prediction)
        evaluation.results.append(result)
        evaluation.total_cost += result.cost
    return evaluation
