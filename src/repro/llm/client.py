"""Simulated LLM client.

The client exposes the two operations the SQL-generation stage needs from an
LLM -- completing a schema-aware NL2SQL prompt, and selecting the most relevant
candidate schema in the chain-of-thought strategy -- together with the token
cost of every call.  Generation quality is driven by the heuristic generator
in :mod:`repro.llm.sqlgen`; the *interface* (prompt in, text + cost out)
matches what an OpenAI-backed client would provide, so swapping in a real LLM
only requires re-implementing this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.cost import CostModel, count_tokens
from repro.llm.prompts import (
    SchemaPrompt,
    build_best_schema_prompt,
    build_cot_selection_prompt,
    build_multiple_schema_prompt,
)
from repro.llm.sqlgen import HeuristicSqlGenerator
from repro.schema.catalog import Catalog
from repro.schema.database import Database
from repro.utils.text import singularize, tokenize_text


@dataclass
class LlmResponse:
    """One simulated LLM call: the completion text plus its cost."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    cost: float


@dataclass
class SimulatedLLM:
    """Deterministic stand-in for ``gpt-3.5-turbo`` SQL generation."""

    catalog: Catalog
    cost_model: CostModel = field(default_factory=CostModel)
    generator: HeuristicSqlGenerator = field(default_factory=HeuristicSqlGenerator)
    #: Accumulated cost of every call made through this client.
    total_cost: float = 0.0
    calls: int = 0

    # -- internals --------------------------------------------------------------
    def _record(self, prompt: str, completion: str) -> LlmResponse:
        prompt_tokens = count_tokens(prompt)
        completion_tokens = count_tokens(completion)
        cost = self.cost_model.cost(prompt_tokens, completion_tokens)
        self.total_cost += cost
        self.calls += 1
        return LlmResponse(text=completion, prompt_tokens=prompt_tokens,
                           completion_tokens=completion_tokens, cost=cost)

    # -- SQL generation ------------------------------------------------------------
    def generate_sql(self, question: str, database: Database, tables: list[str],
                     columns_filter: dict[str, list[str]] | None = None) -> tuple[str, LlmResponse]:
        """Generate SQL with the best-schema (basic) prompt."""
        prompt = build_best_schema_prompt(database, tables, question, columns_filter)
        sql = self.generator.generate(question, database, list(tables),
                                      columns_filter=columns_filter)
        response = self._record(prompt.text, sql)
        return sql, response

    def generate_sql_multi(self, question: str,
                           candidates: list[tuple[Database, list[str]]]) -> tuple[str, LlmResponse]:
        """Generate SQL with multiple candidate schemata concatenated in the prompt.

        Extraneous schemata are merged into the set of referencable tables of
        the *first* candidate's database -- mirroring how irrelevant context
        makes an LLM more likely to pick the wrong tables.
        """
        prompt = build_multiple_schema_prompt(candidates, question)
        primary_database, _ = candidates[0]
        table_pool: list[str] = []
        for database, tables in candidates:
            if database.name == primary_database.name:
                table_pool.extend(tables)
        # The generator selects among every prompted table of the primary
        # database; tables from other databases cannot produce executable SQL
        # against it, so they only add prompt cost and selection noise.
        best_database, best_tables = self._confusable_choice(question, candidates)
        sql = self.generator.generate(question, best_database, best_tables)
        response = self._record(prompt.text, sql)
        return sql, response

    def _confusable_choice(self, question: str,
                           candidates: list[tuple[Database, list[str]]]) -> tuple[Database, list[str]]:
        """Pick the candidate the model would implicitly write SQL against.

        With a single concatenated prompt the model is not forced to pick the
        top-ranked schema; it drifts towards whichever block lexically matches
        the question best, which is where multi-schema prompting loses accuracy.
        """
        best = candidates[0]
        best_score = -1.0
        for database, tables in candidates:
            score = self._schema_overlap(question, database, tables)
            if score > best_score:
                best_score = score
                best = (database, tables)
        return best

    # -- chain-of-thought schema selection ----------------------------------------------
    def select_schema(self, question: str,
                      candidates: list[tuple[Database, list[str]]]) -> tuple[int, LlmResponse]:
        """Turn 1 of the CoT strategy: return the index of the chosen candidate."""
        prompt = build_cot_selection_prompt(candidates, question)
        scores = [self._schema_overlap(question, database, tables)
                  for database, tables in candidates]
        chosen = max(range(len(candidates)), key=lambda index: scores[index]) if candidates else 0
        response = self._record(prompt, f"[{chosen + 1}]")
        return chosen, response

    def _schema_overlap(self, question: str, database: Database, tables: list[str]) -> float:
        concepts = {singularize(token) for token in tokenize_text(question)}
        score = 0.0
        for table_name in tables:
            if not database.has_table(table_name):
                continue
            table = database.table(table_name)
            score += (2.0 * len(concepts & table.singular_words)
                      + 0.5 * len(concepts & table.column_singular_words))
        return score

    # -- bookkeeping -----------------------------------------------------------------------
    def reset_usage(self) -> None:
        self.total_cost = 0.0
        self.calls = 0


__all__ = ["LlmResponse", "SimulatedLLM", "SchemaPrompt"]
