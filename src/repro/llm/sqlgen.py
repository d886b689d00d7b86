"""Heuristic NL2SQL generation: the core of the simulated LLM.

The generator receives the question and the schema that was present in the
prompt (the tables it is allowed to reference) and produces a SQL string.  It
mimics how a capable LLM behaves with a schema-aware prompt:

* it resolves paraphrases back to schema vocabulary (LLMs are good at this,
  so the full synonym lexicon is used);
* it picks the tables and columns that best match the question *among the
  prompted ones* -- which is precisely why extraneous schema elements hurt
  (more candidates to confuse) and missing tables are fatal (the needed table
  cannot be referenced at all);
* it composes joins through shared key columns, aggregates, superlatives,
  grouped counts, and filters, covering the query shapes of the workload.

The output is plain SQL text; the evaluation parses and executes it like any
other model output, so malformed or semantically wrong SQL simply scores zero
execution accuracy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.datasets.vocabulary import SYNONYM_LEXICON
from repro.schema.column import Column, ColumnType
from repro.schema.database import Database
from repro.schema.table import Table
from repro.utils.text import singularize, tokenize_text


def _reverse_lexicon() -> dict[str, str]:
    reverse: dict[str, str] = {}
    for canonical, paraphrases in SYNONYM_LEXICON.items():
        for phrase in paraphrases:
            for word in tokenize_text(phrase):
                # A word that is itself schema vocabulary keeps its identity
                # ("country" must not be folded into "nationality").
                if word in SYNONYM_LEXICON:
                    continue
                reverse.setdefault(word, canonical)
    return reverse


_REVERSE_LEXICON = _reverse_lexicon()

_STOPWORDS = {
    "what", "which", "who", "whose", "where", "when", "is", "are", "was", "were",
    "the", "a", "an", "of", "for", "with", "in", "on", "to", "and", "or", "all",
    "every", "each", "list", "show", "find", "give", "return", "that", "have",
    "has", "there", "than", "at", "least", "most", "by", "from", "belonging",
    "linked", "associated", "connected", "values", "value", "their", "them",
    "together", "through", "given", "across", "do", "does", "total",
}

#: Markers splitting the "asked about" part from the "related / filtered" part.
_RELATION_MARKERS = (
    " belonging to the ", " belonging to ", " for the ", " linked to the ",
    " linked to ", " associated with ", " connected to a ", " connected to ",
    " have at least one ", " have a ", " of the ", " related to ",
)

_GROUPED_MARKERS = (" has the most ", " with the largest number of ",
                    " with the most ", " have the most ")

_COUNT_HINTS = ("how many", "count the", "number of", "what is the number")
_HIGH_SUPERLATIVES = ("highest", "largest", "most", "biggest", "greatest", "top")
_LOW_SUPERLATIVES = ("lowest", "smallest", "fewest", "least")


@dataclass
class _QuestionAnalysis:
    concepts: list[str] = field(default_factory=list)
    prefix_concepts: list[str] = field(default_factory=list)
    suffix_concepts: list[str] = field(default_factory=list)
    grouped_suffix: list[str] = field(default_factory=list)
    count: bool = False
    aggregate: str | None = None
    superlative_desc: bool = False
    superlative_asc: bool = False
    grouped_count: bool = False
    distinct: bool = False
    nested_extreme: str | None = None
    filter_value: str | None = None
    filter_numeric: float | None = None
    numeric_greater: bool = False


class HeuristicSqlGenerator:
    """Generates SQL for a question against the prompted schema."""

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, question: str, database: Database, tables: list[str],
                 columns_filter: dict[str, list[str]] | None = None) -> str:
        """Generate SQL text referencing only ``tables`` of ``database``.

        ``columns_filter`` restricts the columns visible for a table (the
        gold-columns oracle prompt); fewer visible columns mean fewer ways to
        pick the wrong one.
        """
        available = [database.table(name) for name in tables if database.has_table(name)]
        if columns_filter:
            available = [self._restrict_columns(table, columns_filter.get(table.name))
                         for table in available]
        if not available:
            return "SELECT 1"
        analysis = self._analyse(question)
        target = self._pick_target(analysis, available)

        if analysis.grouped_count:
            grouped = self._compose_grouped_count(analysis, available, target)
            if grouped is not None:
                return grouped

        secondary = self._pick_secondary(analysis, available, target)
        display = self._pick_display_column(analysis, target)
        filter_clause, filter_table = self._build_filter(analysis, available, target, secondary)

        join_tables: list[Table] = [target]
        if filter_table is not None and filter_table.name != target.name:
            path = self._join_path(available, target, filter_table)
            if path is not None:
                join_tables = path
            else:
                # The connector table is missing from the prompt; the model has
                # to fall back to a single-table query, which is usually wrong.
                filter_clause = None
        return self._compose(analysis, join_tables, target, display, filter_clause)

    @staticmethod
    def _restrict_columns(table: Table, wanted: list[str] | None) -> Table:
        if not wanted:
            return table
        wanted_set = set(wanted)
        columns = [column for column in table.columns
                   if column.name in wanted_set or column.is_primary_key
                   or column.name.endswith("_id")]
        return Table(name=table.name, columns=columns or list(table.columns),
                     comment=table.comment)

    # ------------------------------------------------------------------
    # question analysis
    # ------------------------------------------------------------------
    def _concepts(self, text: str) -> list[str]:
        concepts = []
        for token in tokenize_text(text):
            if token in _STOPWORDS:
                continue
            canonical = _REVERSE_LEXICON.get(token, token)
            concepts.append(singularize(canonical))
        return concepts

    def _analyse(self, question: str) -> _QuestionAnalysis:
        lowered = question.lower()
        analysis = _QuestionAnalysis(concepts=self._concepts(question))
        analysis.count = any(hint in lowered for hint in _COUNT_HINTS)

        # Aggregates: earliest hint wins; explicit extremes beat "total"/"sum".
        hint_positions = []
        for hint, function in (("average", "AVG"), ("mean", "AVG"), ("maximum", "MAX"),
                               ("minimum", "MIN"), ("total", "SUM"), ("sum of", "SUM")):
            position = lowered.find(hint)
            if position >= 0:
                hint_positions.append((position, function))
        if hint_positions:
            analysis.aggregate = min(hint_positions)[1]

        analysis.superlative_desc = any(word in lowered for word in _HIGH_SUPERLATIVES)
        analysis.superlative_asc = any(word in lowered for word in _LOW_SUPERLATIVES)

        # Grouped counts: "which X has the most Y".
        for marker in _GROUPED_MARKERS:
            position = lowered.find(marker)
            if position >= 0:
                analysis.grouped_count = True
                analysis.prefix_concepts = self._concepts(lowered[:position])
                analysis.grouped_suffix = self._concepts(lowered[position + len(marker):])
                break

        if not analysis.grouped_count:
            split_position = None
            split_marker = ""
            for marker in _RELATION_MARKERS:
                position = lowered.find(marker)
                if position >= 0 and (split_position is None or position < split_position):
                    split_position = position
                    split_marker = marker
            if split_position is not None:
                analysis.prefix_concepts = self._concepts(lowered[:split_position])
                analysis.suffix_concepts = self._concepts(
                    lowered[split_position + len(split_marker):])
                if split_marker in (" have a ", " have at least one "):
                    # "which X have a Y ..." joins one-to-many and needs DISTINCT
                    # to match the semantics of the nested IN formulation.
                    analysis.distinct = True
            else:
                analysis.prefix_concepts = list(analysis.concepts)

        # "whose <column> is the largest" asks for the rows attaining the extreme
        # value (ties included), which needs a nested sub-query, not LIMIT 1.
        nested = re.search(r"whose ([\w ]+?) is the (largest|smallest|highest|lowest|maximum|minimum)", lowered)
        if nested:
            analysis.nested_extreme = "MAX" if nested.group(2) in ("largest", "highest", "maximum") else "MIN"

        # Equality filter value: the text after the *last* " is " when it looks
        # like a literal (short, not an article-led noun phrase).
        position = lowered.rfind(" is ")
        if position >= 0:
            tail = question[position + 4:].strip().rstrip("?.").strip()
            words = tail.split()
            if words and len(words) <= 4 and words[0].lower() not in ("the", "a", "an") \
                    and tail.lower() not in ("true", "false"):
                analysis.filter_value = tail
        numeric = re.search(r"(greater|more|higher|less|lower|fewer) than (\d+(?:\.\d+)?)", lowered)
        if numeric:
            analysis.filter_numeric = float(numeric.group(2))
            analysis.numeric_greater = numeric.group(1) in ("greater", "more", "higher")
        return analysis

    # ------------------------------------------------------------------
    # schema matching
    # ------------------------------------------------------------------
    def _score_table(self, concepts: list[str], table: Table) -> float:
        words = table.singular_words
        column_words = table.column_singular_words
        score = 0.0
        for concept in concepts:
            if concept in words:
                score += 2.0
            elif concept in column_words:
                score += 0.5
        if words and words <= set(concepts):
            # Every word of the table name is mentioned: an exact entity match
            # beats multi-word tables that merely share one word.
            score += 1.0
        # Narrow tables win ties, the way an LLM prefers the obvious table.
        return score - 0.01 * len(table.columns)

    def _pick_target(self, analysis: _QuestionAnalysis, available: list[Table]) -> Table:
        concepts = analysis.prefix_concepts or analysis.concepts
        best = max(available, key=lambda table: self._score_table(concepts, table))
        if self._score_table(concepts, best) < 1.5:
            # The prefix did not clearly name a table; use the whole question.
            best = max(available, key=lambda table: self._score_table(analysis.concepts, table))
        return best

    def _pick_secondary(self, analysis: _QuestionAnalysis, available: list[Table],
                        target: Table) -> Table | None:
        if not analysis.suffix_concepts:
            return None
        candidates = [table for table in available if table.name != target.name]
        if not candidates:
            return None
        best = max(candidates, key=lambda table: self._score_table(analysis.suffix_concepts, table))
        if self._score_table(analysis.suffix_concepts, best) < 1.5:
            return None
        return best

    @staticmethod
    def _column_score(concepts: list[str], column: Column) -> float:
        words = column.singular_words
        return sum(1.0 for concept in concepts if concept in words)

    def _identity_column(self, table: Table) -> str | None:
        for column in table.columns:
            if column.name in ("name", "title"):
                return column.name
        for column in table.columns:
            if column.name.endswith("_name") or column.name.endswith("_title"):
                return column.name
        return None

    def _pick_display_column(self, analysis: _QuestionAnalysis, table: Table) -> str:
        concepts = analysis.prefix_concepts or analysis.concepts
        candidates = [column for column in table.columns
                      if not column.is_primary_key and not column.name.endswith("_id")]
        if not candidates:
            candidates = list(table.columns)
        scored = sorted(candidates, key=lambda column: (
            -self._column_score(concepts, column),
            0 if column.column_type is ColumnType.TEXT else 1,
        ))
        best = scored[0]
        wants_extreme = (analysis.superlative_desc or analysis.superlative_asc
                         or analysis.nested_extreme is not None)
        if wants_extreme and best.column_type.is_numeric:
            # "Which singer has the highest age?" asks for the singer (identity
            # column), not for the age value itself.
            identity = self._identity_column(table)
            if identity is not None:
                return identity
        if self._column_score(concepts, best) <= 0:
            # No column is mentioned explicitly: "which singer ..." asks for
            # the identity column.
            identity = self._identity_column(table)
            if identity is not None:
                return identity
        return best.name

    def _numeric_column(self, analysis: _QuestionAnalysis, table: Table) -> str | None:
        candidates = [column for column in table.columns
                      if column.column_type.is_numeric and not column.is_primary_key
                      and not column.name.endswith("_id")]
        if not candidates:
            return None
        concepts = analysis.concepts
        return max(candidates, key=lambda column: self._column_score(concepts, column)).name

    # ------------------------------------------------------------------
    # filters
    # ------------------------------------------------------------------
    def _build_filter(self, analysis: _QuestionAnalysis, available: list[Table],
                      target: Table, secondary: Table | None) -> tuple[str | None, Table | None]:
        # Prefer placing the filter on the secondary (related) table when one
        # was identified; otherwise on the target, then any prompted table.
        if secondary is not None:
            search_order = [secondary, target]
        else:
            search_order = [target] + [table for table in available if table.name != target.name]
        concepts = analysis.suffix_concepts or analysis.concepts
        if analysis.filter_value is not None:
            found = self._find_filter_column(concepts, search_order, prefer_text=True)
            if found is not None:
                column, table = found
                value = analysis.filter_value.replace("'", "''")
                return f"{table.name}.{column} = '{value}'", table
        if analysis.filter_numeric is not None:
            found = self._find_filter_column(concepts, search_order, prefer_text=False)
            if found is not None:
                column, table = found
                operator = ">" if analysis.numeric_greater else "<"
                return f"{table.name}.{column} {operator} {analysis.filter_numeric}", table
        return None, None

    def _find_filter_column(self, concepts: list[str], search_order: list[Table],
                            prefer_text: bool) -> tuple[str, Table] | None:
        best: tuple[float, str, Table] | None = None
        for priority, table in enumerate(search_order):
            for column in table.columns:
                if column.is_primary_key or column.name.endswith("_id"):
                    continue
                is_text = column.column_type in (ColumnType.TEXT, ColumnType.DATE)
                if prefer_text != is_text:
                    continue
                score = self._column_score(concepts, column) - 0.1 * priority
                if score <= 0:
                    continue
                if best is None or score > best[0]:
                    best = (score, column.name, table)
        if best is None:
            return None
        return best[1], best[2]

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _join_path(self, available: list[Table], start: Table, goal: Table) -> list[Table] | None:
        """Breadth-first join path between two prompted tables via shared keys."""
        by_name = {table.name: table for table in available}
        frontier = [[start.name]]
        visited = {start.name}
        while frontier:
            path = frontier.pop(0)
            current = by_name[path[-1]]
            if current.name == goal.name:
                return [by_name[name] for name in path]
            for other in available:
                if other.name in visited:
                    continue
                if self._shared_key(current, other) is not None:
                    visited.add(other.name)
                    frontier.append(path + [other.name])
        return None

    @staticmethod
    def _shared_key(left: Table, right: Table) -> str | None:
        left_keys = [column.name for column in left.columns if column.name.endswith("_id")]
        right_keys = {column.name for column in right.columns if column.name.endswith("_id")}
        for key in left_keys:
            if key in right_keys:
                return key
        return None

    # ------------------------------------------------------------------
    # SQL composition
    # ------------------------------------------------------------------
    def _compose_grouped_count(self, analysis: _QuestionAnalysis, available: list[Table],
                               target: Table) -> str | None:
        """"Which X has the most Y" -> grouped count over the join of X and Y."""
        candidates = [table for table in available if table.name != target.name]
        if not candidates:
            return None
        child = max(candidates,
                    key=lambda table: self._score_table(analysis.grouped_suffix, table))
        if self._score_table(analysis.grouped_suffix, child) < 1.5:
            return None
        path = self._join_path(available, child, target)
        if path is None:
            return None
        display = self._pick_display_column(analysis, target)
        join_clauses = []
        for previous, current in zip(path, path[1:]):
            key = self._shared_key(previous, current)
            join_clauses.append(f"JOIN {current.name} ON {previous.name}.{key} = {current.name}.{key}")
        direction = "ASC" if analysis.superlative_asc and not analysis.superlative_desc else "DESC"
        return " ".join([
            f"SELECT {target.name}.{display}",
            f"FROM {path[0].name}", *join_clauses,
            f"GROUP BY {target.name}.{display}",
            f"ORDER BY COUNT(*) {direction}", "LIMIT 1",
        ])

    def _compose(self, analysis: _QuestionAnalysis, join_tables: list[Table], target: Table,
                 display_column: str, filter_clause: str | None) -> str:
        projection = f"{target.name}.{display_column}"
        if analysis.distinct and not analysis.count and analysis.aggregate is None:
            projection = f"DISTINCT {projection}"
        if analysis.count:
            projection = "COUNT(*)"
        elif analysis.aggregate is not None:
            numeric = self._numeric_column(analysis, target)
            if numeric is not None:
                projection = f"{analysis.aggregate}({target.name}.{numeric})"

        # Ties-aware extremes: "whose <col> is the largest" selects every row
        # attaining the extreme via a nested sub-query.
        if analysis.nested_extreme is not None and analysis.aggregate is None and not analysis.count:
            numeric = self._numeric_column(analysis, target)
            if numeric is not None and len(join_tables) == 1:
                return (f"SELECT {target.name}.{display_column} FROM {target.name} "
                        f"WHERE {target.name}.{numeric} = "
                        f"(SELECT {analysis.nested_extreme}({numeric}) FROM {target.name})")

        from_clause = f"FROM {join_tables[0].name}"
        join_clauses = []
        for previous, current in zip(join_tables, join_tables[1:]):
            key = self._shared_key(previous, current)
            if key is None:
                continue
            join_clauses.append(
                f"JOIN {current.name} ON {previous.name}.{key} = {current.name}.{key}"
            )

        where = f"WHERE {filter_clause}" if filter_clause else ""
        order = ""
        limit = ""
        if (analysis.superlative_desc or analysis.superlative_asc) \
                and not analysis.count and analysis.aggregate is None:
            numeric = self._numeric_column(analysis, target)
            if numeric is not None and numeric != display_column:
                direction = "DESC" if analysis.superlative_desc else "ASC"
                order = f"ORDER BY {target.name}.{numeric} {direction}"
                limit = "LIMIT 1"

        parts = [f"SELECT {projection}", from_clause, *join_clauses, where, order, limit]
        return " ".join(part for part in parts if part)
