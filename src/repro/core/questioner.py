"""Reverse schema-to-question generation (paper §3.4, Figure 3).

The schema questioner receives a (detailed) schema -- database, tables, and
their columns -- and produces a natural-language pseudo-question that such a
schema could answer.  The paper trains a T5 questioner on the NL2SQL training
sets; offline two implementations are provided:

* :class:`TemplateQuestioner` -- a deterministic, lexicon-driven generator
  that phrases questions about the sampled tables and paraphrases schema
  words.  It is the default for the experiments because it produces reliable,
  diverse questions at zero training cost; the semantic-mismatch signal the
  router needs comes from the paraphrasing step.
* :class:`NeuralQuestioner` -- a small Seq2Seq model trained in reverse on the
  (schema, question) pairs extracted from the NL2SQL training split, matching
  the paper's design.  It is exercised by tests and available for ablations;
  its output quality is limited by the model size (the hallucination /
  generation-bias issue the paper's case study discusses).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.datasets.vocabulary import SYNONYM_LEXICON
from repro.nn.data import Batch  # noqa: F401  (re-exported for typing convenience)
from repro.nn.decoding import diverse_beam_search_batch
from repro.nn.seq2seq import Seq2SeqConfig, Seq2SeqModel
from repro.nn.tokenizer import Vocabulary, WordTokenizer
from repro.nn.trainer import Seq2SeqTrainer, TrainerConfig
from repro.schema.catalog import Catalog
from repro.schema.table import Table
from repro.utils.rng import SeededRng
from repro.utils.text import pluralize, tokenize_text


class SchemaQuestioner(ABC):
    """Interface: generate a pseudo-question for a sampled schema."""

    @abstractmethod
    def question_for(self, database: str, tables: tuple[str, ...]) -> str:
        """Return one natural-language question answerable by the schema."""


@dataclass
class TemplateQuestioner(SchemaQuestioner):
    """Template- and lexicon-based questioner.

    Questions mention the sampled tables and a few of their columns, with each
    schema word paraphrased with probability ``paraphrase_probability`` --
    this is what teaches the router the semantic mapping between user
    vocabulary and schema vocabulary.
    """

    catalog: Catalog
    paraphrase_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = SeededRng(self.seed)

    # -- public API -----------------------------------------------------------
    def question_for(self, database: str, tables: tuple[str, ...]) -> str:
        rng = self._rng.child(f"{database}:{'|'.join(tables)}:{self._rng.randint(0, 10**9)}")
        db = self.catalog.database(database)
        table_objects = [db.table(name) for name in tables if db.has_table(name)]
        if not table_objects:
            return f"What information is stored about {self._phrase(database, rng)}?"
        if len(table_objects) == 1:
            return self._single_table_question(table_objects[0], rng)
        return self._multi_table_question(table_objects, rng)

    # -- phrasing helpers ---------------------------------------------------------
    def _phrase(self, identifier: str, rng: SeededRng) -> str:
        """Turn an identifier into words, paraphrasing each with some probability."""
        words = []
        for word in tokenize_text(identifier):
            synonyms = SYNONYM_LEXICON.get(word)
            if synonyms and rng.coin(self.paraphrase_probability):
                words.append(rng.choice(synonyms))
            else:
                words.append(word)
        return " ".join(words)

    def _entity_phrase(self, table: Table, rng: SeededRng, plural: bool = True) -> str:
        words = tokenize_text(table.name)
        head = words[-1]
        head = pluralize(head) if plural else head
        phrase_words = words[:-1] + [head]
        phrased = []
        for word in phrase_words:
            synonyms = SYNONYM_LEXICON.get(word) or SYNONYM_LEXICON.get(word.rstrip("s"))
            if synonyms and rng.coin(self.paraphrase_probability):
                phrased.append(rng.choice(synonyms))
            else:
                phrased.append(word)
        return " ".join(phrased)

    def _interesting_columns(self, table: Table, rng: SeededRng, count: int = 2) -> list[str]:
        candidates = [
            column.name for column in table.columns
            if not column.is_primary_key and not column.name.endswith("_id")
        ]
        if not candidates:
            candidates = table.column_names
        return rng.sample(candidates, min(count, len(candidates)))

    # -- templates -------------------------------------------------------------------
    def _single_table_question(self, table: Table, rng: SeededRng) -> str:
        entity = self._entity_phrase(table, rng)
        columns = self._interesting_columns(table, rng)
        column_phrases = [self._phrase(column, rng) for column in columns]
        numeric = [c.name for c in table.columns if c.column_type.is_numeric and not c.is_primary_key]
        templates = [
            f"What is the {column_phrases[0]} of all {entity}?",
            f"How many {entity} are there in total?",
            f"List the {' and '.join(column_phrases)} of every {self._entity_phrase(table, rng, plural=False)}.",
            f"Show all {entity} ordered by {column_phrases[-1]}.",
        ]
        if numeric:
            numeric_phrase = self._phrase(rng.choice(numeric), rng)
            templates.extend([
                f"Which {self._entity_phrase(table, rng, plural=False)} has the highest {numeric_phrase}?",
                f"What is the average {numeric_phrase} of {entity}?",
            ])
        if table.text_columns():
            text_phrase = self._phrase(rng.choice(table.text_columns()).name, rng)
            templates.append(f"Find the {entity} grouped by their {text_phrase}.")
        return rng.choice(templates)

    def _multi_table_question(self, tables: list[Table], rng: SeededRng) -> str:
        first, second = tables[0], tables[-1]
        first_entity = self._entity_phrase(first, rng)
        second_entity = self._entity_phrase(second, rng, plural=False)
        first_columns = self._interesting_columns(first, rng, count=1)
        second_columns = self._interesting_columns(second, rng, count=1)
        first_phrase = self._phrase(first_columns[0], rng) if first_columns else "details"
        second_phrase = self._phrase(second_columns[0], rng) if second_columns else "details"
        templates = [
            f"What is the {first_phrase} of {first_entity} related to each {second_entity}?",
            f"Show the {first_phrase} of {first_entity} together with the {second_phrase} "
            f"of their {second_entity}.",
            f"How many {first_entity} are associated with every {second_entity}?",
            f"Which {second_entity} has the most {first_entity}?",
            f"List {first_entity} whose {second_entity} has a given {second_phrase}.",
            f"Find the {first_entity} for the {second_entity} with the highest {second_phrase}.",
        ]
        if len(tables) >= 3:
            middle_entity = self._entity_phrase(tables[1], rng)
            templates.append(
                f"Show the {first_phrase} of {first_entity} linked through {middle_entity} "
                f"to each {second_entity}."
            )
        return rng.choice(templates)


class NeuralQuestioner(SchemaQuestioner):
    """A small Seq2Seq questioner trained in reverse on NL2SQL training pairs.

    The input is the detailed schema text (database, tables, columns), the
    output the question -- mirroring the paper's questioning model, which takes
    a richer schema than the router emits.
    """

    def __init__(self, catalog: Catalog, embedding_dim: int = 48, hidden_dim: int = 96,
                 seed: int = 0) -> None:
        self.catalog = catalog
        self.seed = seed
        self._embedding_dim = embedding_dim
        self._hidden_dim = hidden_dim
        self._source_vocabulary: Vocabulary | None = None
        self._target_vocabulary: Vocabulary | None = None
        self._model: Seq2SeqModel | None = None
        self._fallback = TemplateQuestioner(catalog=catalog, seed=seed)

    # -- schema rendering --------------------------------------------------------
    def schema_text(self, database: str, tables: tuple[str, ...]) -> str:
        db = self.catalog.database(database)
        parts = [database]
        for table_name in tables:
            if not db.has_table(table_name):
                continue
            table = db.table(table_name)
            parts.append(table.name)
            parts.extend(column.name for column in table.columns if not column.is_primary_key)
        return " ".join(parts)

    # -- training ------------------------------------------------------------------
    def fit(self, examples: list[tuple[str, tuple[str, ...], str]],
            epochs: int = 10, batch_size: int = 32, learning_rate: float = 5e-3) -> list[float]:
        """Train on ``(database, tables, question)`` triples; returns epoch losses."""
        if not examples:
            raise ValueError("no questioner training examples supplied")
        source_texts = [self.schema_text(database, tables) for database, tables, _ in examples]
        target_texts = [question for _, _, question in examples]
        source_vocabulary = Vocabulary()
        target_vocabulary = Vocabulary()
        for text in source_texts:
            source_vocabulary.add_text(text)
        for text in target_texts:
            target_vocabulary.add_text(text)
        self._source_vocabulary = source_vocabulary
        self._target_vocabulary = target_vocabulary
        source_tokenizer = WordTokenizer(source_vocabulary)
        target_tokenizer = WordTokenizer(target_vocabulary)
        pairs = [
            (source_tokenizer.encode_text(source),
             target_tokenizer.encode_tokens(tokenize_text(target)))
            for source, target in zip(source_texts, target_texts)
        ]
        self._model = Seq2SeqModel(Seq2SeqConfig(
            source_vocab_size=len(source_vocabulary),
            target_vocab_size=len(target_vocabulary),
            embedding_dim=self._embedding_dim,
            hidden_dim=self._hidden_dim,
            seed=self.seed,
        ))
        trainer = Seq2SeqTrainer(self._model, TrainerConfig(
            epochs=epochs, batch_size=batch_size, learning_rate=learning_rate, seed=self.seed,
        ), pad_id=target_vocabulary.pad_id)
        history = trainer.train(pairs)
        return history.epoch_losses

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    # -- generation -------------------------------------------------------------------
    def question_for(self, database: str, tables: tuple[str, ...]) -> str:
        if self._model is None or self._source_vocabulary is None or self._target_vocabulary is None:
            return self._fallback.question_for(database, tables)
        source_tokenizer = WordTokenizer(self._source_vocabulary)
        target_tokenizer = WordTokenizer(self._target_vocabulary)
        source_ids = source_tokenizer.encode_text(self.schema_text(database, tables))
        ((hypothesis,),) = diverse_beam_search_batch(
            self._model, [self._model.encode_numpy(source_ids)],
            self._target_vocabulary.bos_id, self._target_vocabulary.eos_id,
            num_beams=1, num_groups=1, max_length=24)
        words = target_tokenizer.decode(hypothesis.tokens)
        if len(words) < 3:
            return self._fallback.question_for(database, tables)
        return " ".join(words) + "?"
