"""Correctness checks on replies and the quality metrics computed from them.

Quality is computed after the timed phase, from the replies it collected, over
the whole gold-labelled pool -- so it does not depend on ``--seed``, and any
change in it is a change in what the program answers.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.router import SchemaRoute
from repro.datasets.examples import Example
from repro.schema.catalog import Catalog

from harness.fixture import Fixture
from harness.workloads import as_prediction, new_pipeline


def valid_routes(routes: Sequence[SchemaRoute], catalog: Catalog) -> bool:
    """A non-empty candidate list naming only schemata the catalog has."""
    if not routes:
        return False
    for route in routes:
        if not route.tables or not catalog.has_database(route.database):
            return False
        database = catalog.database(route.database)
        if not all(database.has_table(table) for table in route.tables):
            return False
    return True


def routing_quality(served: dict[str, list[SchemaRoute]], pool: Sequence[Example],
                    oracle: dict[str, list[SchemaRoute]]) -> dict[str, float]:
    top1 = recall = tables = agree = 0.0
    for example in pool:
        routes = served[example.question]
        best = routes[0]
        if best.database == example.database:
            top1 += 1
            tables += len(set(best.tables) & set(example.tables)) / len(example.tables)
        if any(route.database == example.database for route in routes):
            recall += 1
        reference = oracle[example.question][0]
        if (best.database, best.tables) == (reference.database, reference.tables):
            agree += 1
    return {"db_top1_acc": top1 / len(pool),
            "db_recall_at5": recall / len(pool),
            "table_recall_top1": tables / len(pool),
            "oracle_agree": agree / len(pool)}


def nl2sql_quality(results: Sequence) -> dict[str, float]:
    """EX and LLM cost over one ``GenerationResult`` per gold test example."""
    return {"ex_acc": sum(result.correct for result in results) / len(results),
            "cost_usd_per_q": sum(result.cost for result in results) / len(results)}


def answer_test_examples(fixture: Fixture,
                         served: dict[str, list[SchemaRoute]]) -> list:
    """Feed served routes to the BEST_SCHEMA pipeline, one result per example."""
    pipeline = new_pipeline(fixture)
    return [pipeline.answer(example,
                            prediction=as_prediction(served[example.question]))
            for example in fixture.test_examples]
