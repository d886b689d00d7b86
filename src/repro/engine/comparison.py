"""Result-set comparison for execution accuracy (EX).

Following the evaluation protocol of the paper (and the Spider/BIRD official
scripts it cites), two SQL results are considered equivalent when they contain
the same multiset of rows.  Column order matters (queries project named
columns in a fixed order), row order matters only when the query has an
``ORDER BY``.
"""

from __future__ import annotations

from collections import Counter

from repro.engine.relation import Relation
from repro.engine.values import canonical


def _canonical_rows(relation: Relation) -> list[tuple[object, ...]]:
    return [tuple(canonical(value) for value in row) for row in relation.rows]


def results_equivalent(
    predicted: Relation | None,
    gold: Relation | None,
    order_sensitive: bool = False,
) -> bool:
    """Return ``True`` when two query results are EX-equivalent.

    ``None`` represents an execution failure: a failed prediction never
    matches, and two failures do not match either (a failing gold query is a
    dataset bug we refuse to reward).
    """
    if predicted is None or gold is None:
        return False
    if len(predicted.columns) != len(gold.columns):
        return False
    predicted_rows = _canonical_rows(predicted)
    gold_rows = _canonical_rows(gold)
    if order_sensitive:
        return predicted_rows == gold_rows
    return Counter(predicted_rows) == Counter(gold_rows)
