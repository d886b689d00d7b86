"""The cross-shard merge before replies stayed rows, kept verbatim as a test oracle.

``repro.core.router.merge_route_lists`` pools ``(score, database, tables)``
from reply rows or :class:`SchemaRoute` objects and builds a ``SchemaRoute``
only for each candidate it returns.  The function below is the merge it
replaced, unchanged: it takes ``SchemaRoute`` lists only and still carries the
``normalize`` flag and its branch.  On ``max_candidates=0`` it returns one
candidate on the normalised path (the bug the rewrite fixed: the merge now
returns ``[]``), so callers compare against ``reference(...)[:max_candidates]``.
``tests/test_cluster.py`` checks the merge against it, score by ``float.hex``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.router import SchemaRoute


def merge_route_lists(route_lists: Iterable[Sequence[SchemaRoute]],
                      max_candidates: int | None = None,
                      normalize: bool = True) -> list[SchemaRoute]:
    """Deterministically merge per-shard candidate lists into one ranking.

    The result is independent of the order of ``route_lists`` (scatter-gather
    may collect shards in any order): candidates are pooled, optionally
    normalized with :func:`normalize_route_scores`, sorted by
    ``(-score, database, tables)``, and deduplicated per database keeping the
    best-scored entry.  With disjoint shard catalogs the dedup is a no-op; it
    guards against overlapping assignments.
    """
    pooled = [route for routes in route_lists for route in routes]
    if not pooled:
        return []
    merged: list[SchemaRoute] = []
    seen: set[str] = set()
    if normalize:
        # Inlined softmax (see normalize_route_scores): the weight order is
        # the normalized-score order, so candidates are ranked on raw weights
        # and the normalized SchemaRoute is constructed only for the ones
        # that survive dedup + truncation.  This merge runs twice per
        # question per wave (fast tier + escalation) -- it is the parent-side
        # hot path of every cluster gather.
        peak = max(route.score for route in pooled)
        weights = [math.exp(route.score - peak) for route in pooled]
        total = math.fsum(weights)
        order = sorted(range(len(pooled)),
                       key=lambda index: (-weights[index],
                                          pooled[index].database,
                                          pooled[index].tables))
        for index in order:
            route = pooled[index]
            if route.database in seen:
                continue
            seen.add(route.database)
            merged.append(SchemaRoute(database=route.database,
                                      tables=route.tables,
                                      score=weights[index] / total))
            if max_candidates is not None and len(merged) >= max_candidates:
                break
        return merged
    pooled.sort(key=lambda route: (-route.score, route.database, route.tables))
    for route in pooled:
        if route.database in seen:
            continue
        seen.add(route.database)
        merged.append(route)
    return merged[:max_candidates] if max_candidates is not None else merged
