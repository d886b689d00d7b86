"""The deterministic catalog partitioner.

A cluster serves a catalog split into shards, each shard owning a disjoint
subset of the databases.  :func:`partition_catalog` packs databases by table
count (greedy longest-processing-time bin packing), so shard decode and cache
load stay even when database sizes vary widely.

It is a pure function of the catalog, so the same catalog always produces
the same :class:`ShardAssignment` (cluster restarts and replicas agree without
coordination).  A saved assignment is loaded exactly as written, whatever
packed it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.catalog import Catalog


@dataclass(frozen=True)
class ShardAssignment:
    """An immutable mapping of shard index -> owned database names."""

    shards: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for databases in self.shards:
            for name in databases:
                if name in seen:
                    raise ValueError(f"database {name!r} assigned to multiple shards")
                seen.add(name)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def database_names(self) -> list[str]:
        return [name for databases in self.shards for name in databases]

    def shard_of(self, database: str) -> int:
        """The shard index owning ``database`` (KeyError when unassigned)."""
        for index, databases in enumerate(self.shards):
            if database in databases:
                return index
        raise KeyError(f"database {database!r} is not assigned to any shard")

    def replace_shard(self, shard_id: int, databases: tuple[str, ...]) -> "ShardAssignment":
        """A copy with one shard's database set swapped (rebalancing)."""
        shards = list(self.shards)
        shards[shard_id] = tuple(databases)
        return ShardAssignment(shards=tuple(shards))

    # -- persistence ---------------------------------------------------------
    def to_payload(self) -> dict:
        return {"shards": [list(databases) for databases in self.shards]}

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardAssignment":
        """The saved layout, exactly as written (an earlier build's
        ``strategy`` key is ignored)."""
        return cls(shards=tuple(tuple(databases) for databases in payload["shards"]))


def partition_catalog(catalog: Catalog, num_shards: int) -> ShardAssignment:
    """Partition ``catalog`` into ``num_shards`` disjoint database groups by
    greedy longest-processing-time packing on table count."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards > len(catalog):
        raise ValueError(f"cannot split {len(catalog)} databases into "
                         f"{num_shards} non-empty shards")
    ordered = sorted(catalog, key=lambda db: (-db.num_tables, db.name))
    shards: list[list[str]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for database in ordered:
        # Empty shards first (every shard must serve something), then the
        # lightest; ties go to the lowest index for determinism.
        target = min(range(num_shards),
                     key=lambda index: (len(shards[index]) > 0, loads[index], index))
        shards[target].append(database.name)
        loads[target] += database.num_tables
    order = {db.name: position for position, db in enumerate(catalog)}
    for databases in shards:
        databases.sort(key=order.__getitem__)
    return ShardAssignment(shards=tuple(tuple(databases) for databases in shards))
