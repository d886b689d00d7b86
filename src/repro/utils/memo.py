"""Bounded dict memos that concurrent decodes share without a lock."""

from __future__ import annotations


def evict_oldest(cache: dict, bound: int) -> None:
    """Drop oldest-inserted entries until ``cache`` holds fewer than ``bound``.

    The memos this serves (the router's parse memo, the constraint's mask
    cache) are read and filled by several decodes at once -- a multiplexed
    subprocess worker runs up to four ``route_batch`` calls on one router --
    and a peer may insert or evict between any two operations here.  Losing
    a memo entry is fine, raising is not: a key a peer already popped is
    popped with a default, and iterating a dict a peer emptied
    (``StopIteration``) or resized (``RuntimeError``) ends the eviction.
    """
    while len(cache) >= bound:
        try:
            cache.pop(next(iter(cache)), None)
        except (StopIteration, RuntimeError):
            break
