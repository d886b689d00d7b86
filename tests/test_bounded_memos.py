"""Bounded memos must not raise under concurrent decodes.

A subprocess worker runs up to four ``route_batch`` calls on one router, so
the router's parse memo and the constraint's id cache are read, filled and
evicted by peers between any two operations of a decode.  The interleavings
are simulated deterministically -- dict subclasses whose ``__iter__`` /
``pop`` / ``__getitem__`` behave as if a peer had just run -- with no threads
and no sleeps.
"""

from __future__ import annotations

import pytest

from repro.utils import evict_oldest
from reference_constraint import PrefixWalkConstraint
from test_constrained_incremental import _build
from test_decode_backends import _route_key, _train_router


class PeerPopsFirst(dict):
    """A peer evicts the oldest key between our ``iter`` and our ``pop``."""

    def __iter__(self):
        keys = list(super().__iter__())
        if keys:
            super().pop(keys[0])
        return iter(keys)


class PeerEmptiesIt(dict):
    """A peer clears the dict between our ``len`` and our ``iter``."""

    def __iter__(self):
        self.clear()
        return super().__iter__()


class PeerResizesIt(dict):
    """A peer inserts between our ``iter`` and our ``next``: CPython raises
    ``RuntimeError: dictionary changed size during iteration``."""

    def __iter__(self):
        iterator = super().__iter__()
        self[object()] = None
        return iterator


class TestEvictOldest:
    def test_evicts_oldest_first_down_to_the_bound(self):
        cache = {key: key for key in range(6)}
        evict_oldest(cache, 4)
        assert list(cache) == [3, 4, 5]  # room for one insertion
        evict_oldest(cache, 4)
        assert list(cache) == [3, 4, 5]

    @pytest.mark.parametrize("racing", [PeerPopsFirst, PeerEmptiesIt,
                                        PeerResizesIt])
    def test_a_peer_between_any_two_steps_never_raises(self, racing):
        cache = racing({key: key for key in range(6)})
        evict_oldest(cache, 4)  # must return, whatever is left
        cache[99] = 99
        assert cache[99] == 99


class TestIdCacheUnderEviction:
    @pytest.mark.parametrize("racing", [PeerPopsFirst, PeerEmptiesIt,
                                        PeerResizesIt])
    def test_id_resolution_survives_a_racing_eviction(self, racing):
        """The constraint cache used to evict with ``pop(next(iter(cache)))``
        -- no default, no guard: a peer's eviction was a ``KeyError``."""
        constrained = _build(31, 4)
        reference = PrefixWalkConstraint(constrained)
        constrained.max_cached_masks = 2
        constrained._id_cache = racing()
        state = constrained.initial_state()
        prefix: list[int] = []
        for _ in range(12):
            ids = constrained.allowed_ids_for_state(state)
            assert ids == tuple(sorted(reference.allowed_tokens(prefix)))
            prefix.append(ids[0])
            state = constrained.advance(state, ids[0])


class EvictedBetweenTestAndRead(dict):
    """``key in cache`` says yes, then a peer evicts: ``cache[key]`` raises."""

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        raise KeyError(key)


def test_parse_memo_reads_once():
    """``_combine_hypotheses`` used to read ``if key in cache: cache[key]``;
    one ``get`` cannot lose the key in between."""
    router, questions = _train_router(31, 3)
    expected = [_route_key(routes) for routes in router.route_batch(questions[:4])]
    assert any(expected)
    router._parse_cache = EvictedBetweenTestAndRead()
    assert [_route_key(routes)
            for routes in router.route_batch(questions[:4])] == expected
    # A racing eviction on the write side loses memos, never answers.
    router.max_cached_parses = 2
    router._parse_cache = PeerPopsFirst()
    assert [_route_key(routes)
            for routes in router.route_batch(questions[:4])] == expected
