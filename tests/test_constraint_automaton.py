"""The constraint automaton belongs to the constraint, pinned by counts.

``GraphConstrainedDecoding.initial_state()`` returns one persistent root, so
the interpreter states a search walks (their ``transitions`` and
``allowed_ids`` memos) outlive the search: they are shared by every question,
group, (shard, question) pair and request, and bounded by
``max_cached_masks``.
Nothing here reads a clock.  The mechanism is pinned by counting
``ConstraintState`` constructions, the bound by counting live instances, and
the answers by comparing with the loop oracle on an unbounded automaton of
its own.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster import ClusterConfig, ClusterRoutingService
from repro.core.constrained import ConstraintState, GraphConstrainedDecoding
from repro.core.router import SchemaRouter
from repro.nn.decoding import diverse_beam_search_loop
from repro.nn.tokenizer import WordTokenizer
from repro.obs import Tracer
from repro.serving import RoutingService, ServingConfig
from test_decode_backends import _route_key, _train_router


@pytest.fixture(scope="module")
def trained():
    router, questions = _train_router(17, 6)
    return router, list(dict.fromkeys(questions))


def _fresh_twin(router: SchemaRouter, **config_changes) -> SchemaRouter:
    """The same weights behind a router of its own -- and so behind a
    constraint whose automaton nothing has grown yet."""
    twin = SchemaRouter(graph=router.graph,
                        config=router.config.ablated(**config_changes))
    twin.restore(router.model, router.source_vocabulary, router.target_vocabulary,
                 router.training_losses)
    return twin


@pytest.fixture
def constructions(monkeypatch) -> list:
    """Spy on ``ConstraintState.__init__``: one entry per state made."""
    made: list = []
    original = ConstraintState.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ConstraintState, "__init__", counting)
    return made


def _live_states() -> int:
    gc.collect()
    return sum(type(candidate) is ConstraintState for candidate in gc.get_objects())


class TestOneRoot:
    def test_initial_state_is_one_object(self, trained):
        constraint = _fresh_twin(trained[0]).constraint
        assert constraint.initial_state() is constraint.initial_state()
        assert constraint.constraint_states == 1

    def test_an_unknown_database_commits_back_to_the_root(self, trained):
        constraint = _fresh_twin(trained[0]).constraint
        vocabulary = constraint.vocabulary
        root = constraint.initial_state()
        junk = constraint.advance(root, vocabulary.eos_id)
        assert constraint.advance(junk, vocabulary.sep_id) is root

    def test_second_route_batch_makes_no_state(self, trained, constructions):
        router, questions = trained
        twin = _fresh_twin(router)
        wave = questions[:8]
        first = twin.route_batch(wave)
        grown = len(constructions)
        assert grown == twin.constraint.constraint_states > 1
        assert twin.route_batch(wave) == first
        assert twin.route_batch(wave[::-1]) == first[::-1]
        assert twin.route(wave[3]) == first[3]
        assert len(constructions) == grown

    @pytest.mark.parametrize("careful", [False, True])
    def test_second_route_wave_makes_no_state(self, trained, constructions, careful):
        """No route cache, so the second wave decodes every (shard, question)
        pair again -- on the states the first one left behind."""
        router, questions = trained
        config = ClusterConfig(num_shards=2, enable_cache=False)
        with ClusterRoutingService.from_router(router, config) as cluster:
            engine = cluster.wave_engine
            assert engine is not None and engine.has_careful_tier
            wave = questions[:8]

            def route():
                """The wave's answers and its decode span's kernel rows."""
                trace = Tracer().start_trace("wave")
                answers = engine.route_wave(wave, careful=careful, trace=trace)
                (decode,) = trace.find_spans("decode")
                trace.finish()
                return answers, decode.attributes["beam_rows"]

            first, rows = route()
            grown = len(constructions)
            assert grown > 2  # at least a root per shard, and what hangs off it
            assert route() == (first, rows)
            assert len(constructions) == grown

    def test_mask_counters_keep_their_meaning(self, trained):
        """A state resolved before is a hit; only a state nobody has resolved
        is a miss.  The second pass over a wave is all hits."""
        router, questions = trained
        twin = _fresh_twin(router)
        twin.route_batch(questions[:8])
        constraint = twin.constraint
        hits, misses = constraint.mask_cache_hits, constraint.mask_cache_misses
        assert misses > 0
        twin.route_batch(questions[:8])
        assert constraint.mask_cache_misses == misses
        assert constraint.mask_cache_hits > hits


class TestBound:
    BOUND = 8

    def test_bounded_sweep_equals_the_unbounded_one(self, trained):
        """A seeded 200-question sweep under a bound far below one search's
        needs: the root is dropped over and over, every route equals the
        unbounded run's, and the states alive between searches never exceed
        the bound by more than one search's worth."""
        router, questions = trained
        sweep = (questions * (200 // len(questions) + 1))[:200]
        unbounded = _fresh_twin(router)
        expected = [unbounded.route_batch(sweep[start:start + 4])
                    for start in range(0, len(sweep), 4)]
        grown = unbounded.constraint.constraint_states
        assert grown > 4 * self.BOUND  # the bound below really bites

        bounded = _fresh_twin(router)
        constraint = bounded.constraint
        constraint.max_cached_masks = self.BOUND
        baseline = _live_states()
        one_search = 0
        for start, routes in zip(range(0, len(sweep), 4), expected):
            made = constraint.constraint_states
            assert bounded.route_batch(sweep[start:start + 4]) == routes
            one_search = max(one_search, constraint.constraint_states - made)
            assert constraint._tree_states <= self.BOUND
            assert _live_states() - baseline <= self.BOUND + one_search
        # Regrown again and again, not kept: far more states made than exist.
        assert constraint.constraint_states > 3 * grown
        assert _live_states() - baseline <= self.BOUND + one_search

    def test_search_in_flight_survives_a_dropped_root(self, trained):
        """The root is dropped *during* every search (bound 1: each new state
        resets the tree); beams finish on the states they hold and the result
        is the loop oracle's, on an unbounded automaton of its own."""
        router, questions = trained
        bounded = _fresh_twin(router)
        bounded.constraint.max_cached_masks = 1
        oracle = _fresh_twin(router, decode_backend="loop")
        for start in range(0, 24, 3):
            wave = questions[start:start + 3]
            root = bounded.constraint.initial_state()
            routes = bounded.route_batch(wave)
            # The search began under a root that is gone by its end.
            assert bounded.constraint.initial_state() is not root
            assert [_route_key(r) for r in routes] \
                == [_route_key(r) for r in oracle.route_batch(wave)]

    def test_a_dropped_automaton_is_freed_by_reference_counting(self, trained):
        """Transitions point only at the states they made -- a skipped
        separator and an unknown database's commit are not memoized -- so
        the tree has no cycle and goes with its constraint, collector or
        not."""
        router, questions = trained
        gc.collect()
        baseline = _live_states()
        gc.disable()
        try:
            constraint = GraphConstrainedDecoding(router.graph, router.target_vocabulary)
            vocabulary = constraint.vocabulary
            root = constraint.initial_state()
            assert constraint.advance(root, vocabulary.sep_id) is root
            junk = constraint.advance(root, vocabulary.eos_id)
            assert constraint.advance(junk, vocabulary.sep_id) is root
            tokenizer = WordTokenizer(router.source_vocabulary)
            for question in questions[:6]:
                diverse_beam_search_loop(
                    router.model, tokenizer.encode_text(question), vocabulary.bos_id,
                    vocabulary.eos_id, num_beams=4, num_groups=2,
                    max_length=router.config.max_decode_length, constraint=constraint)
            made = constraint.constraint_states
            assert sum(type(candidate) is ConstraintState
                       for candidate in gc.get_objects()) == baseline + made > baseline + 2
            del constraint, root, junk
            assert sum(type(candidate) is ConstraintState
                       for candidate in gc.get_objects()) == baseline
        finally:
            gc.enable()

    def test_reset_is_whole(self, trained):
        """Past the bound the tree is dropped whole and regrown: the next
        ``initial_state()`` is a new, empty root."""
        constraint = _fresh_twin(trained[0]).constraint
        constraint.max_cached_masks = 3
        root = constraint.initial_state()
        state = root
        for token in (constraint.vocabulary.eos_id,) * 3:
            state = constraint.advance(state, token)
        assert constraint.initial_state() is not root
        assert constraint.initial_state().transitions is None
        assert root.transitions  # the old tree is intact for whoever holds it


class TestVisible:
    def test_decode_span_reports_states_made(self, trained):
        router, questions = trained
        twin = _fresh_twin(router)
        tracer = Tracer()
        deltas = []
        for _ in range(3):
            trace = tracer.start_trace("request")
            made = twin.constraint.constraint_states
            twin.route_batch(questions[:6], traces=[trace] * 6)
            (span,) = trace.find_spans("decode")
            assert span.attributes["constraint_states"] \
                == twin.constraint.constraint_states - made
            deltas.append(span.attributes["constraint_states"])
            trace.finish()
        assert deltas[0] > 0 and deltas[1:] == [0, 0]

    def test_service_stats_report_states_made(self, trained):
        router, questions = trained
        twin = _fresh_twin(router)
        with RoutingService(twin, ServingConfig(enable_cache=False)) as service:
            service.submit_many(questions[:6])
            grown = service.stats()["constraint_states"]
            assert grown == twin.constraint.constraint_states > 1
            service.submit_many(questions[:6])
            assert service.stats()["constraint_states"] == grown
        unconstrained = _fresh_twin(router, constrained_decoding=False)
        with RoutingService(unconstrained) as service:
            assert service.stats()["constraint_states"] == 0

    def test_cluster_stats_report_states_per_shard_tier(self, trained):
        router, questions = trained
        config = ClusterConfig(num_shards=2, enable_cache=False)
        with ClusterRoutingService.from_router(router, config) as cluster:
            cluster.submit_many(questions[:8])
            workers = [worker for shard in cluster.stats()["shards"]
                       for worker in shard["workers"]]
            assert len(workers) == 2
            assert all(worker["constraint_states"] > 1 for worker in workers)
            before = [worker["constraint_states"] for worker in workers]
            cluster.submit_many(questions[:8])
            after = [worker["constraint_states"]
                     for shard in cluster.stats()["shards"]
                     for worker in shard["workers"]]
            assert after == before
