"""The loop oracle stays independent of the automaton it checks.

Every decoder walks ``GraphConstrainedDecoding``'s automaton -- the loop
oracle included -- so a wrong ``advance`` would move the oracle and the
engine together, and ``tests/test_decode_backends.py`` would not see it.  Here the same trained routers decode twice: once on their own
automaton, once on the prefix-walk interpreter of
``tests/reference_constraint.py`` behind the state protocol, which never
touches an automaton state.  Routes and one-beam hypotheses must match,
``float.hex`` for ``float.hex``.
"""

from __future__ import annotations

import pytest

from repro.core.router import SchemaRouter
from repro.nn.decoding import diverse_beam_search_batch
from repro.nn.tokenizer import WordTokenizer
from reference_constraint import PrefixConstraint, PrefixWalkConstraint
from test_decode_backends import _hypothesis_key, _route_key, _train_router


@pytest.fixture(scope="module", params=[(11, 5), (29, 8)],
                ids=["catalog-small", "catalog-wide"])
def trained(request):
    router, questions = _train_router(*request.param)
    return router, list(dict.fromkeys(questions))


def _twins(router: SchemaRouter, backend: str) -> tuple[SchemaRouter, SchemaRouter]:
    """The router's weights on ``backend`` twice: on a fresh automaton, and
    on the prefix-walk interpreter of the same catalog."""
    twins = []
    for _ in range(2):
        twin = SchemaRouter(graph=router.graph,
                            config=router.config.ablated(decode_backend=backend))
        twin.restore(router.model, router.source_vocabulary,
                     router.target_vocabulary, router.training_losses)
        twins.append(twin)
    automaton, reference = twins
    reference._constraint = PrefixConstraint(
        PrefixWalkConstraint(reference._constraint).allowed_tokens)
    return automaton, reference


@pytest.mark.parametrize("backend", ["loop", "vectorized"])
def test_routes_on_the_automaton_equal_routes_on_the_prefix_walk(trained, backend):
    router, questions = trained
    automaton, reference = _twins(router, backend)
    picked = questions[:24]
    expected = [_route_key(routes) for routes in reference.route_batch(picked)]
    assert any(expected)
    assert [_route_key(routes) for routes in automaton.route_batch(picked)] \
        == expected
    assert automaton.constraint.constraint_states > 1


def test_one_beam_engine_on_the_automaton_equals_the_prefix_walk(trained):
    """Greedy decoding -- the engine at one beam, one state per row and
    step, its pick the row's first maximum -- answers the same hypotheses
    under either constraint."""
    router, questions = trained
    automaton, reference = _twins(router, "vectorized")
    tokenizer = WordTokenizer(router.source_vocabulary)
    vocabulary = router.target_vocabulary
    encoded = router.model.encode_numpy_batch(
        [tokenizer.encode_text(question, max_length=router.config.max_source_length)
         for question in questions[:12]],
        pad_id=router.source_vocabulary.pad_id)

    def greedy(twin):
        return [_hypothesis_key(hypothesis) for (hypothesis,) in diverse_beam_search_batch(
            twin.model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=1, num_groups=1, max_length=twin.config.max_decode_length,
            constraint=twin.constraint)]

    expected = greedy(reference)
    assert all(tokens for tokens, _, _ in expected)
    assert greedy(automaton) == expected
