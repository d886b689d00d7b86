"""The request streams: a seed fixes the list; no seed changes the multiset."""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.datasets.examples import Example

from harness.workloads import HOT_WAVE, WAVE, WORKLOADS, Query, build_stream, setup_questions


@pytest.fixture(scope="module")
def fixture():
    """Just the two lists ``build_stream`` reads, no trained router."""
    examples = [Example(question=f"question {index}", database=f"db{index % 5}",
                        tables=(f"t{index}",), sql="SELECT 1")
                for index in range(45)]
    return SimpleNamespace(pool=examples, test_examples=examples[:20] + examples[:4])


def questions_of(stream) -> list[str]:
    return [question for item in stream
            for question in ([item.example.question] if isinstance(item, Query)
                             else item.questions)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(fixture, name):
    first = build_stream(WORKLOADS[name], fixture, seed=7, total=100)
    second = build_stream(WORKLOADS[name], fixture, seed=7, total=100)
    assert first == second
    assert sum(item.size for item in first) == 100
    assert build_stream(WORKLOADS[name], fixture, seed=8, total=100) != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reorders_but_never_changes_the_multiset(fixture, name):
    counts = {seed: Counter(questions_of(build_stream(WORKLOADS[name], fixture,
                                                      seed=seed, total=100)))
              for seed in (1, 2, 3)}
    assert counts[1] == counts[2] == counts[3]


def test_cold_passes_invalidate_and_never_repeat_within_a_pass(fixture):
    stream = build_stream(WORKLOADS["mono_cold"], fixture, seed=3, total=100)
    starts = [index for index, wave in enumerate(stream) if wave.invalidate]
    # 45 + 45 + a partial pass of 10.
    assert len(starts) == 3 and starts[0] == 0
    assert all(1 <= wave.size <= WAVE for wave in stream)
    for begin, end in zip(starts, starts[1:] + [len(stream)]):
        asked = [question for wave in stream[begin:end] for question in wave.questions]
        assert len(asked) == len(set(asked))
    # The partial pass is a fixed prefix of the pool, whatever the seed.
    tail = {question for wave in stream[starts[-1]:] for question in wave.questions}
    assert tail == {example.question for example in fixture.pool[:10]}


def test_hot_stream_never_invalidates_and_stays_in_the_pool(fixture):
    stream = build_stream(WORKLOADS["proc_hot"], fixture, seed=5, total=400)
    assert not any(wave.invalidate for wave in stream)
    assert [wave.size for wave in stream] == [HOT_WAVE] * 6 + [400 - 6 * HOT_WAVE]
    counts = Counter(questions_of(stream))
    assert set(counts) <= {example.question for example in fixture.pool}
    assert sum(counts.values()) == 400
    # Zipf(1): the k-th most popular question is asked about 1/k as often.
    ranked = sorted(counts.values(), reverse=True)
    assert ranked[0] == pytest.approx(2 * ranked[1], abs=1)
    assert ranked[0] == pytest.approx(4 * ranked[3], abs=3)


def test_setup_questions_cover_what_a_hot_stream_can_ask(fixture):
    warmup, fill = setup_questions(WORKLOADS["proc_hot"], fixture, warmup_count=16)
    assert warmup + fill == [example.question for example in fixture.pool]
    warmup, fill = setup_questions(WORKLOADS["mono_cold"], fixture, warmup_count=16)
    assert len(warmup) == 16 and fill == []
    warmup, fill = setup_questions(WORKLOADS["nl2sql_e2e"], fixture, warmup_count=16)
    assert set(warmup + fill) == {example.question for example in fixture.test_examples}
    assert len(warmup + fill) == 20
