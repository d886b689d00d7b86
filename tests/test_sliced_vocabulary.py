"""Tests for shard-sliced target vocabularies and score calibration.

A sliced shard decodes a model twin whose target embedding and output head
keep only the shard's own sub-catalog rows; per-step log-softmax then
normalizes over the slice, so raw decode scores are *inflated* relative to the
master vocabulary (by the slice's missing probability mass, accumulated per
step).  Calibration is exact rescoring: final hypotheses replay teacher-forced
through the shared trunk against the full master head, which restores
master-vocabulary log-probabilities -- the property the cross-shard softmax
merge relies on.  These tests pin the slice invariants, the calibration
contract, the cluster-level differential against global-vocab routing, and the
checkpoint round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRoutingService,
    load_cluster,
    partition_catalog,
    project_router,
    save_cluster,
    slice_target_vocabulary,
)
from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
from repro.core.router import beam_search_wave
from repro.nn.seq2seq import DecodeKernel
from repro.nn.tokenizer import WordTokenizer
from repro.serving.checkpoint import CheckpointError, load_router, save_router
from test_cluster import QUESTIONS, _cluster_catalog


@pytest.fixture(scope="module")
def master_router() -> SchemaRouter:
    catalog = _cluster_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=23)
    sampler = SchemaSampler(graph, seed=23)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=300))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=8, beam_groups=4,
        seed=23))
    router.fit(report.examples)
    return router


@pytest.fixture(scope="module")
def workload(master_router) -> list[str]:
    """A 200-question seeded workload over the cluster catalog."""
    catalog = master_router.graph.catalog
    questioner = TemplateQuestioner(catalog=catalog, seed=41)
    sampler = SchemaSampler(master_router.graph, seed=41)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=200))
    return [example.question for example in report.examples]


def _decoded(router, questions) -> list[list]:
    """``route_batch``'s hypotheses before parsing: one batched search, then
    the router's calibration (a no-op unsliced)."""
    tokenizer = WordTokenizer(router.source_vocabulary)
    encoded = router.model.encode_numpy_batch(
        [tokenizer.encode_text(question, max_length=router.config.max_source_length)
         for question in questions], pad_id=router.source_vocabulary.pad_id)
    hypotheses = beam_search_wave(DecodeKernel([router.model]), [router], None, encoded)
    router.rescore_hypotheses(encoded, hypotheses)
    return hypotheses


def _shard_databases(master_router, shard: int = 0) -> tuple[str, ...]:
    assignment = partition_catalog(master_router.graph.catalog, 2,
                                   strategy="round_robin")
    return assignment.shards[shard]


# -- slice construction --------------------------------------------------------
class TestVocabularySlicing:
    def test_slice_keeps_specials_and_subcatalog_tokens(self, master_router):
        projected = project_router(master_router,
                                   _shard_databases(master_router))
        kept_ids, sliced = slice_target_vocabulary(master_router,
                                                   projected.graph)
        master_tokens = master_router.target_vocabulary.tokens()
        specials = master_router.target_vocabulary.specials.as_tuple()
        # Specials keep their ids, so BOS/EOS/PAD agree between master and slice.
        assert list(kept_ids[:len(specials)]) == list(range(len(specials)))
        assert sliced.bos_id == master_router.target_vocabulary.bos_id
        assert sliced.eos_id == master_router.target_vocabulary.eos_id
        # kept_ids is the ascending master id of each sliced id.
        assert np.all(np.diff(kept_ids) > 0)
        assert sliced.tokens() == [master_tokens[i] for i in kept_ids]
        # A proper slice: smaller than the master vocabulary.
        assert len(sliced) < len(master_router.target_vocabulary)

    def test_sliced_projection_shares_the_trunk_by_reference(self, master_router):
        sliced = project_router(master_router, _shard_databases(master_router),
                                sliced_vocabulary=True)
        assert sliced.vocabulary_slice is not None
        kept_ids = sliced.vocabulary_slice.kept_ids
        assert sliced.model.config.target_vocab_size == len(kept_ids)
        # Trunk modules are the master's very objects; only the target
        # embedding rows and output-head columns are copied slices.
        assert sliced.model.source_embedding is master_router.model.source_embedding
        assert sliced.model.recurrent_projection is master_router.model.recurrent_projection
        master_head = master_router.model.output_projection
        np.testing.assert_array_equal(
            sliced.model.output_projection.weight.data,
            master_head.weight.data[:, kept_ids])
        np.testing.assert_array_equal(
            sliced.model.target_embedding.weight.data,
            master_router.model.target_embedding.weight.data[kept_ids])
        # The slice carries the *master* head for calibration.
        assert sliced.vocabulary_slice.output_weight is master_head.weight.data

    def test_unsliced_projection_has_no_slice(self, master_router):
        projected = project_router(master_router,
                                   _shard_databases(master_router))
        assert projected.vocabulary_slice is None
        assert projected.model is master_router.model


# -- calibration ---------------------------------------------------------------
class TestCalibration:
    def test_rescored_scores_match_global_vocabulary_scores(self, master_router):
        """The calibration contract: a sliced shard's final score for a token
        sequence equals what the global-vocabulary shard assigns the same
        sequence -- which is exactly what makes merged scores comparable
        (hence rank-identical) across differently-sliced shards."""
        databases = _shard_databases(master_router)
        plain = project_router(master_router, databases)
        sliced = project_router(master_router, databases,
                                sliced_vocabulary=True)
        kept_ids = sliced.vocabulary_slice.kept_ids
        matched = 0
        for question in QUESTIONS:
            plain_routes = {route.database: route.score
                            for route in plain.route(question)}
            for route in sliced.route(question):
                if route.database in plain_routes:
                    assert route.score == pytest.approx(
                        plain_routes[route.database], abs=1e-6)
                    matched += 1
        assert matched > 0
        assert len(kept_ids) < len(master_router.target_vocabulary)

    @pytest.mark.parametrize("shard", [0, 1])
    def test_calibrated_hypotheses_equal_unsliced_hypotheses_to_the_bit(
            self, master_router, workload, shard):
        """Hypothesis level: every sliced hypothesis whose master-id token path
        (``kept_ids[tokens]``) the unsliced projection also decodes carries,
        once calibrated, the unsliced score to the last bit -- the replay
        steps the very trunk and head the unsliced decode stepped."""
        databases = _shard_databases(master_router, shard)
        plain = project_router(master_router, databases)
        sliced = project_router(master_router, databases, sliced_vocabulary=True)
        questions = list(QUESTIONS) + workload
        kept_ids = sliced.vocabulary_slice.kept_ids
        unsliced = [{(tuple(h.tokens), h.finished): h.score.hex() for h in one}
                    for one in _decoded(plain, questions)]
        compared = 0
        for expected, one in zip(unsliced, _decoded(sliced, questions)):
            for hypothesis in one:
                key = (tuple(int(token) for token in kept_ids[hypothesis.tokens]),
                       hypothesis.finished)
                if key in expected:
                    assert hypothesis.score.hex() == expected[key], key
                    compared += 1
        assert compared > len(questions)

    def test_uncalibrated_scores_are_inflated(self, master_router):
        """Without rescoring, per-step softmax over the slice systematically
        over-scores (the slice's missing mass is renormalized away) -- the
        failure mode calibration exists to fix."""
        databases = _shard_databases(master_router)
        plain = project_router(master_router, databases)
        sliced = project_router(master_router, databases,
                                sliced_vocabulary=True)
        sliced.vocabulary_slice = None  # disable calibration
        inflated = 0
        compared = 0
        for question in QUESTIONS[:4]:
            plain_routes = {route.database: route.score
                            for route in plain.route(question)}
            for route in sliced.route(question):
                if route.database in plain_routes:
                    compared += 1
                    if route.score > plain_routes[route.database] + 1e-9:
                        inflated += 1
        assert compared > 0
        assert inflated == compared


# -- cluster-level differential ------------------------------------------------
class TestSlicedClusterDifferential:
    @pytest.fixture(scope="class")
    def routed(self, master_router, workload):
        plain_config = ClusterConfig(num_shards=2, strategy="round_robin",
                                     enable_cache=False)
        sliced_config = ClusterConfig(num_shards=2, strategy="round_robin",
                                      enable_cache=False,
                                      sliced_vocabulary=True)
        with ClusterRoutingService.from_router(master_router,
                                               plain_config) as cluster:
            plain = cluster.submit_many(workload)
        with ClusterRoutingService.from_router(master_router,
                                               sliced_config) as cluster:
            sliced = cluster.submit_many(workload)
        return plain, sliced

    def test_top1_agreement_at_least_99_percent(self, routed, workload):
        plain, sliced = routed
        agree = sum(1 for a, b in zip(plain, sliced)
                    if a and b and a[0].database == b[0].database)
        assert agree >= round(0.99 * len(workload))

    def test_merged_rankings_stay_comparable(self, routed, workload):
        """Calibrated merges should rank (nearly) identically to global-vocab
        merges; the residual is escalated questions whose wider sliced beam
        surfaced a different hypothesis *set*, not a score mismatch."""
        plain, sliced = routed
        identical = sum(1 for a, b in zip(plain, sliced)
                        if [r.database for r in a] == [r.database for r in b])
        assert identical >= round(0.9 * len(workload))

    def test_scores_remain_normalized(self, routed):
        _, sliced = routed
        for routes in sliced[:20]:
            assert all(0.0 < route.score <= 1.0 for route in routes)
            assert routes == sorted(routes, key=lambda route: -route.score)


# -- checkpointing -------------------------------------------------------------
class TestSlicedCheckpoints:
    def test_router_checkpoint_round_trips_the_slice(self, master_router, tmp_path):
        sliced = project_router(master_router, _shard_databases(master_router),
                                sliced_vocabulary=True)
        path = save_router(sliced, tmp_path / "sliced-ckpt")
        assert (path / "slice.npz").is_file()
        restored = load_router(path)
        assert restored.vocabulary_slice is not None
        np.testing.assert_array_equal(restored.vocabulary_slice.kept_ids,
                                      sliced.vocabulary_slice.kept_ids)
        np.testing.assert_array_equal(restored.vocabulary_slice.output_weight,
                                      sliced.vocabulary_slice.output_weight)
        for question in QUESTIONS[:3]:
            assert [(r.database, r.tables, r.score) for r in restored.route(question)] \
                == [(r.database, r.tables, r.score) for r in sliced.route(question)]

    def test_unsliced_checkpoint_has_no_slice_artifacts(self, master_router, tmp_path):
        plain = project_router(master_router, _shard_databases(master_router))
        path = save_router(plain, tmp_path / "plain-ckpt")
        assert not (path / "slice.npz").exists()
        assert load_router(path).vocabulary_slice is None

    def test_corrupt_slice_archive_is_rejected(self, master_router, tmp_path):
        sliced = project_router(master_router, _shard_databases(master_router),
                                sliced_vocabulary=True)
        path = save_router(sliced, tmp_path / "corrupt-ckpt")
        (path / "slice.npz").write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointError):
            load_router(path)

    def test_cluster_checkpoint_pins_the_slicing_mode(self, master_router, tmp_path):
        config = ClusterConfig(num_shards=2, strategy="round_robin",
                               sliced_vocabulary=True)
        with ClusterRoutingService.from_router(master_router, config) as original:
            save_cluster(original, tmp_path / "cluster-ckpt")
            expected = [[(r.database, r.tables, r.score) for r in routes]
                        for routes in original.submit_many(QUESTIONS[:4])]
        # Slicing is routing-affecting, so it comes from the checkpoint even
        # when the boot-time override config disagrees.
        override = ClusterConfig(num_shards=2, sliced_vocabulary=False)
        with load_cluster(tmp_path / "cluster-ckpt", config=override) as restored:
            assert restored.config.sliced_vocabulary is True
            for replica_set in restored.shards:
                assert replica_set.workers[0].router.vocabulary_slice is not None
            assert [[(r.database, r.tables, r.score) for r in routes]
                    for routes in restored.submit_many(QUESTIONS[:4])] == expected
