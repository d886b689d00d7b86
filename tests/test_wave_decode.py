"""Tests for cluster-native dense wave decode.

Every inproc fleet -- projected by ``from_router`` or booted by
``load_cluster`` -- decodes whole scatter waves through one stacked kernel
stream (:class:`repro.cluster.wave.ClusterWaveEngine`); it has no other
scatter path.  These tests pin the seeded differential against a pool twin
the test builds (a ``ClusterDispatcher`` over a second fleet's per-shard
``ShardWorker.route_batch`` path, the one a subprocess child runs), the one
boot path
of a shard on both backends (a checkpoint is its master router plus
``cluster.json``; a version-1 checkpoint's per-shard copies are not read),
the refusal of a retired sliced master router, the one model object a wave
steps (at construction and on every wave), the one ``decode_backend`` a
fleet decodes through, the isolation knobs only a subprocess fleet takes,
the decode counters on the ``decode`` span, counter conservation and the
trace shape, concurrent callers under a live rebalance, and the
dispatcher's scatter on the calling thread.
"""

from __future__ import annotations

import copy
import functools
import inspect
import json
import os
import random
import shutil
import signal
import sys
import threading

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterDispatcher,
    ClusterError,
    ClusterRebalancer,
    ClusterRoutingService,
    load_cluster,
    project_router,
    save_cluster,
)
from repro.cluster.shard import shard_search
from repro.cluster.transport import route_rows
from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
from repro.serving import RoutingService, ServingConfig
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
    """A seeded stream of >= 200 questions in which some repeat."""
    catalog = master_router.graph.catalog
    questioner = TemplateQuestioner(catalog=catalog, seed=41)
    sampler = SchemaSampler(master_router.graph, seed=41)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=200))
    questions = [example.question for example in report.examples]
    rng = random.Random(41)
    stream = questions + rng.sample(questions, 40)
    rng.shuffle(stream)
    assert len(stream) >= 200
    return stream


def _checkpoint(master_router, path, **config) -> None:
    config = ClusterConfig(num_shards=2, **config)
    with ClusterRoutingService.from_router(master_router, config) as cluster:
        save_cluster(cluster, path)


def _waves(route_many, questions, wave_size: int = 8) -> list:
    return [routes for start in range(0, len(questions), wave_size)
            for routes in route_many(questions[start:start + wave_size])]


def _serve(cluster, questions, wave_size: int = 8) -> list:
    return _waves(cluster.submit_many, questions, wave_size)


def _pool_twin(fleet) -> RoutingService:
    """A front like the fleet's own over a per-shard dispatcher over
    ``fleet``'s shards: one ``ReplicaSet.send`` -- ``ShardWorker.route_batch``,
    the per-shard path a subprocess child runs -- per shard and tier, never
    the wave engine."""
    config = fleet.config
    careful = None
    if config.escalation_threshold is not None:
        careful = [functools.partial(replica_set.send, careful=True)
                   for replica_set in fleet.shards]
    return RoutingService(ClusterDispatcher(
        [replica_set.send for replica_set in fleet.shards],
        default_max_candidates=fleet.dispatcher.default_max_candidates,
        careful_targets=careful,
        escalation_threshold=config.escalation_threshold), fleet.front.config)


def _scores(replies) -> list[float]:
    return [route.score for routes in replies for route in routes]


def _hex(replies) -> list:
    return [[(route.database, route.tables, route.score.hex()) for route in routes]
            for routes in replies]


def _rewrite(path, edit) -> dict:
    """Apply ``edit`` to the JSON file at ``path``; returns the new content."""
    content = json.loads(path.read_text())
    edit(content)
    path.write_text(json.dumps(content))
    return content


def _mark_sliced(router_dir, master_router) -> None:
    """Make ``router_dir`` what an older build saved for a sliced router: a
    ``vocabulary_slice`` manifest entry and its checksummed archive."""
    from repro.serving.checkpoint import _sha256_of

    head = master_router.model.output_projection
    np.savez(router_dir / "slice.npz",
             kept_ids=np.arange(len(master_router.target_vocabulary)),
             output_weight=head.weight.data, output_bias=head.bias.data)
    _rewrite(router_dir / "manifest.json", lambda manifest: manifest.update(
        vocabulary_slice={"file": "slice.npz",
                          "sha256": _sha256_of(router_dir / "slice.npz")}))


def _no_spawn(*args, **kwargs):
    raise AssertionError("a worker spawned for a refused checkpoint")


def _shard_counters(cluster) -> list:
    """Per shard: the replica tallies."""
    return [shard["replicas"] for shard in cluster.stats()["shards"]]


class TestWaveAgainstPoolTwin:
    """The seeded differential: a default ``save_cluster`` -> ``load_cluster``
    fleet against a pool twin the test builds (:func:`_pool_twin`) over a
    second load of the same checkpoint."""

    @pytest.mark.parametrize("escalation_threshold", [0.8, None])
    def test_loaded_fleet_answers_like_its_pool_twin(
            self, master_router, workload, tmp_path, escalation_threshold):
        _checkpoint(master_router, tmp_path / "ckpt",
                    escalation_threshold=escalation_threshold)
        with load_cluster(tmp_path / "ckpt") as wave, \
                load_cluster(tmp_path / "ckpt") as pool, \
                _pool_twin(pool) as twin:
            assert wave.wave_engine.has_careful_tier \
                is (escalation_threshold is not None)
            assert all(worker.router.model is wave.master_router.model
                       for worker in wave.wave_engine.workers)
            wave_replies = _serve(wave, workload)
            pool_replies = _waves(twin.submit_many, workload)
            # The wave decodes the very doubles the per-shard path does.
            assert wave_replies == pool_replies
            assert [score.hex() for score in _scores(wave_replies)] \
                == [score.hex() for score in _scores(pool_replies)]
            assert wave.dispatcher.escalations == twin.router.escalations
            if escalation_threshold is not None:
                assert wave.dispatcher.escalations > 0
            assert _shard_counters(wave) == _shard_counters(pool)
            # The twin asked the pool fleet's shards, never its dispatcher.
            assert pool.dispatcher.questions == 0

    def test_a_question_decodes_the_same_in_any_wave(self, master_router,
                                                     workload, tmp_path):
        """Whatever shares its wave -- one neighbour or thirty, longer ones
        padding the memory -- a question's reply is the same, bit for bit."""
        _checkpoint(master_router, tmp_path / "ckpt", enable_cache=False)
        distinct = list(dict.fromkeys(workload))
        with load_cluster(tmp_path / "ckpt") as cluster:
            alone = dict(zip(distinct, _serve(cluster, distinct, wave_size=1)))
            for seed, wave_size in ((1, 8), (2, 5), (3, 32)):
                order = list(distinct)
                random.Random(seed).shuffle(order)
                assert dict(zip(order, _serve(cluster, order, wave_size))) == alone


class TestLoadedFleetSharesTheMasterTrunk:
    def test_bare_load_engages_the_wave_engine(self, master_router, tmp_path):
        _checkpoint(master_router, tmp_path / "ckpt")
        with load_cluster(tmp_path / "ckpt") as cluster:
            assert cluster.wave_engine is not None
            master = cluster.master_router.model
            for replica_set in cluster.shards:
                assert replica_set.workers[0].router.model is master

    def test_retired_and_unknown_config_keys(self, master_router, tmp_path):
        _checkpoint(master_router, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "cluster.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["wave_decode"] = True        # a PR 9-13 manifest
        manifest_path.write_text(json.dumps(manifest))
        with load_cluster(tmp_path / "ckpt") as cluster:
            assert not hasattr(cluster.config, "wave_decode")
            assert cluster.wave_engine is not None
            assert cluster.submit(QUESTIONS[0])
        manifest["config"]["warp_drive"] = 9
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="warp_drive"):
            load_cluster(tmp_path / "ckpt")

    @pytest.mark.parametrize("field, value", [
        ("num_shards", 0),
        ("worker_backend", "gpu"),
        ("replicas", 2),                    # inproc: a subprocess-only knob
        ("cache_size", 0),
        ("quarantine_seconds", -1.0),
        ("shard_timeout_seconds", 0.0),
    ])
    def test_an_invalid_saved_config_is_a_checkpoint_error(
            self, master_router, tmp_path, field, value):
        _checkpoint(master_router, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "cluster.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["worker_backend"] == "inproc"
        manifest["config"][field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=field) as outcome:
            load_cluster(tmp_path / "ckpt")
        assert isinstance(outcome.value.__cause__, ValueError)

    @pytest.mark.parametrize("saved", [False, True])
    def test_retired_pipelined_transport_key_boots_the_one_wire(
            self, master_router, tmp_path, saved):
        """A pre-PR-24 manifest says ``pipelined_transport``; whatever it
        says, the subprocess fleet it boots is the one multiplexed wire
        and answers like the inproc fleet, bit for bit."""
        _checkpoint(master_router, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "cluster.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["pipelined_transport"] = saved
        manifest_path.write_text(json.dumps(manifest))
        questions = list(QUESTIONS)
        with load_cluster(tmp_path / "ckpt") as inproc:
            expected = _serve(inproc, questions)
        with load_cluster(tmp_path / "ckpt", config=ClusterConfig(
                worker_backend="subprocess")) as fleet:
            assert not hasattr(fleet.config, "pipelined_transport")
            answers = _serve(fleet, questions)
            assert answers == expected
            assert [score.hex() for score in _scores(answers)] \
                == [score.hex() for score in _scores(expected)]
            # Two frames on one pipe before either is awaited, with the child
            # stopped so neither reply can land first: in-flight depth is 2
            # by construction, and both replies come back as JSON rows.
            worker = fleet.shards[0].workers[0]
            request = {"type": "route_batch_request", "questions": questions[:1],
                       "max_candidates": None, "careful": False}
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                sent = [worker._begin_request(request, 30.0) for _ in range(2)]
                assert worker.in_flight == 2
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            for pending, _ in sent:
                reply = worker._await_reply(pending, "route_response",
                                            30.0, "route_batch_request")
                assert len(route_rows(reply)) == 1
                assert "routes_binary" not in reply
            assert fleet.stats()["transport"]["max_in_flight"] == 2
        with pytest.raises(TypeError):
            ClusterConfig(**{"pipelined_transport": saved})
        manifest["config"]["warp_drive"] = 9
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="warp_drive"):
            load_cluster(tmp_path / "ckpt")

    def test_rebalance_round_trip_keeps_the_engine(self, master_router, workload,
                                                   tmp_path):
        _checkpoint(master_router, tmp_path / "first")
        questions = workload[:48]
        with load_cluster(tmp_path / "first") as cluster:
            moved = cluster.assignment.shards[0][0]
            ClusterRebalancer(cluster).move_database(moved, 1)
            assert cluster.shard_of(moved) == 1
            expected = _serve(cluster, questions)
            assert cluster.wave_engine is not None
            save_cluster(cluster, tmp_path / "second")
        with load_cluster(tmp_path / "second") as restored:
            assert restored.wave_engine is not None
            assert restored.shard_of(moved) == 1
            assert _serve(restored, questions) == expected


class TestOneBootPath:
    """A cluster checkpoint is its master router plus ``cluster.json``, and
    every shard on either backend is a ``ShardWorker`` projected from that
    master at the searches of the one rule, ``shard_search``."""

    def test_a_checkpoint_is_its_master_and_manifest(self, master_router, tmp_path):
        """``save_cluster`` of an inproc or a subprocess fleet, and the
        checkpoint a subprocess ``from_router`` writes for itself, hold
        exactly ``cluster.json`` and ``master/``."""
        def listing(path) -> list[str]:
            return sorted(entry.name for entry in path.iterdir())

        _checkpoint(master_router, tmp_path / "inproc")
        config = ClusterConfig(num_shards=2, worker_backend="subprocess")
        with ClusterRoutingService.from_router(
                master_router, config, checkpoint_dir=tmp_path / "own") as fleet:
            save_cluster(fleet, tmp_path / "resaved")
        for name in ("inproc", "own", "resaved"):
            assert listing(tmp_path / name) == ["cluster.json", "master"]
            assert listing(tmp_path / name / "master") == ["manifest.json",
                                                           "weights.npz"]
            manifest = json.loads((tmp_path / name / "cluster.json").read_text())
            assert "shards" not in manifest
            assert "sliced_vocabulary" not in manifest["config"]
            assert "vocabulary_slice" not in json.loads(
                (tmp_path / name / "master" / "manifest.json").read_text())

    @pytest.mark.parametrize("era", ["unsliced", "sliced"])
    def test_a_version_1_checkpoint_loads_on_both_backends(
            self, master_router, workload, tmp_path, era):
        """The layout of earlier builds: ``cluster.json`` version 1 with a
        ``shards`` entry per shard naming its projected router copy
        (``shard-NN/``).  The copies are not read: both backends serve the
        master's projections, ``float.hex``-equal to the version-2 layout --
        also for a fleet saved with ``sliced_vocabulary: true``, whose sliced
        copies this build would refuse to load."""
        config = ClusterConfig(num_shards=2)
        _checkpoint(master_router, tmp_path / "v2")
        old = shutil.copytree(tmp_path / "v2", tmp_path / "v1")
        fast, _ = shard_search(master_router.config, config.num_shards,
                               careful_tier=True)
        entries = []
        for shard_id, databases in enumerate(
                json.loads((old / "cluster.json").read_text())["assignment"]["shards"]):
            directory = f"shard-{shard_id:02d}"
            save_router(project_router(master_router, databases, fast),
                        old / directory)
            if era == "sliced":
                _mark_sliced(old / directory, master_router)
            entries.append({"shard_id": shard_id, "databases": databases,
                            "dir": directory})

        def downgrade(manifest: dict) -> None:
            manifest.update(version=1, shards=entries)
            if era == "sliced":
                manifest["config"]["sliced_vocabulary"] = True

        _rewrite(old / "cluster.json", downgrade)
        questions = workload[:24]
        with load_cluster(tmp_path / "v2") as fleet:
            expected = _hex(_serve(fleet, questions))
        for backend in ("inproc", "subprocess"):
            with load_cluster(old, config=ClusterConfig(
                    worker_backend=backend)) as fleet:
                assert [replica_set.num_replicas
                        for replica_set in fleet.shards] == [1, 1]
                assert _hex(_serve(fleet, questions)) == expected

    @pytest.mark.parametrize("backend", ["inproc", "subprocess"])
    def test_an_unknown_assigned_database_is_refused_before_any_spawn(
            self, master_router, tmp_path, monkeypatch, backend):
        _checkpoint(master_router, tmp_path / "ckpt")
        _rewrite(tmp_path / "ckpt" / "cluster.json", lambda manifest:
                 manifest["assignment"]["shards"][0].append("atlantis"))
        monkeypatch.setattr("repro.cluster.procworker.ProcShardWorker", _no_spawn)
        with pytest.raises(CheckpointError, match="atlantis.*master/"):
            load_cluster(tmp_path / "ckpt",
                         config=ClusterConfig(worker_backend=backend))

    @pytest.mark.parametrize("reader", ["load_router", "inproc", "subprocess"])
    def test_a_sliced_master_is_refused(self, master_router, tmp_path,
                                        monkeypatch, reader):
        """A ``master/`` saved as a retired sliced-vocabulary router: its
        scores are normalised over a slice of the vocabulary, so every reader
        refuses it, the parent before any worker spawns."""
        _checkpoint(master_router, tmp_path / "ckpt")
        _mark_sliced(tmp_path / "ckpt" / "master", master_router)
        monkeypatch.setattr("repro.cluster.procworker.ProcShardWorker", _no_spawn)
        with pytest.raises(CheckpointError, match="vocabulary_slice"):
            if reader == "load_router":
                load_router(tmp_path / "ckpt" / "master")
            else:
                load_cluster(tmp_path / "ckpt",
                             config=ClusterConfig(worker_backend=reader))

    @pytest.mark.parametrize("backend", ["inproc", "subprocess"])
    @pytest.mark.parametrize("sliced", [False, True])
    def test_a_sliced_cluster_manifest_serves_its_master(
            self, master_router, tmp_path, backend, sliced):
        """``sliced_vocabulary`` is a retired key whatever it says: a
        manifest carrying it serves its master's projections."""
        _checkpoint(master_router, tmp_path / "ckpt")
        with load_cluster(tmp_path / "ckpt") as original:
            expected = _serve(original, QUESTIONS)
        _rewrite(tmp_path / "ckpt" / "cluster.json", lambda manifest:
                 manifest["config"].update(sliced_vocabulary=sliced))
        with pytest.raises(TypeError):
            ClusterConfig(**{"sliced_vocabulary": sliced})
        with load_cluster(tmp_path / "ckpt", config=ClusterConfig(
                worker_backend=backend)) as cluster:
            assert cluster.config.worker_backend == backend
            assert not hasattr(cluster.config, "sliced_vocabulary")
            answers = _serve(cluster, QUESTIONS)
        assert _hex(answers) == _hex(expected)

    def test_retired_pool_and_exemplar_keys_load(self, master_router, tmp_path):
        """``max_workers`` and ``trace_exemplars`` are retired: no field takes
        them, and a manifest carrying both loads and serves as before."""
        _checkpoint(master_router, tmp_path / "ckpt")
        with load_cluster(tmp_path / "ckpt") as original:
            expected = _serve(original, QUESTIONS)
        _rewrite(tmp_path / "ckpt" / "cluster.json", lambda manifest:
                 manifest["config"].update(max_workers=2, trace_exemplars=3))
        for retired in ("max_workers", "trace_exemplars"):
            with pytest.raises(TypeError):
                ClusterConfig(**{retired: 2})
        with load_cluster(tmp_path / "ckpt") as cluster:
            assert cluster.tracer.journal.max_slow_traces == 8
            assert _hex(_serve(cluster, QUESTIONS)) == _hex(expected)

    def test_a_retired_cache_ttl_key_loads_and_never_expires(self, master_router,
                                                             tmp_path):
        """``cache_ttl_seconds`` is retired: no config takes it, a manifest
        carrying it loads, and the front it boots ages no entry -- a second
        pass is answered from the cache in full."""
        _checkpoint(master_router, tmp_path / "ckpt")
        _rewrite(tmp_path / "ckpt" / "cluster.json", lambda manifest:
                 manifest["config"].update(cache_ttl_seconds=60.0))
        for config in (ClusterConfig, ServingConfig):
            with pytest.raises(TypeError):
                config(cache_ttl_seconds=60.0)
        with load_cluster(tmp_path / "ckpt") as cluster:
            first = _serve(cluster, QUESTIONS)
            assert _serve(cluster, QUESTIONS) == first
            cache = cluster.stats()["cache"]
            assert cache["hits"] == len(set(QUESTIONS))
            assert "expirations" not in cache

    def test_a_careful_shard_call_needs_a_careful_tier(self, master_router):
        """No silent fallback: with the cascade off there is no careful tier,
        and asking a shard for one is a ``ValueError``, not a fast decode."""
        config = ClusterConfig(num_shards=2, escalation_threshold=None)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            worker = cluster.shards[0].workers[0]
            assert worker.careful_router is None
            with pytest.raises(ValueError, match="no careful tier"):
                worker.route_batch(QUESTIONS[:2], careful=True)
            assert all(worker.route_batch(QUESTIONS[:2]))

    def test_a_careful_wave_needs_a_careful_tier(self, master_router):
        config = ClusterConfig(num_shards=2, escalation_threshold=None)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            engine = cluster.wave_engine
            assert engine.has_careful_tier is False
            with pytest.raises(ValueError, match="no careful tier"):
                engine.route_wave(QUESTIONS[:2], careful=True)
            assert _shard_counters(cluster) == [[{
                "successes": 0, "failures": 0, "quarantined": False}]] * 2
            assert all(cluster.submit_many(QUESTIONS[:2]))


class TestWhichFleetsScatterThroughThePool:
    @pytest.mark.parametrize("field, value", [
        ("replicas", 2),
        ("shard_timeout_seconds", 1.0),
        ("allow_partial", True),
    ])
    def test_isolation_knobs_are_subprocess_only(self, field, value):
        """An inproc fleet is one wave: the knobs that would send it off the
        wave are refused there, and accepted for subprocess workers."""
        with pytest.raises(ValueError, match=f"{field}.*subprocess"):
            ClusterConfig(**{field: value})
        config = ClusterConfig(worker_backend="subprocess", **{field: value})
        assert getattr(config, field) == value

    def test_a_fleet_that_cannot_stack_raises(self, master_router):
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            first = cluster.shards[0].workers[0]
            first.routers = (project_router(
                master_router, first.databases,
                master_router.config.ablated(num_beams=3, beam_groups=1)),
                first.careful_router)
            with pytest.raises(ValueError, match="uniform shard decode"):
                ClusterRoutingService(cluster.shards, cluster.assignment,
                                      config=config)

    def test_a_shard_decoding_another_model_object_cannot_stack(self,
                                                                master_router):
        """Equal weights are not enough: the wave steps one model, so a shard
        router restored onto a copy of it is refused at construction."""
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            first = cluster.shards[0].workers[0]
            stranger = project_router(master_router, first.databases,
                                      first.router.config)
            stranger.restore(copy.deepcopy(master_router.model),
                             master_router.source_vocabulary,
                             master_router.target_vocabulary)
            first.routers = (stranger, first.careful_router)
            with pytest.raises(ValueError, match="one model object"):
                ClusterRoutingService(cluster.shards, cluster.assignment,
                                      config=config)

    def test_a_swapped_shard_that_cannot_stack_fails_its_next_wave(
            self, master_router):
        """The stacking check runs on every wave's routers: a shard swapped
        onto a copy of the model fails the next wave -- every asked miss
        counted as an error, and the wave counted as a failure on every
        replica set, so no shard reports ``ok`` -- and the restored fleet
        answers as before."""
        config = ClusterConfig(num_shards=2, enable_cache=False)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            expected = _hex(cluster.submit_many(QUESTIONS))
            first = cluster.shards[0].workers[0]
            routers = first.routers
            stranger = project_router(master_router, first.databases,
                                      first.router.config)
            stranger.restore(copy.deepcopy(master_router.model),
                             master_router.source_vocabulary,
                             master_router.target_vocabulary)
            first.routers = (stranger, first.careful_router)
            errors = cluster.metrics.counters().get("errors", 0)
            with pytest.raises(ClusterError) as raised:
                cluster.submit_many(QUESTIONS)
            assert isinstance(raised.value.__cause__, ValueError)
            assert "one model object" in str(raised.value.__cause__)
            assert cluster.metrics.counters()["errors"] - errors \
                == len(set(QUESTIONS))
            assert [replica_set.stats()["replicas"][0]["failures"]
                    for replica_set in cluster.shards] == [1, 1]
            # ``shard_failures`` means the same on both backends: one failed
            # wave fails every shard's leg, as the replica sets count it
            assert cluster.dispatcher.shard_failures == 2
            shards = cluster.health().children[:cluster.num_shards]
            assert [shard.component for shard in shards] == ["shard-0", "shard-1"]
            assert not any(shard.is_ok for shard in shards)
            first.routers = routers
            assert _hex(cluster.submit_many(QUESTIONS)) == expected

    def test_a_loop_master_fleet_never_enters_the_batched_engine(
            self, master_router, monkeypatch):
        """``decode_backend`` means the same for a wave as for a monolith: a
        fleet of a ``"loop"`` master decodes through the loop oracle, and
        answers exactly like the default fleet."""
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as fleet:
            expected = _hex(fleet.submit_many(QUESTIONS))
        looped = SchemaRouter(graph=master_router.graph,
                              config=master_router.config.ablated(
                                  decode_backend="loop"))
        looped.restore(master_router.model, master_router.source_vocabulary,
                       master_router.target_vocabulary)

        def batched(*args, **kwargs):
            raise AssertionError("a loop fleet entered the batched engine")

        monkeypatch.setattr("repro.core.router.diverse_beam_search_batch", batched)
        with ClusterRoutingService.from_router(looped, config) as fleet:
            assert _hex(fleet.submit_many(QUESTIONS)) == expected

    @pytest.mark.parametrize("copied", ["source_vocabulary", "target_vocabulary"])
    def test_a_shard_with_a_copied_vocabulary_cannot_stack(self, master_router,
                                                           copied):
        """The wave tokenizes and parses a whole wave with one pair of
        vocabularies, so a shard router restored onto an equal copy of
        either is refused at construction too."""
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            first = cluster.shards[0].workers[0]
            stranger = project_router(master_router, first.databases,
                                      first.router.config)
            vocabularies = {"source_vocabulary": master_router.source_vocabulary,
                            "target_vocabulary": master_router.target_vocabulary}
            vocabularies[copied] = copy.deepcopy(vocabularies[copied])
            stranger.restore(master_router.model, vocabularies["source_vocabulary"],
                             vocabularies["target_vocabulary"])
            first.routers = (stranger, first.careful_router)
            with pytest.raises(ValueError, match="one pair of vocabulary objects"):
                ClusterRoutingService(cluster.shards, cluster.assignment,
                                      config=config)

    def test_wave_decode_is_not_a_knob(self):
        assert "wave_decode" not in ClusterConfig.__dataclass_fields__
        with pytest.raises(TypeError):
            ClusterConfig(**{"wave_decode": True})

    def test_sliced_vocabulary_is_not_a_knob(self, master_router):
        """One target vocabulary: no config field, projection argument or
        router attribute selects a slice of it."""
        import repro.cluster

        assert "sliced_vocabulary" not in ClusterConfig.__dataclass_fields__
        for function in (project_router, repro.cluster.ShardWorker):
            assert "sliced_vocabulary" not in inspect.signature(function).parameters
        assert not hasattr(repro.cluster, "slice_target_vocabulary")
        shard = project_router(master_router, master_router.graph.catalog.database_names[:2],
                               master_router.config)
        for retired in ("vocabulary_slice", "rescore_hypotheses"):
            assert not hasattr(shard, retired)


class TestWaveBookkeeping:
    def test_wave_counters_ride_the_decode_span(self, master_router):
        """Decode counters have one channel: the wave's ``decode`` span, one
        row per (shard, question); ``stats()`` keeps no wave rollup."""
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            cluster.submit_many(QUESTIONS)
            stats = cluster.stats()
            (trace,) = [record for record in cluster.tracer.journal.slowest()
                        if record["name"] == "request_wave"]
        assert "wave" not in stats
        asked = stats["dispatcher"]["questions"]
        assert asked == len(set(QUESTIONS))
        # The decode rode the single-stream span, not per-shard scatters ...
        assert "wave_decode" in stats["stages"]
        assert "scatter" not in stats["stages"]
        assert json.loads(json.dumps(stats)) == stats
        # ... under which the usual stage spans nest, decode counters included.
        spans = {span["span_id"]: span for span in trace["spans"]}
        fast_wave = next(span for span in trace["spans"]
                         if span["name"] == "wave_decode"
                         and not span["attributes"]["careful"])
        stages = {span["name"]: span for span in trace["spans"]
                  if span["parent_id"] == fast_wave["span_id"]}
        assert set(stages) == {"encode", "decode", "parse"}
        assert spans[fast_wave["parent_id"]]["name"] == "request_wave"
        decode = stages["decode"]["attributes"]
        assert decode["backend"] == master_router.config.decode_backend
        assert decode["questions"] == 2 * asked
        assert decode["steps"] > 0
        assert decode["live_beams"] >= decode["beam_rows"] > 0
        assert decode["ranked_tokens"] > 0
        assert decode["questions_compacted"] >= 0
        assert decode["mask_cache_hits"] + decode["mask_cache_misses"] > 0

    def test_a_failed_wave_fails_every_replica_once(self, master_router,
                                                    monkeypatch):
        config = ClusterConfig(num_shards=2, escalation_threshold=None)

        def broken(*args, **kwargs):
            raise FloatingPointError("boom")

        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            monkeypatch.setattr("repro.core.router.diverse_beam_search_batch",
                                broken)
            # The failure lands on every replica like a failed pool call.
            with pytest.raises(Exception, match="wave decode failed"):
                cluster.submit_many(QUESTIONS[:3] + QUESTIONS[:1])
            monkeypatch.undo()
            assert cluster.metrics.counters() == {"requests": 4, "errors": 4}
            for replica_set in cluster.shards:
                (replica,) = replica_set.stats()["replicas"]
                assert (replica["successes"], replica["failures"]) == (0, 1)
            assert cluster.submit_many(QUESTIONS[:3])
            for replica_set in cluster.shards:
                (replica,) = replica_set.stats()["replicas"]
                assert (replica["successes"], replica["quarantined"]) == (1, False)


class TestCountersConserve:
    """``requests == cache_hits + routed + errors`` at a fleet's front and a
    monolith, however a wave went: within-wave repeats of a miss, repeats of
    a hit, and a wave whose decode raised."""

    WAVES = [
        QUESTIONS[:2] + QUESTIONS[:1],                 # a repeated miss
        QUESTIONS[1:4] + QUESTIONS[3:4] * 2,           # a hit, a miss x3
    ]
    FAILED = QUESTIONS[4:6] + QUESTIONS[4:5]

    def _drive(self, route_many, services, monkeypatch) -> list[dict]:
        """Route the waves, checking conservation after each; returns every
        service's final counters."""
        def check() -> list[dict]:
            tiers = [service.metrics.counters() for service in services]
            for counters in tiers:
                assert counters["requests"] == sum(
                    counters.get(key, 0)
                    for key in ("cache_hits", "routed", "errors")), counters
            return tiers

        def broken(*args, **kwargs):
            raise FloatingPointError("boom")

        for wave in self.WAVES:
            route_many(wave)
            check()
        with monkeypatch.context() as patched:
            patched.setattr("repro.core.router.diverse_beam_search_batch", broken)
            with pytest.raises(Exception):
                route_many(self.FAILED)
        check()
        route_many(self.FAILED + QUESTIONS[:1])       # recovered, mixed
        return check()

    def test_on_the_wave(self, master_router, monkeypatch):
        config = ClusterConfig(num_shards=2, escalation_threshold=1.0)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            (front,) = self._drive(cluster.submit_many, [cluster.front],
                                   monkeypatch)
            # The front counts every asked miss of the failed wave.
            assert front["errors"] == len(self.FAILED)
            assert cluster.dispatcher.escalations > 0

    def test_on_submit_many(self, master_router, monkeypatch):
        with RoutingService(master_router) as service:
            (counters,) = self._drive(service.submit_many, [service], monkeypatch)
            assert counters["errors"] == len(self.FAILED)
            assert counters["routed"] > len(set(QUESTIONS[:6]))


class TestConcurrentWaves:
    def test_callers_and_a_live_rebalance(self, master_router, workload):
        """8 threads x ``submit_many`` while a database moves between shards:
        every call settles, a pass made after the move answers exactly like
        a serial run on an identically rebalanced fleet, and nothing is left
        running at ``close()``."""
        config = ClusterConfig(num_shards=2)
        distinct = list(dict.fromkeys(workload))
        chunks = [distinct[slot::8][:16] for slot in range(8)]
        with ClusterRoutingService.from_router(master_router, config) as serial:
            moved = serial.assignment.shards[0][0]
            ClusterRebalancer(serial).move_database(moved, 1)
            expected = [_serve(serial, chunk) for chunk in chunks]

        threads_before = set(threading.enumerate())
        cluster = ClusterRoutingService.from_router(master_router, config)
        warmed = threading.Semaphore(0)
        moved_event = threading.Event()
        finals: list = [None] * len(chunks)
        failures: list[BaseException] = []

        def caller(slot: int) -> None:
            try:
                first = True
                while True:
                    after_move = moved_event.is_set()
                    replies = _serve(cluster, chunks[slot])
                    assert len(replies) == len(chunks[slot])
                    assert all(isinstance(routes, list) for routes in replies)
                    if first:
                        warmed.release()
                        first = False
                    if after_move:
                        finals[slot] = replies
                        return
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)
                warmed.release()

        callers = [threading.Thread(target=caller, args=(slot,))
                   for slot in range(len(chunks))]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)      # interleave the callers finely
        try:
            for thread in callers:
                thread.start()
            assert all(warmed.acquire(timeout=120) for _ in callers)
            ClusterRebalancer(cluster).move_database(moved, 1)   # mid-traffic
            moved_event.set()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            moved_event.set()
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in callers)
        assert not failures, failures
        assert cluster.wave_engine is not None
        cluster.close()
        assert finals == expected
        assert set(threading.enumerate()) <= threads_before


class TestDirectSubmitWithoutTimeout:
    """The dispatcher sends to every target, then waits on each, on the
    calling thread: a deadline is the worker's own, so there is no pool, no
    wrapper and no watchdog thread."""

    def test_a_scatter_sends_on_the_calling_thread(self, master_router, tmp_path):
        seen: list[tuple[str, int, str]] = []

        def target_for(shard: int):
            def send(questions, max_candidates, trace=None):
                seen.append(("send", shard, threading.current_thread().name))

                def wait():
                    seen.append(("wait", shard, threading.current_thread().name))
                    return [[] for _ in questions]
                return wait
            return send

        ClusterDispatcher([target_for(0), target_for(1)]).route_batch(["q"])
        caller = threading.current_thread().name
        assert seen == [("send", 0, caller), ("send", 1, caller),
                        ("wait", 0, caller), ("wait", 1, caller)]
        # An open subprocess fleet that has answered a wave runs no parent
        # thread: the caller reads its own replies off each worker's pipe.
        _checkpoint(master_router, tmp_path / "ckpt")
        before = set(threading.enumerate())
        with load_cluster(tmp_path / "ckpt", config=ClusterConfig(
                worker_backend="subprocess")) as fleet:
            fleet.submit_many(QUESTIONS)
            assert set(threading.enumerate()) - before == set()
