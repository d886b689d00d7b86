"""Tests for the cluster subsystem: partitioning, dispatch, replicas,
rebalancing, and whole-cluster checkpoints."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterDispatcher,
    ClusterError,
    ClusterRebalancer,
    ClusterRoutingService,
    RebalanceError,
    ReplicaSet,
    ShardAssignment,
    ShardTimeoutError,
    ShardWorker,
    load_cluster,
    load_cluster_manifest,
    partition_catalog,
    project_router,
    save_cluster,
)
from repro.cluster.shard import shard_search
from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRoute,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    merge_route_lists,
    normalize_route_scores,
    synthesize_training_data,
)
from repro.schema import Catalog, Column, ColumnType, Database, ForeignKey, Table
from repro.serving import RoutingService, ServingConfig
from repro.serving.checkpoint import CheckpointError
from reference_merge import merge_route_lists as reference_merge_route_lists


def _database(name: str, tables: dict[str, list[str]],
              foreign_keys: list[tuple[str, str, str, str]] = ()) -> Database:
    return Database(
        name=name,
        tables=[
            Table(table, [Column(column, ColumnType.INTEGER, is_primary_key=(index == 0))
                          for index, column in enumerate(columns)])
            for table, columns in tables.items()
        ],
        foreign_keys=[ForeignKey(*fk) for fk in foreign_keys],
    )


def _cluster_catalog() -> Catalog:
    """Four small single-domain databases (so shards get clear owners)."""
    return Catalog(name="cluster_small", databases=[
        _database("concert_hall", {
            "singer": ["singer_id", "stage_name", "country"],
            "concert": ["concert_id", "venue", "season"],
            "singer_in_concert": ["singer_id", "concert_id"],
        }, [("singer_in_concert", "singer_id", "singer", "singer_id"),
            ("singer_in_concert", "concert_id", "concert", "concert_id")]),
        _database("world_atlas", {
            "country": ["country_id", "country_name", "continent"],
            "city": ["city_id", "city_name", "population", "country_id"],
        }, [("city", "country_id", "country", "country_id")]),
        _database("book_library", {
            "author": ["author_id", "author_name", "birth_year"],
            "book": ["book_id", "title", "author_id", "shelf"],
        }, [("book", "author_id", "author", "author_id")]),
        _database("grocery_shop", {
            "product": ["product_id", "product_label", "price"],
            "purchase": ["purchase_id", "product_id", "quantity"],
        }, [("purchase", "product_id", "product", "product_id")]),
    ])


QUESTIONS = [
    "which singers performed in a concert",
    "list the venue of every concert",
    "how many cities are there in each country",
    "what is the population of each city",
    "show the title of every book and its author name",
    "which authors were born after 1960",
    "what is the price of each product",
    "how many purchases were made per product",
]


@pytest.fixture(scope="module")
def master_router() -> SchemaRouter:
    catalog = _cluster_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=23)
    sampler = SchemaSampler(graph, seed=23)
    report = synthesize_training_data(sampler, questioner, SynthesisConfig(num_samples=300))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=8, beam_groups=4, seed=23))
    router.fit(report.examples)
    return router


def _timed_out(questions, max_candidates=None, careful=False):
    """A shard stand-in that missed its deadline: what a subprocess worker
    raises after killing its wedged child."""
    raise ShardTimeoutError("shard did not answer within its deadline")


def sender(route_batch):
    """A blocking stub as a dispatcher target or replica: it answers (or
    raises) inside the send, and the returned ``wait`` hands the answer back."""
    def send(*args, **kwargs):
        answer = route_batch(*args, **kwargs)
        return lambda: answer
    return send


def _signature(routes) -> list[tuple[str, tuple[str, ...]]]:
    return [(route.database, route.tables) for route in routes]


def _hex_signatures(route_lists) -> list[list[tuple[str, tuple[str, ...], str]]]:
    return [[(route.database, route.tables, route.score.hex()) for route in routes]
            for routes in route_lists]


def _full_signature(routes) -> list[tuple[str, tuple[str, ...], float]]:
    return [(route.database, route.tables, route.score) for route in routes]


# -- partitioning --------------------------------------------------------------
class TestPartition:
    def test_size_balanced_levels_table_counts(self):
        catalog = Catalog(name="lopsided", databases=[
            _database("big", {f"t{i}": ["id", "x"] for i in range(6)}),
            _database("mid", {f"t{i}": ["id", "x"] for i in range(3)}),
            _database("small_a", {"t0": ["id", "x"]}),
            _database("small_b", {"t0": ["id", "x"]}),
        ])
        assignment = partition_catalog(catalog, 2)
        loads = [sum(catalog.database(name).num_tables for name in shard)
                 for shard in assignment.shards]
        assert sorted(loads) == [5, 6]  # big | mid + the two small ones

    def test_the_partition_is_a_deterministic_cover(self):
        catalog = _cluster_catalog()
        first = partition_catalog(catalog, 2)
        assert first == partition_catalog(catalog, 2)
        assert sorted(first.database_names) == sorted(catalog.database_names)
        assert all(first.shards)  # no empty shards

    def test_invalid_requests_rejected(self):
        catalog = _cluster_catalog()
        with pytest.raises(ValueError, match="positive"):
            partition_catalog(catalog, 0)
        with pytest.raises(ValueError, match="non-empty"):
            partition_catalog(catalog, 99)
        with pytest.raises(ValueError, match="multiple shards"):
            ShardAssignment(shards=(("a", "b"), ("b",)))

    def test_assignment_lookup_and_payload_round_trip(self):
        assignment = partition_catalog(_cluster_catalog(), 3)
        for shard_id, databases in enumerate(assignment.shards):
            for name in databases:
                assert assignment.shard_of(name) == shard_id
        with pytest.raises(KeyError):
            assignment.shard_of("nowhere")
        rebuilt = ShardAssignment.from_payload(
            json.loads(json.dumps(assignment.to_payload())))
        assert rebuilt == assignment


# -- projection ----------------------------------------------------------------
class TestProjection:
    def test_projected_router_stays_inside_its_shard(self, master_router):
        shard = project_router(master_router, ("world_atlas", "book_library"),
                               master_router.config)
        for question in QUESTIONS:
            for route in shard.route(question):
                assert route.database in ("world_atlas", "book_library")

    def test_projection_shares_the_master_model(self, master_router):
        search = master_router.config.ablated(num_beams=2, beam_groups=1)
        shard = project_router(master_router, ("concert_hall",), search)
        assert shard.model is master_router.model
        assert shard.config.num_beams == 2

    def test_every_fleet_router_decodes_the_master_objects(self, master_router):
        """Every shard router of a fleet -- fast and careful tier alike --
        decodes the master's model over the master's vocabulary objects, and
        only its constraint is its shard's own: what lets one kernel step a
        whole wave."""
        config = ClusterConfig(num_shards=2, escalation_threshold=0.8)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            for replica_set in cluster.shards:
                worker = replica_set.workers[0]
                assert worker.careful_router is not None
                for router in worker.routers:
                    assert router.model is master_router.model
                    assert router.source_vocabulary is master_router.source_vocabulary
                    assert router.target_vocabulary is master_router.target_vocabulary
                    assert sorted(router.graph.catalog.database_names) \
                        == sorted(worker.databases)

    def test_empty_projection_routes_nowhere(self, master_router):
        shard = project_router(master_router, (), master_router.config)
        assert shard.route(QUESTIONS[0]) == []

    def test_projection_errors(self, master_router):
        with pytest.raises(ValueError, match="untrained"):
            project_router(SchemaRouter(graph=master_router.graph), ("world_atlas",),
                           master_router.config)
        with pytest.raises(ValueError, match="not in the master catalog"):
            project_router(master_router, ("mystery_db",), master_router.config)

    def test_a_beam_budget_projects_plain_beams(self, master_router):
        """A projection decodes the search it is given: 6 plain beams in one
        group, or the master's own 8 beams in 4 groups."""
        search = master_router.config.ablated(num_beams=6, beam_groups=1)
        plain = project_router(master_router, ("concert_hall",), search)
        assert (plain.config.num_beams, plain.config.beam_groups) == (6, 1)
        kept = project_router(master_router, ("concert_hall",), master_router.config)
        assert (kept.config.num_beams, kept.config.beam_groups) == (8, 4)


# -- derived beam budgets ------------------------------------------------------
def _forbid_workers(monkeypatch) -> None:
    """From here on, building any shard worker -- inproc or subprocess --
    fails the test."""
    from repro.cluster.procworker import ProcShardWorker

    def built(*args, **kwargs):
        raise AssertionError("a shard worker was built")

    monkeypatch.setattr(ShardWorker, "__init__", built)
    monkeypatch.setattr(ProcShardWorker, "__init__", built)


class TestDerivedBeamBudgets:
    def test_the_config_fields_are_pinned(self):
        """A new knob must show up here as a reviewed diff."""
        assert {field.name for field in fields(ClusterConfig)} == {
            "num_shards", "worker_backend", "replicas",
            "escalation_threshold", "shard_timeout_seconds", "allow_partial",
            "quarantine_seconds", "enable_cache",
            "cache_size", "enable_tracing"}

    @pytest.mark.parametrize("num_shards, threshold, searches", [
        (1, 0.8, [(1, 1), (8, 4)]), (1, None, [(8, 4)]),
        (2, 0.8, [(1, 1), (4, 1)]), (2, None, [(4, 1)]),
        (4, 0.8, [(1, 1), (2, 1)]), (4, None, [(2, 1)]),
    ])
    def test_derived_budgets_reach_every_shard(self, master_router, num_shards,
                                               threshold, searches):
        """The master searches 8 beams in 4 groups.  One shard decodes that
        very search in its single pass or its careful tier; over more shards
        a shard decodes plain beams -- 1 fast and ``max(2, 8 // n)`` careful
        under the cascade, ``max(1, 8 // n)`` without it."""
        config = ClusterConfig(num_shards=num_shards, escalation_threshold=threshold)
        fast, careful = shard_search(master_router.config, num_shards,
                                     careful_tier=threshold is not None)
        assert [(search.num_beams, search.beam_groups) for search in (fast, careful)
                if search is not None] == searches
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            for replica_set in cluster.shards:
                worker = replica_set.workers[0]
                assert worker.router.config == fast
                assert (None if worker.careful_router is None
                        else worker.careful_router.config) == careful
            assert cluster.submit(QUESTIONS[0])

    @pytest.mark.parametrize("backend", ["inproc", "subprocess"])
    def test_a_one_shard_fleet_is_the_merged_monolith(self, master_router, backend):
        """A fleet of one shard without the cascade decodes the master's own
        diverse search: its answers are the master's, merged --
        ``float.hex``-equal, score for score."""
        expected = [merge_route_lists(
            [routes], max_candidates=master_router.default_max_candidates)
            for routes in master_router.route_batch(QUESTIONS)]
        config = ClusterConfig(num_shards=1, escalation_threshold=None,
                               worker_backend=backend)
        with ClusterRoutingService.from_router(master_router, config) as fleet:
            assert _hex_signatures(fleet.submit_many(QUESTIONS)) \
                == _hex_signatures(expected)

    def _saved(self, master_router, tmp_path):
        with ClusterRoutingService.from_router(
                master_router, ClusterConfig(num_shards=2)) as cluster:
            return save_cluster(cluster, tmp_path / "cluster-ckpt")

    def test_null_retired_overrides_load_unchanged(self, master_router,
                                                   tmp_path):
        """Every manifest written with defaults holds the retired beam
        overrides as null: it loads and routes ``float.hex``-equal."""
        path = self._saved(master_router, tmp_path)
        with load_cluster(path) as fleet:
            expected = _hex_signatures(fleet.submit_many(QUESTIONS))
        manifest = json.loads((path / "cluster.json").read_text())
        manifest["config"].update(shard_num_beams=None, shard_beam_groups=None,
                                  escalation_num_beams=None)
        (path / "cluster.json").write_text(json.dumps(manifest))
        with load_cluster(path) as fleet:
            assert _hex_signatures(fleet.submit_many(QUESTIONS)) == expected

    @pytest.mark.parametrize("key", ["shard_num_beams", "shard_beam_groups",
                                     "escalation_num_beams", "max_candidates"])
    @pytest.mark.parametrize("backend", ["inproc", "subprocess"])
    def test_a_set_retired_override_is_refused(self, master_router, tmp_path,
                                               monkeypatch, key, backend):
        """Dropping a set override would change a beam budget or how long
        answers are, so the manifest is a ``CheckpointError`` naming the key
        on either backend, raised before any worker is built."""
        path = self._saved(master_router, tmp_path)
        manifest = json.loads((path / "cluster.json").read_text())
        manifest["config"][key] = 2
        (path / "cluster.json").write_text(json.dumps(manifest))
        _forbid_workers(monkeypatch)
        with pytest.raises(CheckpointError, match=f"retired {key}=2"):
            load_cluster(path, config=ClusterConfig(num_shards=2,
                                                    worker_backend=backend))


#: The layout an earlier build's ``round_robin`` partitioner dealt for
#: ``_cluster_catalog()`` over two shards (databases in catalog order).
ROUND_ROBIN = (("concert_hall", "book_library"), ("world_atlas", "grocery_shop"))


class TestRetiredPartitionKeys:
    @pytest.mark.parametrize("backend", ["inproc", "subprocess"])
    def test_an_old_round_robin_manifest_boots_its_assignment(self, master_router,
                                                              tmp_path, backend):
        """A manifest written as an older build would -- ``"strategy":
        "round_robin"`` in the config and the assignment, the layout it
        dealt, ``"max_candidates": null`` -- boots that exact layout and
        routes ``float.hex``-equal to a fleet built from it."""
        assignment = ShardAssignment(shards=ROUND_ROBIN)
        assert assignment != partition_catalog(master_router.graph.catalog, 2)
        with ClusterRoutingService.from_router(
                master_router, ClusterConfig(num_shards=2),
                assignment=assignment) as built:
            expected = _hex_signatures(built.submit_many(QUESTIONS))
            path = save_cluster(built, tmp_path / "old-ckpt")
        manifest = json.loads((path / "cluster.json").read_text())
        manifest["config"].update(strategy="round_robin", max_candidates=None)
        manifest["assignment"]["strategy"] = "round_robin"
        (path / "cluster.json").write_text(json.dumps(manifest))
        with load_cluster(path, config=ClusterConfig(
                num_shards=2, worker_backend=backend)) as fleet:
            assert fleet.assignment.shards == ROUND_ROBIN
            assert [tuple(replica_set.workers[0].databases)
                    for replica_set in fleet.shards] == list(ROUND_ROBIN)
            assert _hex_signatures(fleet.submit_many(QUESTIONS)) == expected


# -- score merging (core helpers) ----------------------------------------------
class TestMerge:
    def test_normalization_is_monotonic_and_sums_to_one(self):
        routes = [SchemaRoute("a", ("t",), -3.0), SchemaRoute("b", ("t",), -1.0),
                  SchemaRoute("c", ("t",), -7.5)]
        normalized = normalize_route_scores(routes)
        assert sum(route.score for route in normalized) == pytest.approx(1.0)
        assert [r.database for r in sorted(normalized, key=lambda r: -r.score)] == \
            ["b", "a", "c"]
        assert normalize_route_scores([]) == []

    def test_merge_is_independent_of_shard_order(self):
        shard_a = [SchemaRoute("a", ("t",), -1.0), SchemaRoute("b", ("t",), -4.0)]
        shard_b = [SchemaRoute("c", ("t", "u"), -2.0)]
        shard_c = [SchemaRoute("d", ("t",), -3.0)]
        forward = merge_route_lists([shard_a, shard_b, shard_c], max_candidates=3)
        backward = merge_route_lists([shard_c, shard_b, shard_a], max_candidates=3)
        assert _full_signature(forward) == _full_signature(backward)
        assert [route.database for route in forward] == ["a", "c", "d"]

    def test_merge_deduplicates_overlapping_databases(self):
        merged = merge_route_lists([
            [SchemaRoute("a", ("t",), -2.0)],
            [SchemaRoute("a", ("t", "u"), -1.0)],
        ])
        assert _signature(merged) == [("a", ("t", "u"))]

    def test_zero_candidates_merge_to_nothing(self):
        shards = [[SchemaRoute("a", ("t",), -1.0)], [(-2.0, "b", ("t",))]]
        assert merge_route_lists(shards, max_candidates=0) == []

    def test_negative_candidate_budget_is_refused(self):
        with pytest.raises(ValueError, match="max_candidates"):
            merge_route_lists([[SchemaRoute("a", ("t",), -1.0)]], max_candidates=-1)


#: Pools for the merge differential: few names, so shards overlap on databases
#: and routes tie; scores from a short list, so weights tie exactly (-800
#: underflows to weight 0 beside a peak near 0).
_ROUTE = st.tuples(st.sampled_from([-0.5, -1.0, -2.0, -800.0])
                   | st.floats(-60.0, 0.0, allow_nan=False),
                   st.sampled_from("abcde"),
                   st.lists(st.sampled_from(["t", "u", "v"]), max_size=2).map(tuple),
                   st.booleans())
_POOLS = st.lists(st.lists(_ROUTE, max_size=4), max_size=4)


def _as_input(shard, *, rows: bool = True):
    """A shard list of the drawn routes: each a row or a :class:`SchemaRoute`
    as drawn (``rows=False`` makes every one a route, for the reference)."""
    return [(score, database, tables) if rows and as_row
            else SchemaRoute(database, tables, score)
            for score, database, tables, as_row in shard]


@settings(max_examples=300, deadline=None)
@given(pools=_POOLS, max_candidates=st.sampled_from([None, 0, 1, 5]))
@example(pools=[[(-1.0, "a", ("t",), True), (-1.0, "b", (), False)],
                [], [(-1.0, "a", ("u",), False), (-2.0, "c", ("t",), True)]],
         max_candidates=5)
@example(pools=[[], []], max_candidates=None)
def test_merge_equals_the_reference_merge(pools, max_candidates):
    """The row-pooling merge ranks, dedups and scores exactly as the merge it
    replaced (``tests/reference_merge.py``), to the last bit of every score.
    The reference returns one candidate at ``max_candidates=0``; the merge
    returns none, so the reference is cut to the budget."""
    merged = merge_route_lists([_as_input(shard) for shard in pools],
                               max_candidates=max_candidates)
    expected = reference_merge_route_lists(
        [_as_input(shard, rows=False) for shard in pools],
        max_candidates=max_candidates)[:max_candidates]
    assert [(route.database, route.tables, route.score.hex()) for route in merged] \
        == [(route.database, route.tables, route.score.hex()) for route in expected]


# -- dispatcher ----------------------------------------------------------------
class TestDispatcher:
    @staticmethod
    def _fake_target(database: str, score: float):
        def route_batch(questions, max_candidates):
            return [[SchemaRoute(database, ("t",), score)] for _ in questions]
        return sender(route_batch)

    def test_scatter_gather_merges_shard_answers(self):
        dispatcher = ClusterDispatcher([
            self._fake_target("alpha", -2.0),
            self._fake_target("beta", -1.0),
        ])
        merged = dispatcher.route_batch(["q1", "q2"])
        assert [_signature(routes) for routes in merged] == \
            [[("beta", ("t",)), ("alpha", ("t",))]] * 2

    def test_shard_timeout_fails_the_request(self):
        dispatcher = ClusterDispatcher([self._fake_target("alpha", -1.0),
                                        sender(_timed_out)])
        with pytest.raises(ClusterError) as outcome:
            dispatcher.route_batch(["q"])
        assert isinstance(outcome.value.__cause__, ShardTimeoutError)
        assert dispatcher.shard_failures == 1
        assert dispatcher.shards_timed_out == 1
        assert dispatcher.partial_gathers == 0

    def test_allow_partial_serves_the_remaining_shards(self):
        def broken(questions, max_candidates):
            raise RuntimeError("shard down")

        dispatcher = ClusterDispatcher([self._fake_target("alpha", -1.0), sender(broken)],
                                       allow_partial=True)
        merged = dispatcher.route_batch(["q"])
        assert _signature(merged[0]) == [("alpha", ("t",))]
        assert dispatcher.partial_gathers == 1
        # ... unless every shard failed.
        with pytest.raises(ClusterError):
            ClusterDispatcher([sender(broken)], allow_partial=True).route_batch(["q"])

    def test_partial_gather_counts_dropped_timeouts(self):
        """A timed-out shard silently dropped from a partial gather must be
        visible in ``shards_timed_out`` (distinct from crash failures)."""
        def broken(questions, max_candidates):
            raise RuntimeError("shard down")

        dispatcher = ClusterDispatcher([self._fake_target("alpha", -1.0),
                                        sender(_timed_out), sender(broken)],
                                       allow_partial=True)
        merged = dispatcher.route_batch(["q"])
        assert _signature(merged[0]) == [("alpha", ("t",))]
        assert dispatcher.shard_failures == 2   # slow + broken
        assert dispatcher.shards_timed_out == 1  # only slow was a timeout
        assert dispatcher.partial_gathers == 1

    def test_cascade_escalates_only_low_confidence_questions(self):
        # Fast tier: near-tie for "ambiguous", clear winner for "easy".
        def fast(questions, max_candidates):
            return [[SchemaRoute("alpha", ("t",), -1.0),
                     SchemaRoute("beta", ("t",), -1.1 if question == "ambiguous"
                                 else -9.0)]
                    for question in questions]

        careful_calls: list[list[str]] = []

        def careful(questions, max_candidates):
            careful_calls.append(list(questions))
            return [[SchemaRoute("beta", ("t", "u"), -0.5)] for _ in questions]

        dispatcher = ClusterDispatcher([sender(fast)], careful_targets=[sender(careful)],
                                       escalation_threshold=0.9)
        merged = dispatcher.route_batch(["easy", "ambiguous"])
        assert careful_calls == [["ambiguous"]]  # only the near-tie escalated
        assert dispatcher.escalations == 1
        assert merged[0][0].database == "alpha"       # fast answer kept
        assert _signature(merged[1]) == [("beta", ("t", "u"))]  # careful answer

    def test_a_front_wave_asks_each_shard_each_question_once(self):
        """Through a front, ``[a, b, a, c, a]`` sends ``[a, b, c]`` to every
        fast target and only the distinct needy ``[a, b]`` to every careful
        target; each asked question gets its own list, equal to routing it
        alone."""
        calls: dict[str, list[list[str]]] = {}

        def shard(name, score_of):
            calls[name] = []

            def route_batch(questions, max_candidates, trace=None):
                calls[name].append(list(questions))
                return [[SchemaRoute(name, (question,), score_of(question))]
                        for question in questions]
            return sender(route_batch)

        fast = [shard("alpha", lambda question: -1.0),  # "c" is the clear one
                shard("beta", lambda question: -9.0 if question == "c" else -1.1)]
        careful = [shard("gamma", lambda question: -0.5),
                   shard("delta", lambda question: -2.0)]
        wave = ["a", "b", "a", "c", "a"]
        dispatcher = ClusterDispatcher(fast, careful_targets=careful,
                                       escalation_threshold=0.9)
        with RoutingService(dispatcher, ServingConfig(enable_cache=False)) as front:
            answers = front.submit_many(wave)
            # The front's consult collapsed the wave: the dispatcher was asked
            # each distinct question once, and judged two of them needy.
            assert (dispatcher.questions, dispatcher.escalations) == (3, 2)
        assert calls == {"alpha": [["a", "b", "c"]], "beta": [["a", "b", "c"]],
                         "gamma": [["a", "b"]], "delta": [["a", "b"]]}
        alone = ClusterDispatcher(fast, careful_targets=careful, escalation_threshold=0.9)
        expected = [alone.route_batch([question])[0] for question in wave]
        assert _hex_signatures(answers) == _hex_signatures(expected)
        assert [routes[0].database for routes in answers] == \
            ["gamma", "gamma", "gamma", "alpha", "gamma"]
        assert len({id(routes) for routes in answers}) == len(wave)

    def test_cascade_configuration_validated(self):
        target = self._fake_target("alpha", -1.0)
        with pytest.raises(ValueError, match="pair up"):
            ClusterDispatcher([target], careful_targets=[target, target],
                              escalation_threshold=0.5)
        with pytest.raises(ValueError, match="escalation_threshold"):
            ClusterDispatcher([target], careful_targets=[target],
                              escalation_threshold=1.5)

    def test_empty_batch_and_no_targets(self):
        dispatcher = ClusterDispatcher([self._fake_target("alpha", -1.0)])
        assert dispatcher.route_batch([]) == []
        with pytest.raises(ValueError):
            ClusterDispatcher([])

    def test_there_is_no_pool_to_size(self):
        with pytest.raises(TypeError):
            ClusterDispatcher([self._fake_target("alpha", -1.0)], max_workers=4)


# -- replication ---------------------------------------------------------------
class TestReplicaSet:
    def _workers(self, master_router, count: int = 2) -> list[ShardWorker]:
        return [
            ShardWorker(0, ("concert_hall", "world_atlas"), master_router,
                        num_shards=4)
            for _ in range(count)
        ]

    @staticmethod
    def _kill(worker: ShardWorker) -> None:
        """A dead replica: every request it is sent raises."""
        def dead(questions, max_candidates=None, careful=False, trace=None):
            raise RuntimeError("replica is down")

        worker.route_batch = dead  # type: ignore[method-assign]

    def test_killing_one_replica_leaves_answers_unchanged(self, master_router):
        workers = self._workers(master_router)
        replica_set = ReplicaSet(0, workers, quarantine_seconds=60.0)
        healthy = [replica_set.route_batch([question])[0] for question in QUESTIONS]
        replicas = self._workers(master_router)
        replica_set = ReplicaSet(0, replicas, quarantine_seconds=60.0)
        self._kill(replicas[0])
        after = [replica_set.route_batch([question])[0] for question in QUESTIONS]
        assert [_full_signature(routes) for routes in after] == \
            [_full_signature(routes) for routes in healthy]
        assert replica_set.failovers > 0
        assert replica_set.healthy_count() == 1
        stats = replica_set.stats()
        assert stats["replicas"][0]["quarantined"] is True
        for worker in replicas:
            worker.close()

    def test_quarantined_replica_is_retried_after_expiry(self, master_router):
        now = [0.0]
        workers = self._workers(master_router)
        replica_set = ReplicaSet(0, workers, quarantine_seconds=30.0,
                                 clock=lambda: now[0])
        calls: list[int] = []
        originals = [worker.route_batch for worker in workers]

        def failing_once(questions, max_candidates=None, careful=False, trace=None):
            calls.append(0)
            raise RuntimeError("transient")

        workers[0].route_batch = failing_once  # type: ignore[method-assign]
        replica_set.route_batch(["q"])  # fails over to replica 1, quarantines 0
        assert replica_set.healthy_count() == 1
        workers[0].route_batch = originals[0]  # type: ignore[method-assign]
        now[0] = 31.0  # quarantine expired: replica 0 is eligible again
        assert replica_set.healthy_count() == 2
        replica_set.route_batch(["q"])  # round-robin lands on replica 1 ...
        replica_set.route_batch(["q"])  # ... then retries the recovered replica 0
        assert replica_set.stats()["replicas"][0]["successes"] >= 1
        for worker in workers:
            worker.close()

    def test_all_replicas_failing_raises(self, master_router):
        workers = self._workers(master_router)
        replica_set = ReplicaSet(0, workers, quarantine_seconds=60.0)
        for worker in workers:
            self._kill(worker)
        with pytest.raises(ClusterError, match="all 2 replicas"):
            replica_set.route_batch(["q"])
        with pytest.raises(ValueError):
            ReplicaSet(0, [])

    def test_timeout_classification_survives_the_replica_layer(self):
        """All replicas timing out must surface as ShardTimeoutError (so the
        dispatcher counts a shard *timeout*); a mix of crash + timeout is a
        plain ClusterError."""
        class Late:
            send_route_batch = staticmethod(sender(_timed_out))

        class Broken:
            def send_route_batch(self, questions, max_candidates=None, careful=False):
                raise RuntimeError("shard down")

        all_late = ReplicaSet(0, [Late(), Late()], quarantine_seconds=60.0)
        with pytest.raises(ShardTimeoutError):
            all_late.route_batch(["q"])
        assert all_late.failovers == 1
        mixed = ReplicaSet(0, [Late(), Broken()], quarantine_seconds=60.0)
        with pytest.raises(ClusterError) as outcome:
            mixed.route_batch(["q"])
        assert not isinstance(outcome.value, ShardTimeoutError)
        dispatcher = ClusterDispatcher([all_late.send])
        with pytest.raises(ClusterError):
            dispatcher.route_batch(["q"])
        assert dispatcher.shards_timed_out == 1


# -- the cluster service -------------------------------------------------------
class TestClusterRoutingService:
    @pytest.fixture()
    def cluster(self, master_router):
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as service:
            yield service

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_matches_monolithic_top1_on_seeded_questions(self, master_router,
                                                         num_shards):
        agree = 0
        with ClusterRoutingService.from_router(
                master_router, ClusterConfig(num_shards=num_shards)) as cluster:
            for question in QUESTIONS:
                mono = master_router.route(question)
                merged = cluster.submit(question)
                assert merged, f"cluster routed {question!r} to nothing"
                if mono and merged[0].database == mono[0].database:
                    agree += 1
            assert cluster.stats()["dispatcher"]["shard_failures"] == 0
        assert agree >= round(0.95 * len(QUESTIONS))

    def test_scores_are_normalized_probabilities(self, cluster):
        routes = cluster.submit(QUESTIONS[0])
        assert all(0.0 < route.score <= 1.0 for route in routes)
        assert sum(route.score for route in routes) <= 1.0 + 1e-9
        assert routes == sorted(routes, key=lambda route: -route.score)

    def test_top_k_identical_across_runs_and_shard_orderings(self, master_router):
        config = ClusterConfig(num_shards=2)
        assignment = partition_catalog(master_router.graph.catalog, 2)
        reversed_assignment = ShardAssignment(shards=assignment.shards[::-1])
        with ClusterRoutingService.from_router(master_router, config) as forward, \
                ClusterRoutingService.from_router(master_router, config,
                                                  assignment=reversed_assignment) as backward:
            for question in QUESTIONS:
                assert _full_signature(forward.submit(question)) == \
                    _full_signature(backward.submit(question))

    def test_submit_many_matches_submit(self, cluster):
        batch = cluster.submit_many(QUESTIONS[:4])
        for question, routes in zip(QUESTIONS[:4], batch):
            assert _full_signature(routes) == _full_signature(cluster.submit(question))
        assert cluster.submit_many([]) == []

    def test_the_front_cache_absorbs_repeats(self, cluster):
        cluster.submit(QUESTIONS[0])
        cluster.submit(QUESTIONS[0])
        stats = cluster.stats()
        assert stats["counters"] == {"requests": 2, "routed": 1, "cache_hits": 1}
        assert stats["cache"]["hits"] == 1
        assert stats["dispatcher"]["questions"] == 1
        assert stats["num_shards"] == 2
        assert len(stats["shards"]) == 2
        assert json.loads(json.dumps(stats)) == stats

    def test_the_default_answer_size_asked_for_is_a_front_hit(self, cluster):
        """The dispatcher's default answer size, named, is the answer a
        request without one gets: one front entry, one scatter."""
        default = cluster.submit(QUESTIONS[0])
        explicit = cluster.submit(QUESTIONS[0],
                                  max_candidates=cluster.dispatcher.default_max_candidates)
        assert _full_signature(explicit) == _full_signature(default)
        stats = cluster.stats()
        assert stats["counters"] == {"requests": 2, "routed": 1, "cache_hits": 1}
        assert stats["cache"]["size"] == 1
        assert stats["dispatcher"]["questions"] == 1

    def test_a_targeted_change_stales_the_front(self, cluster):
        """Naming a database stales every merged answer (each pools all
        shards); naming no served database changes nothing."""
        cluster.submit(QUESTIONS[0])
        cluster.notify_catalog_changed(cluster.assignment.shards[0][0])
        assert cluster.catalog_version == 1
        cluster.submit(QUESTIONS[0])
        assert cluster.dispatcher.questions == 2
        with pytest.raises(KeyError):
            cluster.notify_catalog_changed("mystery_db")
        assert cluster.catalog_version == 1
        cluster.submit(QUESTIONS[0])
        assert cluster.dispatcher.questions == 2

    def test_max_candidates_bounds_the_merged_answer(self, cluster):
        assert len(cluster.submit(QUESTIONS[0], max_candidates=1)) == 1

    def test_stats_expose_backend_and_timeout_accounting(self, cluster):
        cluster.submit_many(QUESTIONS[:2])
        stats = cluster.stats()
        # cumulative accounting only: the front's snapshot plus the fleet's
        # layout, dispatcher and shards -- no trailing window
        assert set(stats) == {
            "uptime_seconds", "counters", "qps", "latency", "batch_size_histogram",
            "mean_batch_size", "stages", "cache", "cache_hit_rate", "traces",
            "num_shards", "replicas", "worker_backend", "assignment",
            "catalog_version", "dispatcher", "shards"}
        assert stats["worker_backend"] == "inproc"
        dispatcher = stats["dispatcher"]
        # shards_timed_out breaks the "partial gathers drop timeouts silently"
        # blind spot: the counter exists even when everything is healthy.
        assert dispatcher["shards_timed_out"] == 0
        assert dispatcher["shard_failures"] == 0
        assert set(dispatcher) == {"questions", "shard_failures", "shards_timed_out",
                                   "partial_gathers", "escalations"}
        json.dumps(stats)  # the whole rollup stays JSON-serializable
        assert cluster.health().status in ("ok", "degraded")

    def test_escalation_tier_is_wired_and_counted(self, master_router, cluster):
        assert all(worker.careful_router is not None
                   for replica_set in cluster.shards
                   for worker in replica_set.workers)
        cluster.submit_many(QUESTIONS)
        stats = cluster.stats()
        assert stats["dispatcher"]["escalations"] >= 0
        # With the cascade disabled, shards run a single wider-beam pass.
        config = ClusterConfig(num_shards=2, escalation_threshold=None)
        with ClusterRoutingService.from_router(master_router, config) as single_pass:
            worker = single_pass.shards[0].workers[0]
            assert worker.careful_router is None
            assert worker.router.config.num_beams == \
                master_router.config.num_beams // 2
            assert single_pass.submit(QUESTIONS[0])

    def test_closed_cluster_rejects_requests(self, master_router):
        service = ClusterRoutingService.from_router(
            master_router, ClusterConfig(num_shards=2))
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(QUESTIONS[0])
        with pytest.raises(RuntimeError):
            service.submit_many(QUESTIONS[:2])

    def test_invalid_configs_rejected(self, master_router):
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(replicas=0)
        with pytest.raises(ValueError, match="subprocess"):
            ClusterConfig(replicas=2)
        for bad in ({"cache_size": 0}, {"quarantine_seconds": -1.0},
                    {"shard_timeout_seconds": 0.0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ClusterConfig(worker_backend="subprocess", **bad)
        with pytest.raises(ValueError):
            ClusterRoutingService([], partition_catalog(master_router.graph.catalog, 2))


    @pytest.mark.parametrize("backend", ["inproc", "subprocess"])
    def test_a_budget_below_one_is_refused_before_any_frame(self, master_router,
                                                            backend):
        config = ClusterConfig(num_shards=2, worker_backend=backend)
        with ClusterRoutingService.from_router(master_router, config) as cluster:
            cluster.submit(QUESTIONS[0])
            frames = _bytes_sent(cluster)
            for budget in (0, -1):
                with pytest.raises(ValueError, match="max_candidates"):
                    cluster.submit(QUESTIONS[1], max_candidates=budget)
                with pytest.raises(ValueError, match="max_candidates"):
                    cluster.submit_many(QUESTIONS[:2], max_candidates=budget)
            assert _bytes_sent(cluster) == frames
            assert cluster.metrics.counters() == {"requests": 1, "routed": 1}
            assert len(cluster.submit(QUESTIONS[1], max_candidates=None)) >= 1


def _bytes_sent(cluster) -> int:
    """Bytes written to every worker's pipe (0 for an inproc fleet); read
    locally, so reading it sends no frame."""
    return sum(worker.transport_stats()["bytes_sent"]
               for replica_set in cluster.shards for worker in replica_set.workers
               if hasattr(worker, "transport_stats"))


class TestWithinWaveRepeats:
    """The front's consult collapses a wave's repeats before the scatter."""

    def test_a_wave_with_repeats_answers_like_its_distinct_wave(self, master_router):
        config = ClusterConfig(num_shards=2, enable_cache=False)
        with ClusterRoutingService.from_router(master_router, config) as repeated, \
                ClusterRoutingService.from_router(master_router, config) as distinct:
            @settings(max_examples=25, deadline=None)
            @given(st.lists(st.sampled_from(QUESTIONS), min_size=1, max_size=10))
            @example([QUESTIONS[0]] * 3 + QUESTIONS[1:3] + [QUESTIONS[0]])
            def check(wave):
                unique = list(dict.fromkeys(wave))
                answer_of = dict(zip(unique, distinct.submit_many(unique)))
                answers = repeated.submit_many(wave)
                assert _hex_signatures(answers) == \
                    _hex_signatures([answer_of[question] for question in wave])
                assert len({id(routes) for routes in answers}) == len(wave)

            check()
            # Both fleets' shards decoded the same distinct questions, and
            # escalated the same ones.
            assert repeated.dispatcher.stats() == distinct.dispatcher.stats()
            assert repeated.metrics.counters()["requests"] > \
                distinct.metrics.counters()["requests"]

    def test_a_subprocess_wave_sends_each_question_once(self, master_router):
        config = ClusterConfig(num_shards=2,
                               worker_backend="subprocess", escalation_threshold=None,
                               enable_cache=False)
        wave = [QUESTIONS[0], QUESTIONS[1], QUESTIONS[0], QUESTIONS[0]]
        # Trailing spaces tokenise away but keep the strings distinct.
        spelled = [question + " " * index for index, question in enumerate(wave)]
        with ClusterRoutingService.from_router(master_router, config) as fleet:
            start = _bytes_sent(fleet)
            answers = fleet.submit_many(wave)
            middle = _bytes_sent(fleet)
            spelled_answers = fleet.submit_many(spelled)
            end = _bytes_sent(fleet)
        # Each worker's spelled frame carries the two copies of ``wave[0]``
        # that the repeated wave's frame does not.
        assert (end - middle) - (middle - start) > 2 * len(wave[0]) * 2
        assert _hex_signatures(answers) == _hex_signatures(spelled_answers)


# -- rebalancing ---------------------------------------------------------------
class TestRebalance:
    @pytest.fixture()
    def cluster(self, master_router):
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as service:
            yield service

    def test_remove_then_add_restores_routing(self, cluster):
        before = [_signature(cluster.submit(question)) for question in QUESTIONS]
        rebalancer = ClusterRebalancer(cluster)
        victim = cluster.assignment.shards[0][0]
        removed_from = rebalancer.remove_database(victim)
        assert victim not in cluster.database_names
        while_gone = cluster.submit_many(QUESTIONS)
        assert all(victim not in {route.database for route in routes}
                   for routes in while_gone)
        rebalancer.add_database(victim, shard_id=removed_from)
        after = [_signature(cluster.submit(question)) for question in QUESTIONS]
        assert after == before

    def test_a_rebalance_reprojects_only_the_affected_shard(self, cluster):
        """Shard 0 gets both tiers anew, in one assignment; shard 1 keeps
        its routers; the front's cached answers are staled."""
        cluster.submit_many(QUESTIONS)
        workers = [replica_set.workers[0] for replica_set in cluster.shards]
        before = [worker.routers for worker in workers]
        victim = cluster.assignment.shards[0][0]
        ClusterRebalancer(cluster).remove_database(victim)
        assert workers[1].routers is before[1]
        assert all(new is not old for new, old in zip(workers[0].routers, before[0]))
        assert all(sorted(router.graph.catalog.database_names)
                   == sorted(workers[0].databases) for router in workers[0].routers)
        assert victim not in workers[0].databases
        asked = cluster.dispatcher.questions
        cluster.submit_many(QUESTIONS)
        assert cluster.dispatcher.questions == asked + len(QUESTIONS)

    def test_catalog_version_counts_rebalances(self, cluster):
        rebalancer = ClusterRebalancer(cluster)
        victim = cluster.assignment.shards[1][0]
        assert cluster.catalog_version == 0
        rebalancer.remove_database(victim)
        rebalancer.add_database(victim)
        assert cluster.catalog_version == 2

    def test_the_version_moves_after_the_shard_is_re_projected(self, cluster,
                                                              monkeypatch):
        seen = []
        notify = cluster.notify_catalog_changed

        def recording(database=None):
            seen.append((cluster.assignment.shards[0],
                         cluster.shards[0].workers[0].databases))
            notify(database)

        monkeypatch.setattr(cluster, "notify_catalog_changed", recording)
        victim = cluster.assignment.shards[0][0]
        ClusterRebalancer(cluster).remove_database(victim)
        assert len(seen) == 1
        assignment, databases = seen[0]
        assert victim not in assignment and victim not in databases
        assert cluster.catalog_version == 1

    def test_add_prefers_the_least_loaded_shard(self, cluster):
        rebalancer = ClusterRebalancer(cluster)
        victim = cluster.assignment.shards[0][0]
        rebalancer.remove_database(victim)
        assert rebalancer.least_loaded_shard() == 0
        assert rebalancer.add_database(victim) == 0

    def test_move_database_relocates(self, cluster):
        rebalancer = ClusterRebalancer(cluster)
        database = cluster.assignment.shards[0][0]
        rebalancer.move_database(database, 1)
        assert cluster.shard_of(database) == 1
        rebalancer.move_database(database, 1)  # no-op: already there
        assert cluster.shard_of(database) == 1

    def test_invalid_rebalances_rejected(self, cluster):
        rebalancer = ClusterRebalancer(cluster)
        with pytest.raises(RebalanceError, match="outside the master"):
            rebalancer.add_database("mystery_db")
        with pytest.raises(RebalanceError, match="already served"):
            rebalancer.add_database(cluster.assignment.shards[0][0])
        with pytest.raises(RebalanceError, match="not currently served"):
            cluster_db = cluster.assignment.shards[0][0]
            rebalancer.remove_database(cluster_db)
            rebalancer.remove_database(cluster_db)
        with pytest.raises(RebalanceError, match="not currently served"):
            rebalancer.move_database(cluster_db, 1)
        with pytest.raises(RebalanceError, match="no shard"):
            rebalancer.add_database(cluster_db, shard_id=9)


# -- cluster checkpoints -------------------------------------------------------
class TestClusterCheckpoint:
    def test_round_trip_reproduces_identical_routes(self, master_router, tmp_path):
        config = ClusterConfig(num_shards=2)
        with ClusterRoutingService.from_router(master_router, config) as original:
            expected = [_full_signature(original.submit(question))
                        for question in QUESTIONS]
            original.notify_catalog_changed()
            path = save_cluster(original, tmp_path / "cluster-ckpt")
        with load_cluster(path) as reloaded:
            assert reloaded.assignment == \
                partition_catalog(master_router.graph.catalog, 2)
            assert reloaded.catalog_version == 1  # survives the restart
            actual = [_full_signature(reloaded.submit(question))
                      for question in QUESTIONS]
        assert actual == expected

    def test_manifest_structure(self, master_router, tmp_path):
        with ClusterRoutingService.from_router(
                master_router, ClusterConfig(num_shards=2)) as cluster:
            path = save_cluster(cluster, tmp_path / "cluster-ckpt")
            assignment = cluster.assignment
        manifest = load_cluster_manifest(path)
        assert manifest["format"] == "repro-cluster-checkpoint"
        assert manifest["version"] == 2
        assert set(manifest) == {"format", "version", "config", "assignment",
                                 "catalog_version"}
        assert ShardAssignment.from_payload(manifest["assignment"]) == assignment
        assert (path / "master" / "manifest.json").is_file()

    def test_load_with_serving_override(self, master_router, tmp_path):
        with ClusterRoutingService.from_router(
                master_router, ClusterConfig(num_shards=2)) as cluster:
            expected = [_full_signature(cluster.submit(question))
                        for question in QUESTIONS[:3]]
            path = save_cluster(cluster, tmp_path / "cluster-ckpt")
        # The override may change serving knobs, but routing-affecting knobs
        # (the partition, the escalation threshold) always come from the
        # checkpoint.
        override = ClusterConfig(num_shards=2, cache_size=7,
                                 quarantine_seconds=1.0,
                                 escalation_threshold=None)
        with load_cluster(path, config=override) as reloaded:
            assert (reloaded.config.cache_size,
                    reloaded.config.quarantine_seconds) == (7, 1.0)
            for replica_set in reloaded.shards:
                assert replica_set.quarantine_seconds == 1.0
            assert reloaded.front.cache.max_size == 7
            assert reloaded.config.escalation_threshold == 0.8
            assert [_full_signature(reloaded.submit(question))
                    for question in QUESTIONS[:3]] == expected

    def test_invalid_checkpoints_rejected(self, master_router, tmp_path):
        with pytest.raises(CheckpointError, match="cluster.json"):
            load_cluster(tmp_path / "nowhere")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "cluster.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a cluster checkpoint"):
            load_cluster(bad)
        with ClusterRoutingService.from_router(
                master_router, ClusterConfig(num_shards=2)) as cluster:
            saved_master = cluster.master_router
            cluster.master_router = None
            with pytest.raises(CheckpointError, match="master router"):
                save_cluster(cluster, tmp_path / "no-master")
            cluster.master_router = saved_master
