"""Shared fixtures for the benchmark harness.

The experiment contexts (synthetic collections, baseline indexes, trained
DBCopilot) are cached at module level inside :mod:`repro.experiments.context`,
so running the full benchmark session builds each collection exactly once.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, ClusterRoutingService, load_cluster, save_cluster
from repro.experiments import default_config, get_context
from repro.serving import RoutingService, ServingConfig, save_router


def pytest_addoption(parser):
    parser.addoption(
        "--backend", action="store", default="inproc",
        choices=("inproc", "subprocess"),
        help="cluster worker backend for bench_cluster_scaling: 'inproc' "
             "(every shard in this interpreter, decoding as one stacked "
             "wave) or 'subprocess' (one repro.cluster.procworker process "
             "per shard over the wire protocol)")


@pytest.fixture(scope="session")
def cluster_backend(request) -> str:
    return request.config.getoption("--backend")


@pytest.fixture(scope="session")
def experiment_config():
    return default_config()


@pytest.fixture(scope="session")
def spider_context(experiment_config):
    return get_context("spider_like", experiment_config)


@pytest.fixture(scope="session")
def bird_context(experiment_config):
    return get_context("bird_like", experiment_config)


@pytest.fixture(scope="session")
def fiben_context(experiment_config):
    return get_context("fiben_like", experiment_config)


@pytest.fixture(scope="session")
def spider_serving(spider_context, tmp_path_factory):
    """A routing service booted from a checkpoint of the spider-like copilot.

    Going through the on-disk checkpoint (rather than wrapping the in-memory
    router) exercises the full deploy path that ``bench_serving_throughput``
    measures: save -> load -> serve.
    """
    checkpoint = save_router(spider_context.copilot.router,
                             tmp_path_factory.mktemp("serving") / "router-ckpt")
    service = RoutingService.from_checkpoint(checkpoint,
                                             ServingConfig(cache_size=4096))
    yield service
    service.close()


@pytest.fixture(scope="session")
def spider_cluster(spider_context, tmp_path_factory):
    """A 4-shard cluster booted from a whole-cluster checkpoint.

    Mirrors ``spider_serving``: the cluster is saved with ``save_cluster`` and
    booted with ``load_cluster`` so ``bench_cluster_scaling`` measures the full
    deploy path (partition -> project -> save -> load -> serve).
    """
    built = ClusterRoutingService.from_router(
        spider_context.copilot.router,
        ClusterConfig(num_shards=4, cache_size=4096),
    )
    checkpoint = save_cluster(built,
                              tmp_path_factory.mktemp("cluster") / "cluster-ckpt")
    built.close()
    service = load_cluster(checkpoint)
    yield service
    service.close()
