"""Shared fixtures for the paper benches (``bench_table*``, ``bench_figure*``,
``bench_case_studies``).

The experiment contexts (synthetic collections, baseline indexes, trained
DBCopilot) are cached at module level inside :mod:`repro.experiments.context`,
so running the full benchmark session builds each collection exactly once.
Speed is not measured here: the end-to-end rows of ``benchmarks/e2e`` and the
committed ``BENCH_*.json`` baselines hold it.
"""

from __future__ import annotations

import pytest

from repro.experiments import default_config, get_context


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
