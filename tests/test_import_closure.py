"""A serving process loads what it serves: import closures, pinned.

Sets and counts only, no timings.  Each closure is read from a *fresh*
interpreter (this one has imported the world).  A package ``__init__``
declares names and imports nothing (:mod:`repro.utils.lazy`), so a closure is
exactly what the imported modules name at their tops; the guards at the end
keep an ``__init__`` from quietly becoming eager again and ``networkx`` from
coming back.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cluster import QUESTIONS, _cluster_catalog

from repro.cluster import ClusterConfig, ClusterRoutingService, ProcShardWorker, save_cluster
from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(path.parent for path in (SRC / "repro").glob("*/__init__.py"))

#: Training, evaluation, SQL and ops code no serving entry point may load.
NOT_FOR_SERVING = (
    "networkx", "repro.datasets", "repro.sql", "repro.engine", "repro.llm",
    "repro.experiments", "repro.nn.trainer", "repro.nn.optim", "repro.nn.data",
    "repro.core.synthesis", "repro.core.questioner", "repro.core.sampling",
    "repro.core.dbcopilot", "repro.serving.loadgen", "repro.obs.httpd",
)
#: A shard worker is additionally not a dispatcher, draws no training init
#: (a checkpoint loads its arrays) and spawns no process.
NOT_FOR_A_WORKER = NOT_FOR_SERVING + (
    "repro.cluster.service", "repro.cluster.wave", "repro.cluster.checkpoint",
    "repro.cluster.rebalance", "repro.cluster.partition",
    "numpy.random", "subprocess",
)


def _environment() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _loaded(modules: list[str], forbidden: tuple[str, ...]) -> list[str]:
    return [module for module in modules
            if any(module == name or module.startswith(name + ".") for name in forbidden)]


@pytest.mark.parametrize("statement, forbidden", [
    ("import repro.cluster.procworker", NOT_FOR_A_WORKER),
    ("from repro.serving import load_router, RoutingService", NOT_FOR_SERVING),
    ("from repro.cluster import load_cluster", NOT_FOR_SERVING),
])
def test_entry_point_import_closure(statement, forbidden):
    output = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"],
        env=_environment(), check=True, capture_output=True, text=True).stdout
    modules = json.loads(output)
    assert "repro.core.router" in modules  # the closure is the real one
    assert _loaded(modules, forbidden) == []


# -- nothing on the request path imports ---------------------------------------
#: Runs the real ``worker_main`` and records, at graceful shutdown, every
#: module ``serve`` (handshake acked -> shutdown_ack) added to ``sys.modules``.
_SPY_WORKER = """
import json, sys
import repro.cluster.procworker as procworker
serve, report = procworker.serve, sys.argv.pop(1)
def spying_serve(*args, **kwargs):
    before = set(sys.modules)
    try:
        return serve(*args, **kwargs)
    finally:
        with open(report, "w") as handle:
            json.dump({"imported_while_serving": sorted(set(sys.modules) - before),
                       "loaded": sorted(sys.modules)}, handle)
procworker.serve = spying_serve
sys.exit(procworker.worker_main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def shard(tmp_path_factory) -> tuple[Path, tuple[str, ...]]:
    """A saved cluster's master directory and shard 0's databases."""
    catalog = _cluster_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    report = synthesize_training_data(SchemaSampler(graph, seed=23),
                                      TemplateQuestioner(catalog=catalog, seed=23),
                                      SynthesisConfig(num_samples=120))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=3, embedding_dim=16, hidden_dim=24, num_beams=4, beam_groups=2, seed=23))
    router.fit(report.examples)
    with ClusterRoutingService.from_router(
            router, ClusterConfig(num_shards=2)) as built:
        path = save_cluster(built, tmp_path_factory.mktemp("closure") / "ckpt")
        databases = built.assignment.shards[0]
    return path / "master", databases


def test_a_served_session_imports_nothing(shard, tmp_path):
    report_path = tmp_path / "modules.json"

    class SpiedWorker(ProcShardWorker):
        def _command(self) -> list[str]:  # ``python -c SPY report`` for ``python -m ...``
            return [self.python_executable, "-c", _SPY_WORKER, str(report_path),
                    *super()._command()[3:]]

    with SpiedWorker(0, *shard, num_shards=2, careful_tier=True) as worker:
        assert all(worker.route_batch(list(QUESTIONS[:4])))          # a fast wave
        assert all(worker.route_batch(list(QUESTIONS[:4]), careful=True))
        assert worker.stats()["shard_id"] == 0                       # stats_request
        assert worker.ping() >= 0.0                                  # ping
        worker.route_batch(list(QUESTIONS[:4]))                      # a repeated wave
    report = json.loads(report_path.read_text())
    assert report["imported_while_serving"] == []
    assert _loaded(report["loaded"], NOT_FOR_A_WORKER) == []


#: A monolith boots from its checkpoint and answers one wave, then reports
#: everything it loaded.
_MONOLITH_SESSION = """
import json, sys
from repro.serving import RoutingService, load_router
with RoutingService(load_router(sys.argv[1])) as service:
    assert all(service.submit_many(json.loads(sys.argv[2])))
print(json.dumps(sorted(sys.modules)))
"""


def test_a_monolith_session_draws_no_init(shard):
    """The load, not the import, is what would pull ``numpy.random`` in, so
    the import-only closures above cannot see it: run the session."""
    master, _ = shard
    output = subprocess.run(
        [sys.executable, "-c", _MONOLITH_SESSION, str(master), json.dumps(QUESTIONS[:4])],
        env=_environment(), check=True, capture_output=True, text=True).stdout
    modules = json.loads(output)
    assert "repro.serving.service" in modules
    assert _loaded(modules, NOT_FOR_SERVING + ("numpy.random",)) == []


# -- every declared name resolves ----------------------------------------------
@pytest.mark.parametrize("package_name", ["repro"] + [f"repro.{path.name}" for path in PACKAGES])
def test_every_exported_name_resolves_and_is_cached(package_name):
    package = importlib.import_module(package_name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in dir(package)
        assert vars(package)[name] is value  # cached: __getattr__ ran once
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


# -- regression guards ---------------------------------------------------------
def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("init", [SRC / "repro" / "__init__.py"]
                         + [path / "__init__.py" for path in PACKAGES],
                         ids=lambda init: init.parent.name)
def test_a_package_init_declares_names_and_imports_nothing(init):
    """Docstring, ``from __future__``, the helper import, literal tables and
    one ``lazy_exports(__name__, {literal})`` call: nothing else."""
    docstring, *body = ast.parse(init.read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    calls = 0
    for node in body:
        if isinstance(node, ast.ImportFrom):
            assert node.module == "__future__" or (
                node.module == "repro.utils.lazy"
                and [alias.name for alias in node.names] == ["lazy_exports"]), ast.unparse(node)
            continue
        assert isinstance(node, ast.Assign), ast.unparse(node)
        if not _is_literal(node.value):
            function, (package, table) = node.value.func, node.value.args
            assert (function.id, package.id) == ("lazy_exports", "__name__")
            assert _is_literal(table) and not node.value.keywords
            calls += 1
    assert calls == 1


def test_nothing_under_src_imports_networkx():
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
                else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert not any(name.split(".")[0] == "networkx" for name in names), path
