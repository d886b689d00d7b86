"""The one lazy re-export helper every package ``__init__`` uses (PEP 562).

A package ``__init__`` declares names, it does not import them::

    from repro.utils.lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "SchemaGraph": "repro.core.graph",
        ...
    })

``from repro.core import SchemaGraph`` then imports :mod:`repro.core.graph`
(and nothing else) on first use and caches the value in the package's
namespace, so ``__getattr__`` runs once per name.  Importing a *submodule*
(``import repro.cluster.shard``) executes only the parent ``__init__`` files,
which import nothing: a process loads what it uses.  That is what keeps a
shard worker's import closure to the decode path (pinned by
``tests/test_import_closure.py``), and what lets ``python -m
repro.cluster.procworker`` / ``repro.obs.export`` / ``repro.obs.httpd`` run
without runpy finding its module already in ``sys.modules``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, str],
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """Module-level ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each re-exported name to the module that defines it;
    ``__all__`` lists the names in table order.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module_name), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
