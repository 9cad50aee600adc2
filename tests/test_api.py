"""The public API: every exported name resolves, and none is exported twice."""

import importlib
import pkgutil

import pytest

import cvbench

MODULES = ["cvbench"] + [f"cvbench.{info.name}" for info in pkgutil.iter_modules(cvbench.__path__)]


def test_every_module_is_covered():
    assert set(MODULES) >= {
        "cvbench", "cvbench.cli", "cvbench.info", "cvbench.network",
        "cvbench.speckle", "cvbench.states", "cvbench.stats",
    }


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    # a name left in __all__ after its definition is deleted fails here, not at
    # a user's `from cvbench import *`
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []
