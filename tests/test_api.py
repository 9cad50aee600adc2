"""The public API: every exported name resolves, and none is exported twice."""

import importlib
import pkgutil

import numpy as np
import pytest

import cvbench
from cvbench import (
    SingleModeSpec,
    ThreeModeProtocol,
    discord_oracle,
    prepare_discordant_pair,
)

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


def test_batched_values_compare_and_hash():
    # fields may be arrays, so these values compare and hash by identity
    def values():
        spec = SingleModeSpec(np.array([1.0, 2.0]))
        protocol = ThreeModeProtocol(spec, spec, 0.5, np.array([0.2, 0.4]))
        pairs = prepare_discordant_pair(spec, 0.5)
        return spec, protocol, discord_oracle(pairs)

    for first, second in zip(values(), values()):
        assert first == first and first != second
        hash(first)
