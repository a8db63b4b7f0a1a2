"""The package's public names: every export resolves, and the dense oracles stay out."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import coinwalk

MODULES = sorted(info.name for info in pkgutil.iter_modules(coinwalk.__path__))
# reference forms that only tests use; they live in tests/oracles.py
ORACLES = (
    "DephasingKraus",
    "add_at_classical_step",
    "apply_kraus",
    "block_diagonal",
    "build_coin_operator",
    "loop_compare_mixing",
    "loop_enumerate_branches",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_attributes_that_exist(name):
    module = importlib.import_module(f"coinwalk.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert not set(ORACLES) & set(exported)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(coinwalk.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"coinwalk.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(coinwalk, alias.asname or alias.name)
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def test_the_dense_oracles_are_not_part_of_the_package():
    for name in ORACLES:
        assert not hasattr(coinwalk, name)
        for module in MODULES:
            assert not hasattr(importlib.import_module(f"coinwalk.{module}"), name)
