"""The package's public names: every export resolves and is used, and oracles stay out."""

import ast
import importlib
import pkgutil
import re
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
    "check_density",
    "coherence_l1",
    "conditional_meter_states",
    "half_edge_run",
    "half_edge_step",
    "loop_compare_mixing",
    "loop_enumerate_branches",
    "trace_distance",
)
# names that left the package with nothing in the tests to replace them
REMOVED = (
    "CoinSpec",
    "SIMPLEX_TOL",
    "flat_index",
    "time_averaged_distribution",
    "validate_distribution",
)
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_attributes_that_exist(name):
    module = importlib.import_module(f"coinwalk.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert not set(ORACLES + REMOVED) & set(exported)


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
    for name in ORACLES + REMOVED:
        assert not hasattr(coinwalk, name)
        for module in MODULES:
            assert not hasattr(importlib.import_module(f"coinwalk.{module}"), name)


def test_every_export_is_used_by_the_package_the_benchmark_or_the_docs():
    # a use is any mention in src/ (outside __init__.py), bench/, the README
    # or the acceptance suite, other than the name's own def or class line
    # and its entry in an __all__ list
    package = Path(coinwalk.__file__)
    users = [*package.parent.glob("*.py"), *(ROOT / "bench").glob("*.py"),
             ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in users if path != package)
    tree = ast.parse(package.read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    unused = [name for name in exported if not re.search(
        rf"\b{name}\b", re.sub(rf'^\s*((def|class) {name}\b.*|"{name}",?)$', "", text, flags=re.M))]
    assert unused == []
