"""Static checks on the package source, where no linter runs."""

import ast
import sys
from pathlib import Path

import pytest

import latescore

_SOURCES = sorted(Path(latescore.__file__).resolve().parent.glob("*.py"))
_MODULES = [p for p in _SOURCES if p.name != "__init__.py"]
# numpy is the one runtime dependency pyproject.toml declares; scipy is a test extra.
_RUNTIME = {"numpy"}


def _unused_imports(source: str) -> list[str]:
    """The names that the source's imports bind and no expression reads;
    ``__future__`` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_unused_imports():
    source = "import os\nimport os.path as osp\nimport sys\nfrom math import inf, nan\nprint(sys.argv, inf)\n"
    assert _unused_imports(source) == ["nan", "os", "osp"]


def _third_party_imports(source: str) -> list[str]:
    """The top-level packages that the source imports from neither the
    stdlib nor the package itself (relative imports)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_module_imports_beyond_the_stdlib_and_numpy(path):
    assert set(_third_party_imports(path.read_text())) <= _RUNTIME


def test_the_check_finds_third_party_imports():
    source = (
        "import math, os.path\nimport numpy as np\nfrom scipy.stats import norm\n"
        "from . import data\nfrom .errors import InvalidConfigError\nimport hypothesis.strategies\n"
    )
    assert _third_party_imports(source) == ["hypothesis", "numpy", "scipy"]


# The private names one module may take from a sibling: any from ``data``,
# which holds the shared container and output helpers, and the normal
# quantile that both the CLI and the study check alpha with.
_SHARED_PRIVATE = {("inference", "_z_crit")}


def _private_sibling_imports(source: str) -> list[str]:
    """The leading-underscore names, as ``module.name``, that the source
    imports from a sibling module (``.name`` or ``latescore.name``) other
    than ``data`` and outside ``_SHARED_PRIVATE``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("latescore."):
            module = node.module.removeprefix("latescore.")
        else:
            continue
        if module != "data":
            found.update(
                f"{module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and (module, alias.name) not in _SHARED_PRIVATE
            )
    return sorted(found)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_from_a_sibling_but_data(path):
    assert _private_sibling_imports(path.read_text()) == []


def test_the_check_finds_private_sibling_imports():
    source = (
        "from .data import _check_integer, SCAN_BLOCK\nfrom .inference import _z_crit, _dn_ratio\n"
        "from .weakiv import _LIMIT_BLOCK, WeakIVConfig\nfrom .simulation import _CELL_BLOCK as block\n"
        "from numpy import _private\nfrom latescore.simulation import _draw\nfrom latescore.data import _output\n"
    )
    assert _private_sibling_imports(source) == [
        "inference._dn_ratio", "simulation._CELL_BLOCK", "simulation._draw", "weakiv._LIMIT_BLOCK",
    ]
