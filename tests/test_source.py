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
