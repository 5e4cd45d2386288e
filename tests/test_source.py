"""Static checks on the package source, where no linter runs."""

import ast
from pathlib import Path

import pytest

import latescore

_MODULES = sorted(p for p in Path(latescore.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


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
