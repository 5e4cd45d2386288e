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


# State that every thread of the process shares: the umask, the working
# directory, the warning filters and numpy's floating-point error mode
# (np.errstate, which is per context, is the way to set that one).
_PROCESS_WIDE = {
    "os.umask", "os.chdir", "warnings.catch_warnings", "warnings.simplefilter",
    "warnings.filterwarnings", "warnings.resetwarnings", "numpy.seterr",
}


def _process_wide_names(source: str) -> list[str]:
    """The names of ``_PROCESS_WIDE`` that the source reads, resolved
    through its absolute imports, so ``np.seterr`` and ``from os import
    umask as u`` count."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                imported[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in imported:
            name = ".".join([imported[node.id], *reversed(attrs)])
            if name in _PROCESS_WIDE:
                found.add(name)
    return sorted(found)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_module_changes_process_wide_state(path):
    assert _process_wide_names(path.read_text()) == []


def test_the_check_finds_process_wide_state():
    source = (
        "import os, os.path\nimport warnings as w\nimport numpy as np\nfrom os import chdir as cd\n"
        "from numpy import seterr\nos.umask(0)\nwith w.catch_warnings():\n    w.simplefilter('error')\n"
        "w.filterwarnings('ignore')\nw.resetwarnings()\ncd('/')\nseterr(all='ignore')\nnp.seterr(over='raise')\n"
        "with np.errstate(over='ignore'):\n    os.path.join(os.getcwd(), 'a')\nw.warn('kept', stacklevel=2)\n"
    )
    assert _process_wide_names(source) == sorted(_PROCESS_WIDE)


# The steps of the one path from data to the score set, simulation.score_set.
# compute_scores is not among them: oracle_cell_values scores the 24 cells
# with the true nuisances, and no folds or fits.
_PATH_STEPS = {"make_folds", "cross_fit", "quad_coefficients", "invert_score_test"}


def _path_step_calls(source: str) -> list[str]:
    """``function: step`` for each call to a ``_PATH_STEPS`` function, by its
    own name, by an import alias or as an attribute, where ``function`` is
    the innermost function that makes it (``<module>`` at top level)."""
    tree = ast.parse(source)
    steps = {step: step for step in _PATH_STEPS}
    steps.update(
        (alias.asname or alias.name, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in _PATH_STEPS
    )
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in steps:
                found.add(f"{where}: {steps[node.func.id]}")
            elif isinstance(node.func, ast.Attribute) and node.func.attr in _PATH_STEPS:
                found.add(f"{where}: {node.func.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sorted(found)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_only_score_set_runs_the_steps_of_the_path(path):
    allowed = {f"score_set: {step}" for step in _PATH_STEPS} if path.name == "simulation.py" else set()
    assert set(_path_step_calls(path.read_text())) <= allowed


def test_the_check_finds_calls_to_the_steps_of_the_path():
    source = (
        "from .inference import invert_score_test as invert, quad_coefficients\nfrom . import nuisance\n"
        "def fit(data, spec, seed):\n    return nuisance.cross_fit(data, spec, make_folds(data.n, spec.K, seed))\n"
        "def test(scores):\n    def inner(c):\n        return invert(c)\n"
        "    return inner(quad_coefficients(scores, 0.05))\n"
        "cset = invert_score_test\nfolds = make_folds(10, 2, 0)\ncompute_scores(data, preds)\n"
    )
    assert _path_step_calls(source) == [
        "<module>: make_folds", "fit: cross_fit", "fit: make_folds", "inner: invert_score_test",
        "test: quad_coefficients",
    ]
