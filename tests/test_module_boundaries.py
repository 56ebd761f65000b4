"""No incgeom module reaches into another's private names: a helper that
two modules share gets a public name in one home.  No module imports a
name it never uses, rows are deduplicated in one place, and each input
rule with a shared message is written once."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "incgeom"


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "incgeom":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield f"{path.name}:{node.lineno}: {alias.name}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert list(_private_imports(path)) == []


def test_the_check_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from ._version import __version__\nfrom .incidence import _BATCH_CAP\n")
    assert list(_private_imports(bad)) == ["bad.py:2: _BATCH_CAP"]


def _row_uniques(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and any(k.arg == "axis" for k in node.keywords)):
            yield f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_distinct_rows_have_one_implementation(path):
    # geometry.distinct_rows is the one row-dedup; np.unique(axis=...) is not
    assert list(_row_uniques(path)) == []


def test_the_check_sees_a_row_unique(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nnp.unique(x)\nnp.unique(x, axis=0, return_index=True)\n")
    assert list(_row_uniques(bad)) == ["bad.py:3"]


def _rule_strings(paths, phrase):
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and phrase in node.value):
                yield f"{path.name}:{node.lineno}"


# family.require_delta, geometry.require_mode, family.require_kind, the
# int64 cell floor, regularity._floor_cells, geometry.require_positive (C,
# cdelta and rho) and family.require_exponent, whose message is one
# str.format template: "must lie in [0, " alone is also bounds' planar rule
RULES = ("delta must lie in (0, 1)", "unknown mode", "unknown family kind",
         "cell index overflows int64", " must be positive, got ", "must lie in [0, {}]")


@pytest.mark.parametrize("phrase", RULES)
def test_each_input_rule_has_one_implementation(phrase):
    assert len(list(_rule_strings(sorted(SRC.glob("*.py")), phrase))) == 1


def test_the_check_sees_a_second_rule(tmp_path):
    one = tmp_path / "one.py"
    one.write_text('def f(mode):\n    raise ValueError(f"unknown mode {mode!r}")\n')
    two = tmp_path / "two.py"
    two.write_text('def g(delta):\n    if not 0 < delta < 1:\n'
                   '        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")\n'
                   'MESSAGE = "unknown mode"\n')
    assert list(_rule_strings([one, two], RULES[0])) == ["two.py:3"]
    assert list(_rule_strings([one, two], RULES[1])) == ["one.py:2", "two.py:4"]


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    for name, lineno in imported.items():
        if name not in used and (path.name, name) not in _KEPT_IMPORTS:
            yield f"{path.name}:{lineno}: {name}"


# perfbench/tracing.py patches this name, so it stays although unused
_KEPT_IMPORTS = {("regularity.py", "fftconvolve")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert list(_unused_imports(path)) == []


def test_the_check_sees_an_unused_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                   "from .geometry import MODES, fold_dot\n__all__ = ['MODES']\n"
                   "from scipy.signal import fftconvolve\ndef f(x: np.ndarray):\n    return x\n")
    assert list(_unused_imports(bad)) == ["bad.py:2: os", "bad.py:4: fold_dot",
                                          "bad.py:6: fftconvolve"]
    kept = tmp_path / "regularity.py"
    kept.write_text("from scipy.signal import fftconvolve\n")
    assert list(_unused_imports(kept)) == []
