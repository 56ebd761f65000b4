"""No incgeom module reaches into another's private names: a helper that
two modules share gets a public name in one home."""

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
