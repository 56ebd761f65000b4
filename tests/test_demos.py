"""Smoke test: every script in demos/ runs to completion and prints.

The demos use public names (`ConstructionSpec(...)`, `Family.meta`,
`use_affine_metric=True`, `best_dimension`, ...); running them in-process
keeps those names from being removed or renamed unnoticed."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
