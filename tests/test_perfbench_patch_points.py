"""The benchmark's tracer wraps library names it looks up by attribute when
it is imported, so a rename in `incgeom` must fail here rather than stop
every benchmark run before it measures anything."""

import importlib
import pathlib


def test_tracing_patch_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.leaked_wrappers() == []
