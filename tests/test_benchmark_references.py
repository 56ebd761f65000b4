"""One pass of each benchmark workload at the scale the benchmark measures,
checked against `perfbench/reference.json` as a benchmark run checks it, so
that a change which moves a pinned output fails here first.  perfbench is
imported read-only, as in `test_perfbench_patch_points.py`."""

import importlib
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [1, 2])
def test_workloads_match_the_pinned_references(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    errors = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make("full")
        inputs = wl.setup(seed, str(tmp_path), tracing.NULL)
        output = wl.run(inputs, 1, tracing.NULL)
        errors[name] = wl.check(inputs, output, workloads.reference_for(reference, wl, seed))
    assert errors == {name: [] for name in workloads.WORKLOADS}
