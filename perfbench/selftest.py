"""Self-test of the benchmark at toy sizes; finishes in seconds.

    python3 perfbench/selftest.py

Checks three things on every workload:
  * each metric BENCHMARK.json names is emitted, with its unit, and no
    other (end-to-end metrics untraced, per-layer metrics traced);
  * a deliberately wrong reference drives the fail rate above 0;
  * timed passes run the library's own functions: a traced run puts every
    original back, and a wrapper left in place fails the run.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

SEED, SECONDS = 1, 0.3


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def emitted_metrics(bench, names):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in names:
            result, record = run.run_workload(name, SEED, SECONDS, trace, "toy")
            expect(result["correct"], f"{name} trace={trace}: {record['failures']}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: emitted {got}, expected {want}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{name} trace={trace}: non-numeric metric value")
        print(f"ok  trace={trace}: all {len(want)} {key} metrics on {len(names)} workloads")


def wrong_reference_fails(workdir):
    with open(run.HERE / "reference.json") as fh:
        reference = json.load(fh)
    reference["toy"]["sharp"]["count"] += 1
    reference["toy"]["sharp"]["experiment_digest"] = "0" * 64
    for pinned in reference["toy"]["seeds"][str(SEED)].values():
        for key, value in pinned.items():
            pinned[key] = "0" * 64 if isinstance(value, str) else ["0" * 64] * len(value)
    path = f"{workdir}/wrong-reference.json"
    with open(path, "w") as fh:
        json.dump(reference, fh)
    for name in ("sharp-d3-experiment", "sharp-d3-count", "random-d3-cli", "slab-cover"):
        result, record = run.run_workload(name, SEED, SECONDS, 0, "toy", path)
        expect(not result["correct"] and record["fail_rate"] > 0,
               f"{name}: a wrong reference gave fail_rate {record['fail_rate']}")
    print("ok  a wrong reference fails every workload")


def timed_runs_unwrapped():
    import tracing
    from incgeom import harness

    run.run_workload("sharp-d3-experiment", SEED, SECONDS, 1, "toy")
    expect(tracing.leaked_wrappers() == [], f"left wrapped: {tracing.leaked_wrappers()}")
    original = harness.min_separation
    harness.min_separation = lambda fam: original(fam)
    try:
        result, record = run.run_workload("sharp-d3-experiment", SEED, SECONDS, 0, "toy")
    finally:
        harness.min_separation = original
    expect(not result["correct"] and any("wrapper" in m for m in record["failures"]),
           "a wrapper left in place during timed passes went unnoticed")
    print("ok  timed passes run unwrapped, and a leftover wrapper fails the run")


def main():
    run._import_library()
    sys.path.insert(0, str(run.HERE))
    from workloads import WORKLOADS

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from the runner's")
    expect(all(w["why"] == WORKLOADS[w["name"]].why for w in bench["workloads"]),
           "BENCHMARK.json reasons differ from the runner's")
    emitted_metrics(bench, list(WORKLOADS))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        wrong_reference_fails(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed_runs_unwrapped()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
