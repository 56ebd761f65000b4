"""Record perfbench/reference.json, the values the benchmark pins.

    python3 perfbench/make_reference.py

For each scale: the sharp pair's sizes, count and incidence digest, taken
from `count_incidences_oracle` (the fast counter and `run_experiment` must
agree with it before anything is pinned), the digest of the sharp
experiment report, and the outputs of the seeded workloads at two seeds
(every cover pair), each first passing the workload's own oracle checks.
Rerun only when a change is meant to alter these outputs, and say so in
the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

SEEDS = (1, 2)


def sharp_reference(scale):
    import incgeom
    from tracing import NULL
    from workloads import SharpCount, SharpExperiment

    count = SharpCount(scale)
    inputs = count.setup(0, None, NULL)
    oracle = incgeom.count_incidences_oracle(inputs["points"], inputs["planes"], inputs["delta"])
    if count.run(inputs, 1, NULL) != oracle:
        raise SystemExit(f"{scale}: count_incidences_fast disagrees with the oracle")
    experiment = SharpExperiment(scale)
    report = experiment.run(inputs, 1, NULL)
    if report.incidence != oracle:
        raise SystemExit(f"{scale}: run_experiment's count disagrees with the oracle")
    return {**count.fingerprint(inputs, oracle), **experiment.fingerprint(inputs, report)}


def _checked_pass(wl, inputs, label):
    from tracing import NULL

    output = wl.run(inputs, 1, NULL)
    errors = wl.check(inputs, output, {})
    if errors:
        raise SystemExit(f"{label} {wl.name}: {errors}")
    return wl.fingerprint(inputs, output)


def seeded_reference(scale, seed, workdir):
    from tracing import NULL
    from workloads import RandomCli, SlabCover

    label = f"{scale} seed {seed}"
    cli_wl, cover_wl = RandomCli(scale), SlabCover(scale)
    inputs = cli_wl.setup(seed, workdir, NULL)
    out = {cli_wl.name: _checked_pass(cli_wl, inputs, label)}
    inputs = cover_wl.setup(seed, workdir, NULL)
    out[cover_wl.name] = _checked_pass(cover_wl, inputs, label)
    return out


def main():
    run._import_library()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        reference = {
            scale: {
                "sharp": sharp_reference(scale),
                "seeds": {str(s): seeded_reference(scale, s, workdir) for s in SEEDS},
            }
            for scale in ("full", "toy")
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
