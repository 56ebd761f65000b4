"""The four benchmark workloads.

Each workload turns a seed into inputs (`setup`), runs one pass through
incgeom's public entry points (`run`), and checks a pass's output against
an oracle or a pinned reference (`check`).  `fingerprint` gives the values
a reference pins; `make_reference.py` records them.

Sizes.  `full` is what the benchmark measures.  It is smaller than the
paper-scale runs (d=3 sharp pair at delta=2^-7, 20,000 x 5,000 random
elements, 20 cover pairs at 2^-8) so that a run repeats each pass enough
times for a steady median in 28 seconds on two cores.  `toy` is for the
self-test and finishes in about a second.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import incgeom
from incgeom import cli, constructions, cover, family


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _seeds(seed, n):
    """`n` independent 32-bit seeds derived from the benchmark seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


class Workload:
    name = ""
    why = ""
    # (sample name, workers) of further timed calls that the untraced
    # passes of a traced run make, for per-layer metrics only.
    extra_calls = ()
    ops_per_pass = 1

    def __init__(self, scale):
        self.scale = scale

    def setup(self, seed, workdir, tracer):
        raise NotImplementedError

    def run(self, inputs, workers, tracer):
        raise NotImplementedError

    def check(self, inputs, output, ref):
        """Failure messages for one pass's output; empty when it is right."""
        raise NotImplementedError

    def fingerprint(self, inputs, output):
        raise NotImplementedError

    def harness_timings(self, output):
        return {}


class _Sharp(Workload):
    """The lifted sharp pair at s = t = 1.75 in d = 3; the seed is unused
    because the construction is deterministic."""

    DELTA = {"full": 2.0**-6, "toy": 2.0**-5}

    def setup(self, seed, workdir, tracer):
        spec = incgeom.ConstructionSpec(d=3, delta=self.DELTA[self.scale], s=1.75, t=1.75)
        with tracer.span("constructions.sharp"):
            points, planes = incgeom.construct_sharp(spec)
        return {"delta": spec.delta, "points": points, "planes": planes}


class SharpExperiment(_Sharp):
    name = "sharp-d3-experiment"
    why = ("The paper's headline experiment: run_experiment on the lifted "
           "sharp pair, where regularity profiles and the O(m^2) plane "
           "separation outweigh the count; it sets the peak memory")

    def run(self, inputs, workers, tracer):
        config = incgeom.ExperimentConfig(dim=3, delta=inputs["delta"], workers=workers)
        return incgeom.run_experiment(config)

    def fingerprint(self, inputs, report):
        return {
            "experiment_digest": digest(report.to_dict(include_timings=False)),
            "incidence_digest": digest(report.incidence.to_dict()),
        }

    def check(self, inputs, report, ref):
        got = self.fingerprint(inputs, report)
        return [f"{key} {got[key]} differs from the pinned {ref[key]}"
                for key in got if got[key] != ref[key]]

    def harness_timings(self, report):
        return report.timings


class SharpCount(_Sharp):
    name = "sharp-d3-count"
    why = ("count_incidences_fast alone on the same pair at workers=1 (a "
           "workers=2 count is per-layer only): no kd subtree is accepted "
           "wholesale, so every incidence comes from the leaf predicate")
    extra_calls = (("count_s.w2", 2),)

    def run(self, inputs, workers, tracer):
        return incgeom.count_incidences_fast(
            inputs["points"], inputs["planes"], inputs["delta"], workers=workers
        )

    def fingerprint(self, inputs, report):
        return {
            "points": len(inputs["points"]),
            "planes": len(inputs["planes"]),
            "count": report.count,
            "incidence_digest": digest(report.to_dict()),
        }

    def check(self, inputs, report, ref):
        got = self.fingerprint(inputs, report)
        errors = [f"{key} {got[key]} differs from the pinned {ref[key]}"
                  for key in got if got[key] != ref[key]]
        first = inputs.setdefault("first_report", report)
        if report != first:
            errors.append("reports differ between worker counts")
        return errors


class RandomCli(Workload):
    name = "random-d3-cli"
    why = ("Unstructured seeded families through the CLI: family read, full "
           "3-D regularity grids and non-lattice leaves; a lattice-specific "
           "counter change should show no gain here")

    SIZES = {"full": (2.0**-5, 5000, 1500), "toy": (2.0**-4, 200, 60)}

    def setup(self, seed, workdir, tracer):
        delta, n_points, n_planes = self.SIZES[self.scale]
        point_seed, plane_seed = _seeds(seed, 2)
        with tracer.span("constructions.random.points"):
            points = constructions.construct_random("points", 3, delta, n_points, point_seed)
        with tracer.span("constructions.random.planes"):
            planes = constructions.construct_random("hyperplanes", 3, delta, n_planes, plane_seed)
        paths = {k: os.path.join(workdir, f"random.{k}.txt") for k in ("points", "planes")}
        with tracer.span("family.write"):
            family.write_family(points, paths["points"])
            family.write_family(planes, paths["planes"])
        return {
            "delta": delta,
            "paths": paths,
            "out": os.path.join(workdir, "report.json"),
            "family_bytes": sum(os.path.getsize(p) for p in paths.values()),
        }

    def run(self, inputs, workers, tracer):
        argv = ["count", "--dim", "3", "--delta", repr(inputs["delta"]),
                "--points", inputs["paths"]["points"], "--planes", inputs["paths"]["planes"],
                "--workers", str(workers), "--out", inputs["out"]]
        with tracer.span("cli.main"):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"incgeom count exited with status {status}")
        with open(inputs["out"]) as fh:
            return json.load(fh)

    def oracle(self, inputs):
        """The oracle's incidence block on the same files, computed once."""
        if "oracle" not in inputs:
            points = family.read_family(inputs["paths"]["points"])
            planes = family.read_family(inputs["paths"]["planes"])
            report = incgeom.count_incidences_oracle(points, planes, inputs["delta"])
            inputs["oracle"] = json.loads(json.dumps(report.to_dict()))
        return inputs["oracle"]

    def fingerprint(self, inputs, out):
        return {
            "incidence_digest": digest(out["incidence"]),
            "families_digest": digest(out["families"]),
        }

    def check(self, inputs, out, ref):
        errors = []
        if out["incidence"] != self.oracle(inputs):
            errors.append("emitted incidence block differs from count_incidences_oracle")
        got = self.fingerprint(inputs, out)
        errors += [f"{key} {got[key]} differs from the pinned {ref[key]}"
                   for key in ref if got[key] != ref[key]]
        return errors

    def harness_timings(self, out):
        return out["timings"]


class SlabCover(Workload):
    name = "slab-cover"
    why = ("Seeded plane pairs box-covered, sampled and checked against "
           "shrunken covers: only the cover module runs, so cover build and "
           "verify changes show here alone")

    SIZES = {"full": (2.0**-7, 11), "toy": (2.0**-6, 2)}
    SAMPLES = 10_000
    CONTROL_SAMPLES = 2000

    def __init__(self, scale):
        super().__init__(scale)
        self.ops_per_pass = 3 * self.SIZES[scale][1]

    def setup(self, seed, workdir, tracer):
        """Plane pairs at affine distance in [4.5 delta, 0.11] through the
        unit ball, drawn as in the slab-cover acceptance check except that
        the slope gap alpha and the intercept offset b2 - b1 are stratified.

        verify_cover's rejection sampler slows sharply as the offset nears
        +-2 delta (one pair took 20x the others, at the edge of its sampling
        budget), so fully random pairs make the cost depend on the seed by
        up to 4x.  Each of the n pairs instead takes the centre of one of n
        strata of log(alpha) and of one of n strata of the offset range
        (-2 delta, 2 delta), so every seed has the same mix of alphas and of
        offsets, out to 0.91 of the offset limit.  The seed draws which
        offset stratum goes with which alpha stratum, each pair's
        direction, slopes and intercepts, and the sampling seed."""
        delta, n_pairs = self.SIZES[self.scale]
        pair_seed, sample_seed = _seeds(seed, 2)
        rng = np.random.default_rng(pair_seed)
        centres = (np.arange(n_pairs) + 0.5) / n_pairs
        offsets = 2 * delta * (2 * rng.permutation(centres) - 1)
        lo, hi = math.log(4.5 * delta), math.log(0.11)
        alphas = np.exp(lo + (hi - lo) * centres)
        pairs = []
        for alpha, offset in zip(alphas, offsets):
            theta = rng.uniform(0, 2 * math.pi)
            base = rng.uniform(-0.02, 0.02, size=2)
            slopes2 = base + alpha * np.array([math.cos(theta), math.sin(theta)])
            b1 = rng.uniform(-0.3, 0.3)
            pairs.append((np.append(base, b1), np.append(slopes2, b1 + offset)))
        return {"delta": delta, "pairs": pairs, "sample_seed": sample_seed}

    def run(self, inputs, workers, tracer):
        """Every pair in turn: build, verify, shrunken control."""
        delta, seed = inputs["delta"], inputs["sample_seed"]
        results = []
        for pi1, pi2 in inputs["pairs"]:
            with tracer.span("cover.build"):
                box_cover = cover.slab_intersection_cover(pi1, pi2, delta)
            tracer.add("cover.boxes", len(box_cover.boxes))
            with tracer.span("cover.verify"):
                report = cover.verify_cover(pi1, pi2, delta, box_cover, self.SAMPLES, seed)
            with tracer.span("cover.control"):
                control = cover.verify_cover(
                    pi1, pi2, delta, box_cover.scaled(0.25), self.CONTROL_SAMPLES, seed
                )
            results.append((len(box_cover.boxes), box_cover.w, report, control))
        return results

    def fingerprint(self, inputs, results):
        return {"pair_digests": [digest([n, w, report.to_dict(), control.miss_count])
                                 for n, w, report, control in results]}

    def check(self, inputs, results, ref):
        errors = []
        limit = 64 / inputs["delta"]
        for i, (n, w, report, control) in enumerate(results):
            if n > limit:
                errors.append(f"pair {i}: {n} boxes exceed 64/delta = {limit:g}")
            if report.fraction != 1.0 or report.obtained != self.SAMPLES:
                errors.append(f"pair {i}: coverage {report.fraction} from {report.obtained} samples")
            if control.miss_count == 0:
                errors.append(f"pair {i}: the shrunken control missed nothing")
        pinned = ref.get("pair_digests")
        if pinned is not None:
            got = self.fingerprint(inputs, results)["pair_digests"]
            errors += [f"pair {i}: output differs from the pinned digest"
                       for i, (a, b) in enumerate(zip(got, pinned)) if a != b]
            if len(got) != len(pinned):
                errors.append(f"{len(got)} pairs against {len(pinned)} pinned")
        return errors


WORKLOADS = {w.name: w for w in (SharpExperiment, SharpCount, RandomCli, SlabCover)}


def reference_for(reference, workload, seed):
    """The pinned values that apply to `workload` at `seed`: the scale's
    sharp reference for the sharp workloads, the recorded seed's outputs
    for the seeded ones (none when the seed was not recorded)."""
    scale = reference[workload.scale]
    if isinstance(workload, _Sharp):
        return scale["sharp"]
    return scale["seeds"].get(str(seed), {}).get(workload.name, {})
