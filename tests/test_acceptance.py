"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS/FAIL line to the real
terminal (bypassing capture) with the measured quantity, so a full run reads
as a scorecard.  Tolerances are intervals around the expected constants,
not equalities: the quantities are ratios of counting functions and move
with the construction details.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from incgeom import incidence
from incgeom.bounds import (comparison_range, cs_bound_exponent, dov_bound,
                            thm2d_exponent)
from incgeom.constructions import (ConstructionSpec, construct_grid,
                                   construct_random, construct_sharp,
                                   construct_sharp_2d, lift_to_dim)
from incgeom.cover import slab_intersection_cover, verify_cover
from incgeom.family import Family
from incgeom.geometry import (affine_metric, dual_point,
                              phong_stein_determinant, unit_normal_norms)
from incgeom.incidence import (annulus_growth_check, annulus_partition,
                               count_incidences_fast, count_incidences_oracle)
from incgeom.regularity import best_dimension, regularity_constant


@pytest.fixture
def announce(capsys):
    def _announce(label, ok, detail):
        with capsys.disabled():
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return _announce


# sha256 of the sorted-key JSON of `count_incidences_oracle`'s report on the
# d = 2, delta = 2^-8 sharp pair, recorded once from the oracle (about 7 s)
PLANAR_ORACLE_DIGEST = "ae4535dd37802873206b6b4df87736152da26327b90bac5de92e2436dac9f5a3"


def test_01_sharpness_planar(announce):
    """The fast count's report is the oracle's, bit for bit, so its ratio
    is the oracle's ratio."""
    delta = 2.0**-8
    P, L = construct_sharp_2d(1.75, 1.75, delta)
    report = count_incidences_fast(P, L, delta)
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    ratio = report.ratio
    ok = digest == PLANAR_ORACLE_DIGEST and 1.0 / 16.0 <= ratio <= 16.0
    announce("01 planar sharpness", ok, f"ratio={ratio:.4f}, |P|={len(P)}, |L|={len(L)}, "
             f"oracle digest {'matches' if digest == PLANAR_ORACLE_DIGEST else 'DIFFERS'}")
    assert ok


# the same for the d = 3 sharp pair at delta = 2^-k, by k: the oracle took
# 47 s at 2^-7 (22,626,825 incidences) and 888 s at 2^-8 (335,856,273)
LIFTED_ORACLE_DIGESTS = {
    7: "6a00dacdd5b5cbd9299be6af15caad6b527151259e2ce6429824510fe45f6be4",
    8: "a7bb86b5b5213a6b909b2cafe245c4d76ed5ec349e393c4f157ccca4264c9624",
}


@pytest.mark.parametrize("k", sorted(LIFTED_ORACLE_DIGESTS))
def test_lifted_fast_count_is_the_oracles(k, announce):
    """At paper scale the fast count's report is the one the oracle
    recorded, bit for bit."""
    P, L = construct_sharp(ConstructionSpec(d=3, delta=2.0**-k, s=1.75, t=1.75))
    report = count_incidences_fast(P, L, 2.0**-k)
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    ok = digest == LIFTED_ORACLE_DIGESTS[k]
    announce(f"lifted oracle digest 2^-{k}", ok, f"I={report.count}, |P|={len(P)}, |Pi|={len(L)}")
    assert ok


def test_02_sharpness_lifted(announce):
    delta = 2.0**-6
    P2, L2 = construct_sharp_2d(1.75, 1.75, delta)
    P3, L3 = lift_to_dim(P2, L2, 3)
    layers = math.floor(1.0 / (2.0 * delta)) + 1
    ratio = count_incidences_oracle(P3, L3, delta).ratio
    ok = (
        1.0 / 32.0 <= ratio <= 32.0
        and len(L3) == len(L2)
        and len(P3) == len(P2) * layers
    )
    announce(
        "02 lifted sharpness", ok,
        f"ratio={ratio:.4f}, |P|={len(P3)}={len(P2)}*{layers}, |Pi|={len(L3)}",
    )
    assert ok


def test_03_ratio_sweep(announce, monkeypatch):
    monkeypatch.setattr(incidence, "LEAF_SIZE", 128)
    ratios = []
    for k in (5, 6, 7, 8):
        delta = 2.0**-k
        P3, L3 = construct_sharp(ConstructionSpec(d=3, delta=delta, s=1.75, t=1.75))
        rep = count_incidences_fast(P3, L3, delta, workers=1)
        ratios.append(rep.ratio)
    spread = max(ratios) / min(ratios)
    ok = max(ratios) <= 64.0 and spread <= 16.0
    shown = ", ".join(f"{r:.3f}" for r in ratios)
    announce("03 boundedness sweep", ok, f"ratios=[{shown}], spread={spread:.3f}")
    assert ok


def test_04_counter_equivalence(announce):
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        n_pts = int(rng.integers(50, 501))
        n_pls = int(rng.integers(50, 501))
        pts = construct_random("points", d, 0.03, n_pts, seed=1000 + i)
        pls = construct_random("hyperplanes", d, 0.03, n_pls, seed=2000 + i)
        cdelta = float(rng.uniform(0.02, 0.2))
        for mode in ("euclidean", "psi"):
            oracle = count_incidences_oracle(pts, pls, cdelta, mode=mode)
            for workers in (1, 2, 8):
                fast = count_incidences_fast(
                    pts, pls, cdelta, mode=mode, workers=workers
                )
                ok = ok and fast == oracle
                checked += 1
    announce("04 oracle equivalence", ok, f"{checked} fast/oracle comparisons")
    assert ok


def test_05_duality(announce):
    rng = np.random.default_rng(55)
    bound = 1.0 / math.sqrt(5.0)
    worst = math.inf
    for d in (2, 3, 4):
        slopes = rng.uniform(-1, 1, size=(2, 3400, d - 1))
        norms = np.sqrt(np.sum(slopes**2, axis=-1) + 1.0)
        icpts = rng.uniform(-1, 1, size=(2, 3400)) * norms
        pi1 = np.concatenate([slopes[0], icpts[0][:, None]], axis=1)
        pi2 = np.concatenate([slopes[1], icpts[1][:, None]], axis=1)
        da = affine_metric(pi1, pi2)
        euclid = np.linalg.norm(dual_point(pi1) - dual_point(pi2), axis=1)
        worst = min(worst, float(np.min(euclid / da)))
    pair_ok = worst >= bound - 1e-9

    _, lines = construct_sharp_2d(1.75, 1.75, 2.0**-6)
    duals = Family(
        kind="points",
        elements=np.array(lines.elements, copy=True),
        delta=2.0**-6,
        dim=2,
    )
    c_lines = regularity_constant(lines, 1.75).c_star
    c_duals = regularity_constant(duals, 1.75).c_star
    set_ok = c_duals <= 20.0 * c_lines
    ok = pair_ok and set_ok
    announce(
        "05 duality", ok,
        f"min euclid/d_A={worst:.4f} vs 1/sqrt5={bound:.4f}; "
        f"dual c*={c_duals:.3f} <= 20*{c_lines:.3f}",
    )
    assert ok


def test_06_rotational_curvature(announce):
    rng = np.random.default_rng(66)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(100):
            x = rng.uniform(-1, 1, size=d)
            a = rng.uniform(-1, 1, size=d)
            worst = max(worst, abs(abs(phong_stein_determinant(x, a)) - 1.0))
    ok = worst <= 1e-9
    announce("06 rotational curvature", ok, f"max | |det|-1 | = {worst:.2e}")
    assert ok


def test_07_slab_cover(announce):
    delta = 2.0**-8
    rng = np.random.default_rng(7)
    ok = True
    max_boxes = 0
    for _ in range(20):
        alpha = math.exp(rng.uniform(math.log(4.5 * delta), math.log(0.11)))
        theta = rng.uniform(0, 2 * math.pi)
        base = rng.uniform(-0.02, 0.02, size=2)
        s2 = base + alpha * np.array([math.cos(theta), math.sin(theta)])
        b1 = rng.uniform(-0.3, 0.3)
        b2 = b1 + rng.uniform(-2 * delta, 2 * delta)
        pi1 = np.append(base, b1)
        pi2 = np.append(s2, b2)
        cover = slab_intersection_cover(pi1, pi2, delta)
        report = verify_cover(pi1, pi2, delta, cover, n_samples=10_000, seed=70)
        control = verify_cover(
            pi1, pi2, delta, cover.scaled(0.25), n_samples=2000, seed=70
        )
        max_boxes = max(max_boxes, len(cover.boxes))
        ok = ok and (
            4 * delta <= cover.w <= 2.0**-3
            and report.fraction == 1.0
            and report.obtained == 10_000
            and len(cover.boxes) <= 64 / delta
            and control.miss_count > 0
        )
    announce(
        "07 slab intersection cover", ok,
        f"20 pairs, coverage 1.0 at 1e4 samples, max boxes {max_boxes} <= {int(64 / delta)}",
    )
    assert ok


def test_08_regularity_calibration(announce):
    delta = 2.0**-6
    grid_cs = []
    for d in (2, 3):
        grid = construct_grid(d, delta, (delta,) * d)
        grid_cs.append(regularity_constant(grid, float(d)).c_star)
    grids_ok = all(c <= 4.0**d for c, d in zip(grid_cs, (2, 3)))

    dseg = 2.0**-10
    xs = np.arange(1025) * dseg
    segment = Family(
        kind="points",
        elements=np.column_stack([xs, np.zeros(xs.size)]),
        delta=dseg,
        dim=2,
    )
    seg_c = regularity_constant(segment, 2.0).c_star
    seg_ok = seg_c >= (1.0 / dseg) / 4.0
    bd = best_dimension(segment, 4)
    bd_ok = 0.9 <= bd <= 1.1
    ok = grids_ok and seg_ok and bd_ok
    announce(
        "08 regularity calibration", ok,
        f"grid c*={grid_cs[0]:.2f},{grid_cs[1]:.2f}; segment c*(2)={seg_c:.0f}; "
        f"best_dimension={bd:.3f}",
    )
    assert ok


def test_09_bound_evaluators(announce):
    at_one = cs_bound_exponent(1.5, 1.0, 3).delta_exponent
    near_one = cs_bound_exponent(1.5, 1.0 - 1e-13, 3).delta_exponent
    checks = [
        at_one == 0.5 * (1.5 - 3 + 2),
        abs(near_one - at_one) <= 1e-12,
        thm2d_exponent(1.0, 1.0).delta_exponent == 0.5,
        thm2d_exponent(2.0, 2.0).delta_exponent == 1.0,
        abs(dov_bound(0.01, 2.0, 3, 10, 10).plane_count_exponent - 2.0 / 3.0) < 1e-12,
        comparison_range(1.5, 1.0, 3).nonempty,
    ]
    ok = all(checks)
    announce("09 bound evaluators", ok, f"{sum(checks)}/6 identities hold")
    assert ok


def test_10_annulus_decomposition(announce):
    delta = 2.0**-6
    _, L3 = construct_sharp(ConstructionSpec(d=3, delta=delta, s=1.75, t=1.75))
    center = L3.elements[len(L3) // 2]
    part = annulus_partition(L3, center)
    indices = np.concatenate([np.asarray(v) for v in part.buckets.values()])
    partition_ok = (
        indices.size == len(L3) - 1 and np.unique(indices).size == indices.size
    )
    K, _ = annulus_growth_check(L3, center, 1.75)
    c_star = regularity_constant(L3, 1.75).c_star
    growth_ok = K <= 10.0 * c_star
    ok = partition_ok and growth_ok
    announce(
        "10 annulus decomposition", ok,
        f"buckets cover {indices.size}/{len(L3) - 1}, K={K:.4f} <= 10*{c_star:.4f}",
    )
    assert ok
