import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeom import incidence
from incgeom.constructions import construct_grid, construct_random, construct_sharp_2d
from incgeom.family import Family
from incgeom.geometry import fold_dot, incidence_mask, slab_offsets, unit_normal_norms
from incgeom.incidence import (annulus_growth_check, annulus_partition,
                               count_incidences_fast, count_incidences_oracle)

DELTA = 2.0**-6


def loop_count(points, planes, cdelta, mode):
    """Scalar reference count, no vectorization anywhere."""
    total = 0
    d = points.shape[1] if len(points) else 2
    for p in points:
        for pi in planes:
            psi = sum(float(pi[i]) * float(p[i]) for i in range(d - 1))
            psi += -float(p[d - 1]) + float(pi[d - 1])
            if mode == "euclidean":
                norm = math.sqrt(sum(float(pi[i]) ** 2 for i in range(d - 1)) + 1.0)
                hit = abs(psi) <= cdelta * norm
            else:
                hit = abs(psi) <= cdelta
            total += hit
    return total


@pytest.fixture(scope="module")
def sharp_pair():
    return construct_sharp_2d(1.75, 1.75, DELTA)


class TestOracle:
    def test_pinned_sharp_counts(self, sharp_pair):
        P, L = sharp_pair
        assert (len(P), len(L)) == (1105, 2193)
        r_euc = count_incidences_oracle(P, L, DELTA, mode="euclidean")
        r_psi = count_incidences_oracle(P, L, DELTA, mode="psi")
        assert r_euc.count == 49041
        assert r_psi.count == 48001
        assert r_euc.ratio == pytest.approx(1.2952046103088188, rel=1e-12)

    def test_matches_scalar_loop(self):
        pts = construct_random("points", 2, 0.05, 40, seed=2)
        pls = construct_random("hyperplanes", 2, 0.05, 30, seed=5)
        for mode in ("euclidean", "psi"):
            want = loop_count(pts.elements, pls.elements, 0.11, mode)
            assert count_incidences_oracle(pts, pls, 0.11, mode=mode).count == want

    def test_matches_scalar_loop_3d(self):
        pts = construct_random("points", 3, 0.08, 25, seed=7)
        pls = construct_random("hyperplanes", 3, 0.08, 20, seed=8)
        want = loop_count(pts.elements, pls.elements, 0.1, "euclidean")
        assert count_incidences_oracle(pts, pls, 0.1).count == want

    def test_histogram_mass_equals_count(self, sharp_pair):
        P, L = sharp_pair
        r = count_incidences_oracle(P, L, DELTA)
        assert sum(v * m for v, m in r.per_plane) == r.count
        assert sum(v * m for v, m in r.per_point) == r.count

    def test_worker_independence(self):
        pts = construct_random("points", 2, 0.05, 60, seed=0)
        pls = construct_random("hyperplanes", 2, 0.05, 50, seed=1)
        base = count_incidences_oracle(pts, pls, 0.07)
        for workers in (2, 5):
            assert count_incidences_oracle(pts, pls, 0.07, workers=workers) == base

    def test_thread_count_is_bounded(self, monkeypatch):
        monkeypatch.setattr(incidence.os, "cpu_count", lambda: 4)
        assert incidence._thread_count(10_000, 8481) == 4
        assert incidence._thread_count(10_000, 3) == 3
        assert incidence._thread_count(2, 8481) == 2
        assert incidence._thread_count(0, 8481) == 1
        monkeypatch.setattr(incidence.os, "cpu_count", lambda: None)
        assert incidence._thread_count(10_000, 8481) == 1

    def test_empty_families(self):
        no_pts = Family(kind="points", elements=np.empty((0, 2)), delta=DELTA, dim=2)
        one_pl = Family(kind="hyperplanes", elements=np.zeros((1, 2)), delta=DELTA, dim=2)
        r = count_incidences_oracle(no_pts, one_pl, DELTA)
        assert r.count == 0 and r.ratio == 0.0 and r.per_point == ()

    def test_input_validation(self):
        pts = Family(kind="points", elements=np.zeros((1, 2)), delta=DELTA, dim=2)
        pls3 = Family(kind="hyperplanes", elements=np.zeros((1, 3)), delta=DELTA, dim=3)
        with pytest.raises(ValueError, match="dim"):
            count_incidences_oracle(pts, pls3, DELTA)
        with pytest.raises(ValueError, match="points"):
            count_incidences_oracle(pls3, pls3, DELTA)
        pls = Family(kind="hyperplanes", elements=np.zeros((1, 2)), delta=DELTA, dim=2)
        with pytest.raises(ValueError, match="cdelta"):
            count_incidences_oracle(pts, pls, 0.0)

    def test_unknown_mode_refused_by_both_counters(self):
        """Refused before any counting: the pair whose plane rejects every
        leaf, and empty families, never reach the predicate's own check."""
        pts = construct_random("points", 2, 0.05, 40, seed=1)
        far = Family(kind="hyperplanes", elements=np.array([[0.0, -0.9]]), delta=0.05, dim=2)
        no_pts = Family(kind="points", elements=np.empty((0, 2)), delta=0.05, dim=2)
        no_pls = Family(kind="hyperplanes", elements=np.empty((0, 2)), delta=0.05, dim=2)
        assert count_incidences_fast(pts, far, 0.01).count == 0
        for counter, fams in itertools.product(
                (count_incidences_oracle, count_incidences_fast),
                ((pts, far), (pts, no_pls), (no_pts, far))):
            with pytest.raises(ValueError, match="unknown mode 'bogus'"):
                counter(*fams, 0.01, mode="bogus")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_refused_by_both_counters(self, bad):
        pts = Family(kind="points", elements=np.array([[0.1, 0.2], [bad, 0.3]]),
                     delta=DELTA, dim=2)
        pls = Family(kind="hyperplanes", elements=np.zeros((1, 2)), delta=DELTA, dim=2)
        for counter in (count_incidences_oracle, count_incidences_fast):
            with pytest.raises(ValueError, match="finite"):
                counter(pts, pls, DELTA)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2])
    @pytest.mark.parametrize("size", [10, incidence.SWEEP_MIN_CLASS])
    def test_non_finite_planes_refused_by_both_counters(self, bad, column, size):
        """An infinite slope gives the fast counter an infinite threshold
        cdelta |u| that accepts every leaf, while the oracle's inf/inf is
        NaN; both counters refuse such planes, on the kd path and swept."""
        rng = np.random.default_rng(size)
        pts = Family(kind="points", elements=rng.random((200, 3)), delta=DELTA, dim=3)
        slopes = rng.uniform(-1, 1, (size, 2))
        if size >= incidence.SWEEP_MIN_CLASS:
            slopes[:] = slopes[0]  # one swept parallel class
        coeffs = np.column_stack([slopes, rng.random(size)])
        coeffs[size // 2, column] = bad
        pls = Family(kind="hyperplanes", elements=coeffs, delta=DELTA, dim=3)
        for counter in (count_incidences_oracle, count_incidences_fast):
            with pytest.raises(ValueError, match="finite"):
                counter(pts, pls, 0.1)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "2", None])
    def test_workers_must_be_a_positive_integer(self, bad):
        pts = construct_random("points", 2, 0.05, 10, seed=1)
        pls = construct_random("hyperplanes", 2, 0.05, 5, seed=2)
        no_pts = Family(kind="points", elements=np.empty((0, 2)), delta=0.05, dim=2)
        for counter, fam in itertools.product(
                (count_incidences_oracle, count_incidences_fast), (pts, no_pts)):
            with pytest.raises(ValueError, match="workers"):
                counter(fam, pls, 0.1, workers=bad)
        assert count_incidences_fast(pts, pls, 0.1, workers=np.int64(2)) == \
            count_incidences_oracle(pts, pls, 0.1, workers=np.int64(2))

    def test_monotone_in_cdelta(self):
        pts = construct_random("points", 2, 0.05, 50, seed=11)
        pls = construct_random("hyperplanes", 2, 0.05, 40, seed=12)
        counts = [
            count_incidences_oracle(pts, pls, c).count
            for c in (0.01, 0.03, 0.09, 0.27)
        ]
        assert counts == sorted(counts)


class TestFastCounter:
    def test_equals_oracle_on_sharp_pair(self, sharp_pair):
        P, L = sharp_pair
        for mode in ("euclidean", "psi"):
            oracle = count_incidences_oracle(P, L, DELTA, mode=mode)
            fast = count_incidences_fast(P, L, DELTA, mode=mode)
            assert fast == oracle

    @given(
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(["euclidean", "psi"]),
        leaf_size=st.sampled_from([2, 8, 64]),
        workers=st.sampled_from([1, 3]),
        cdelta=st.floats(0.01, 0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_bit_for_bit(self, seed, mode, leaf_size, workers, cdelta):
        pts = construct_random("points", 2, 0.05, 35, seed=seed)
        pls = construct_random("hyperplanes", 2, 0.05, 25, seed=seed + 1)
        oracle = count_incidences_oracle(pts, pls, cdelta, mode=mode)
        fast = count_incidences_fast(
            pts, pls, cdelta, mode=mode, workers=workers, leaf_size=leaf_size
        )
        assert fast == oracle

    def test_chunkings_beyond_the_cpu_count_agree(self, monkeypatch):
        """With the CPU count raised, workers 2..5 really split the planes
        into 2..5 chunks; every split gives the oracle's report."""
        monkeypatch.setattr(incidence.os, "cpu_count", lambda: 8)
        pts = construct_random("points", 2, 0.05, 60, seed=4)
        pls = construct_random("hyperplanes", 2, 0.05, 50, seed=5)
        oracle = count_incidences_oracle(pts, pls, 0.07)
        for workers in (1, 2, 3, 5):
            assert count_incidences_fast(pts, pls, 0.07, workers=workers, leaf_size=8) == oracle

    def test_equals_oracle_3d(self):
        pts = construct_random("points", 3, 0.08, 80, seed=21)
        pls = construct_random("hyperplanes", 3, 0.08, 60, seed=22)
        for leaf_size in (4, 64):
            assert count_incidences_fast(
                pts, pls, 0.1, leaf_size=leaf_size
            ) == count_incidences_oracle(pts, pls, 0.1)

    def test_thresholds_near_boundary(self):
        # slab edges exactly on grid points: classification must defer to
        # the predicate instead of rounding either way
        xs = np.arange(16) * DELTA
        pts = Family(
            kind="points",
            elements=np.column_stack([np.repeat(xs, 16), np.tile(xs, 16)]),
            delta=DELTA,
            dim=2,
        )
        pls = Family(
            kind="hyperplanes",
            elements=np.array([[0.0, k * DELTA] for k in range(-4, 5)]),
            delta=DELTA,
            dim=2,
        )
        for c in (DELTA, 2 * DELTA, 3.5 * DELTA):
            assert count_incidences_fast(pts, pls, c) == count_incidences_oracle(pts, pls, c)

    def test_rounding_edge_pairs(self):
        """Offsets one to three ulps beyond cdelta |u|, where the rounded
        predicate |psi| / |u| <= cdelta disagrees with |psi| <= cdelta |u|:
        only the classification margin sends these pairs to the predicate."""
        rng = np.random.default_rng(7)
        pts, pls, _ = _rounding_edge_pair(rng.uniform(-1, 1, (200, 2)), rng, 0.07)
        assert len(pts) >= 20
        oracle = count_incidences_oracle(pts, pls, 0.07)
        for leaf_size in (1, 2, 8, 64):
            assert count_incidences_fast(pts, pls, 0.07, leaf_size=leaf_size) == oracle

    @pytest.mark.parametrize("mode", ["euclidean", "psi"])
    def test_accept_margin_at_the_box_edge(self, mode):
        """Two-point leaves whose box meets |psi(centre)| + spread <= thr
        in floating point although the oracle rejects one of the points:
        such a leaf always reaches the predicate, which counts only the
        point it accepts."""
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(5000):
            p = rng.uniform(-0.5, 0.5, 3)
            pts = np.stack([p, p + rng.uniform(-0.05, 0.05, 3)])
            cdelta = rng.uniform(0.01, 0.2)
            slopes = rng.uniform(-1, 1, 2)
            tree = incidence._PointTree(pts, 2)
            assert tree.lo.size == 1
            center, halves = tree.centers[0], tree.halves[0]
            spread = fold_dot(np.abs(slopes), halves[:-1]) + halves[-1]
            flat = np.append(slopes, 0.0)
            thr = cdelta * unit_normal_norms(flat) if mode == "euclidean" else cdelta
            b = thr - spread - slab_offsets(center, flat)
            for k in range(-4, 5):
                plane = np.append(slopes, b + k * np.spacing(b))
                edge = np.abs(slab_offsets(center, plane)) + spread <= thr
                if edge and not incidence_mask(pts, plane, cdelta, mode).all():
                    break
            else:
                continue
            fams = (Family(kind="points", elements=pts, delta=DELTA, dim=3),
                    Family(kind="hyperplanes", elements=plane[None], delta=DELTA, dim=3))
            oracle = count_incidences_oracle(*fams, cdelta, mode=mode)
            assert oracle.count < 2
            assert count_incidences_fast(*fams, cdelta, mode=mode, leaf_size=2) == oracle
            found += 1
            if found == 5:
                break
        assert found == 5

    def test_degenerate_point_cloud(self):
        # all points identical: zero-extent boxes must not split forever
        pts = Family(
            kind="points",
            elements=np.tile(np.array([[0.25, 0.125]]), (300, 1)),
            delta=0.05,
            dim=2,
        )
        pls = construct_random("hyperplanes", 2, 0.05, 10, seed=4)
        assert count_incidences_fast(pts, pls, 0.1, leaf_size=8) == count_incidences_oracle(
            pts, pls, 0.1
        )

    def test_empty_families(self):
        no_pts = Family(kind="points", elements=np.empty((0, 2)), delta=DELTA, dim=2)
        one_pl = Family(kind="hyperplanes", elements=np.zeros((1, 2)), delta=DELTA, dim=2)
        assert count_incidences_fast(no_pts, one_pl, DELTA).count == 0

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 8.5, True, "8", None])
    def test_leaf_size_must_be_a_positive_integer(self, bad):
        pts = construct_random("points", 2, 0.05, 10, seed=1)
        pls = construct_random("hyperplanes", 2, 0.05, 5, seed=2)
        with pytest.raises(ValueError, match="leaf_size"):
            count_incidences_fast(pts, pls, 0.1, leaf_size=bad)
        # the check sits at the boundary: an empty family is refused too
        no_pts = Family(kind="points", elements=np.empty((0, 2)), delta=0.05, dim=2)
        with pytest.raises(ValueError, match="leaf_size"):
            count_incidences_fast(no_pts, pls, 0.1, leaf_size=bad)

    def test_numpy_integer_leaf_size(self):
        pts = construct_random("points", 2, 0.05, 40, seed=3)
        pls = construct_random("hyperplanes", 2, 0.05, 20, seed=4)
        assert count_incidences_fast(
            pts, pls, 0.1, leaf_size=np.int64(3)
        ) == count_incidences_oracle(pts, pls, 0.1)


def _clouds(d):
    rng = np.random.default_rng(d)
    lattice = construct_grid(d, 2.0**-3, [2.0**-2] * (d - 1) + [2.0**-3]).elements
    return {
        "random": rng.random((500, d)),
        "lattice": lattice,
        "identical": np.tile(rng.random(d), (100, 1)),
        "single": rng.random((1, d)),
    }


class TestPointTree:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("leaf_size", [1, 2, 8, 64])
    def test_invariants(self, d, leaf_size):
        for name, points in _clouds(d).items():
            tree = incidence._PointTree(points, leaf_size)
            n = len(points)
            assert np.array_equal(np.sort(tree.perm), np.arange(n)), name
            assert np.array_equal(tree.points, points[tree.perm]), name
            assert tree.lo[0] == 0 and tree.hi[-1] == n, name
            assert (tree.lo < tree.hi).all(), name
            assert np.array_equal(tree.hi[:-1], tree.lo[1:]), name
            for i in range(tree.lo.size):
                sub = tree.points[tree.lo[i]:tree.hi[i]]
                bmin, bmax = sub.min(axis=0), sub.max(axis=0)
                assert np.array_equal(tree.centers[i], 0.5 * (bmin + bmax)), name
                assert np.array_equal(tree.halves[i], 0.5 * (bmax - bmin)), name
                assert sub.shape[0] <= leaf_size or not tree.halves[i].any(), name
            if name == "identical":
                assert tree.lo.size == 1
            if name == "single":
                assert tree.lo.size == 1 and not tree.halves.any()


def _rounding_edge_pair(slopes, rng, cdelta):
    """Planes with the given slope rows and random intercepts, plus points
    at x' = 0 whose offset to one of them is +-(cdelta |u| + k ulp),
    k = 1..3, kept where the Euclidean predicate holds although
    |psi| > cdelta |u|.  Also returns the plane each point was made for."""
    d = slopes.shape[1] + 1
    coeffs = np.column_stack([slopes, rng.random(len(slopes))])
    thr = cdelta * unit_normal_norms(coeffs)
    rows, owners = [], []
    for k, sign in itertools.product((1, 2, 3), (1, -1)):
        p = np.zeros((len(coeffs), d))
        p[:, -1] = coeffs[:, -1] - sign * (thr + k * np.spacing(thr))
        keep = incidence_mask(p, coeffs, cdelta) & (np.abs(slab_offsets(p, coeffs)) > thr)
        rows.append(p[keep])
        owners.append(np.flatnonzero(keep))
    pts = Family(kind="points", elements=np.concatenate(rows), delta=DELTA, dim=d)
    pls = Family(kind="hyperplanes", elements=coeffs, delta=DELTA, dim=d)
    return pts, pls, np.concatenate(owners)


def _exact_slopes(d):
    """Slope vectors over {0, +-1/2, +-3/4, +-1} whose unit-normal norm
    sqrt(1 + |a|^2) is a dyadic rational, so Euclidean slab edges are exact too."""
    vals = (0.0, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0)
    return [a for a in itertools.product(vals, repeat=d - 1)
            if (4.0 * math.sqrt(1.0 + sum(x * x for x in a))).is_integer()]


def _lattice_pair(d, k, exps, seed, m):
    """Dyadic lattice points at scale 2^-k and m planes with dyadic slopes
    and intercepts on the 2^-k grid: every slab edge cdelta = c 2^-k passes
    exactly through lattice points."""
    delta = 2.0**-k
    pts = construct_grid(d, delta, [2.0**-e for e in exps])
    rng = np.random.default_rng(seed)
    slopes = _exact_slopes(d)
    rows = [slopes[i] + (delta * j,) for i, j in zip(
        rng.integers(len(slopes), size=m), rng.integers(-(2**k), 2 ** (k + 1) + 1, size=m))]
    pls = Family(kind="hyperplanes", elements=np.array(rows), delta=delta, dim=d)
    return pts, pls, delta


class TestLatticeFamilies:
    """Points sit exactly on slab edges, as in the paper's sharp families."""

    @given(
        d=st.sampled_from([2, 3, 4]),
        data=st.data(),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(["euclidean", "psi"]),
        leaf_size=st.sampled_from([1, 2, 8, 64]),
        workers=st.sampled_from([1, 3]),
        c=st.sampled_from([1, 2, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_oracle_bit_for_bit(self, d, data, seed, mode, leaf_size, workers, c):
        k = data.draw(st.integers(2, {2: 5, 3: 4, 4: 3}[d]), label="k")
        exps = data.draw(st.lists(st.integers(1, k), min_size=d, max_size=d), label="exps")
        pts, pls, delta = _lattice_pair(d, k, exps, seed, m=24)
        assert len(pls) < incidence.SWEEP_MIN_CLASS  # every plane walks the kd-tree
        oracle = count_incidences_oracle(pts, pls, c * delta, mode=mode)
        fast = count_incidences_fast(
            pts, pls, c * delta, mode=mode, workers=workers, leaf_size=leaf_size
        )
        assert fast == oracle

    def test_large_cdelta_counts_only_predicate_hits(self, monkeypatch):
        """At cdelta = 16 delta with single-point leaves, where many leaves
        lie deep inside a slab, every incidence the fast counter reports is
        a hit of the leaf predicate, and the report is the oracle's."""
        pts, pls, delta = _lattice_pair(3, 4, [4, 3, 4], seed=5, m=40)
        assert len(pls) < incidence.SWEEP_MIN_CLASS  # every plane walks the kd-tree
        oracle = count_incidences_oracle(pts, pls, 16 * delta)
        hits = []
        real_mask = incidence.incidence_mask

        def counting_mask(*args, **kwargs):
            mask = real_mask(*args, **kwargs)
            hits.append(int(mask.sum()))
            return mask

        monkeypatch.setattr(incidence, "incidence_mask", counting_mask)
        assert count_incidences_fast(pts, pls, 16 * delta, leaf_size=1) == oracle
        assert sum(hits) == oracle.count


def _product_planes(d, delta, slopes, sizes, rng, step_exp=0, signed_zeros=False):
    """Product family: slope vector slopes[i] times sizes[i] intercepts drawn,
    with repeats, from the 2^-step_exp delta net in [-1, 2].  With
    `signed_zeros`, about half the zero slopes are stored as -0.0."""
    step = delta * 2.0**-step_exp
    top = round(1 / step)
    rows = [tuple(a) + (step * j,)
            for a, size in zip(slopes, sizes) for j in rng.integers(-top, 2 * top + 1, size=size)]
    coeffs = np.array(rows).reshape(-1, d)
    if signed_zeros:
        flip = (coeffs[:, :-1] == 0) & (rng.random((len(coeffs), d - 1)) < 0.5)
        coeffs[:, :-1][flip] = -0.0
    return Family(kind="hyperplanes", elements=coeffs, delta=delta, dim=d)


def _spy_paths(monkeypatch):
    """Record (path, number of planes) for each call of either count path."""
    calls = []
    for name in ("_sweep_counts", "_kd_counts"):
        def wrapper(pts, coeffs, cdelta, mode, ids, *rest, _name=name, _real=getattr(incidence, name)):
            calls.append((_name, ids.size))
            return _real(pts, coeffs, cdelta, mode, ids, *rest)

        monkeypatch.setattr(incidence, name, wrapper)
    return calls


class TestParallelClassSweep:
    """Classes of at least SWEEP_MIN_CLASS parallel planes are swept; the
    report is still the oracle's, bit for bit."""

    @given(
        d=st.sampled_from([2, 3, 4]),
        data=st.data(),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(["euclidean", "psi"]),
        workers=st.sampled_from([1, 2, 3]),
        c=st.sampled_from([1, 2, 16]),
        shape=st.sampled_from(["any", "zero column", "horizontal"]),
        negative=st.booleans(),
        signed_zeros=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_families_equal_oracle(self, d, data, seed, mode, workers, c,
                                           shape, negative, signed_zeros):
        k = data.draw(st.integers(2, {2: 5, 3: 4, 4: 3}[d]), label="k")
        exps = data.draw(st.lists(st.integers(1, k), min_size=d, max_size=d), label="exps")
        delta = 2.0**-k
        pts = construct_grid(d, delta, [2.0**-e for e in exps])
        if negative:
            pts = Family(kind="points", elements=pts.elements - 0.5, delta=delta, dim=d)
        slopes = _exact_slopes(d)
        if shape == "zero column":
            z = data.draw(st.integers(0, d - 2), label="zero column")
            slopes = [a for a in slopes if a[z] == 0]
        elif shape == "horizontal":
            slopes = [(0.0,) * (d - 1)]
        rng = np.random.default_rng(seed)
        picked = [slopes[i] for i in rng.choice(len(slopes), size=min(3, len(slopes)), replace=False)]
        K = incidence.SWEEP_MIN_CLASS
        sizes = data.draw(st.lists(st.sampled_from([1, 3, K - 1, K, K + 5]),
                                   min_size=len(picked), max_size=len(picked)), label="sizes")
        pls = _product_planes(d, delta, picked, sizes, rng,
                              step_exp=data.draw(st.integers(0, 1), label="step"),
                              signed_zeros=signed_zeros)
        oracle = count_incidences_oracle(pts, pls, c * delta, mode=mode)
        assert count_incidences_fast(pts, pls, c * delta, mode=mode, workers=workers) == oracle

    def test_mixed_dispatch(self, monkeypatch):
        """Two large classes and many singletons: both paths run in one call,
        and every worker count gives the oracle's report."""
        monkeypatch.setattr(incidence.os, "cpu_count", lambda: 8)
        delta = 2.0**-4
        pts = construct_grid(3, delta, [2.0**-4, 2.0**-3, 2.0**-4])
        rng = np.random.default_rng(3)
        K = incidence.SWEEP_MIN_CLASS
        big = _product_planes(3, delta, [(0.75, 0.0), (0.0, -0.75)], [K + 10, K], rng)
        singles = construct_random("hyperplanes", 3, delta, 40, seed=9)
        pls = Family(kind="hyperplanes", delta=delta, dim=3,
                     elements=np.concatenate([big.elements, singles.elements]))
        calls = _spy_paths(monkeypatch)
        for mode in ("euclidean", "psi"):
            oracle = count_incidences_oracle(pts, pls, 2 * delta, mode=mode)
            for workers in (1, 2, 3, 5):
                calls.clear()
                fast = count_incidences_fast(pts, pls, 2 * delta, mode=mode, workers=workers)
                assert fast == oracle
                assert sorted(calls) == [("_kd_counts", 40), ("_sweep_counts", 2 * K + 10)]

    @pytest.mark.parametrize("cap", [1, 100])
    def test_small_batches(self, monkeypatch, cap):
        """With `_BATCH_CAP` cut to a few pairs, the leaf pass and the
        sweep's window loop each run in many blocks."""
        monkeypatch.setattr(incidence.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(incidence, "_BATCH_CAP", cap)
        delta = 2.0**-4
        pts = construct_grid(3, delta, [2.0**-4, 2.0**-3, 2.0**-4])
        K = incidence.SWEEP_MIN_CLASS
        big = _product_planes(3, delta, [(0.75, 0.0), (0.0, -0.75)], [K + 10, K],
                              np.random.default_rng(3))
        singles = construct_random("hyperplanes", 3, delta, 40, seed=9)
        pls = Family(kind="hyperplanes", delta=delta, dim=3,
                     elements=np.concatenate([big.elements, singles.elements]))
        oracles = {mode: count_incidences_oracle(pts, pls, 2 * delta, mode=mode)
                   for mode in ("euclidean", "psi")}
        # leaf-pass blocks fold (leaves, 1, d) centres, sweep windows are
        # evaluated on (pairs, d) points, leaves on (points, 1, d)
        ndims = []
        for name in ("slab_offsets", "incidence_mask"):
            def spy(*args, _real=getattr(incidence, name), _name=name, **kwargs):
                ndims.append((_name, args[0].ndim))
                return _real(*args, **kwargs)

            monkeypatch.setattr(incidence, name, spy)
        for mode, workers in itertools.product(("euclidean", "psi"), (1, 3)):
            ndims.clear()
            fast = count_incidences_fast(pts, pls, 2 * delta, mode=mode, workers=workers)
            assert fast == oracles[mode]
            assert ndims.count(("slab_offsets", 3)) >= 10  # 28 leaves, at most 7 a block
            assert ndims.count(("incidence_mask", 2)) > 2

    def test_rounding_edge_pairs(self, monkeypatch):
        """The sweep's window margin on the edge pairs of
        `TestFastCounter.test_rounding_edge_pairs`, all planes one class."""
        rng = np.random.default_rng(8)
        # only some |u| leave room for an offset above cdelta |u| that the
        # predicate accepts: take the slope of a plane that got edge points
        _, pls, owners = _rounding_edge_pair(rng.uniform(-1, 1, (200, 2)), rng, 0.07)
        slopes = np.tile(pls.elements[owners[0], :-1], (200, 1))
        pts, pls, _ = _rounding_edge_pair(slopes, rng, 0.07)
        assert len(pts) >= 20
        calls = _spy_paths(monkeypatch)
        assert count_incidences_fast(pts, pls, 0.07) == count_incidences_oracle(pts, pls, 0.07)
        assert calls == [("_sweep_counts", 200)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_all_horizontal_family(self, monkeypatch, d):
        """Every slope is 0 or -0.0: the planes form one swept class, the
        sweep keeps one slope column, and the report is the oracle's."""
        delta = 2.0**-3
        grid = construct_grid(d, delta, [delta] * d)
        pts = Family(kind="points", elements=grid.elements - 0.5, delta=delta, dim=d)
        pls = _product_planes(d, delta, [(0.0,) * (d - 1)], [incidence.SWEEP_MIN_CLASS],
                              np.random.default_rng(d), signed_zeros=True)
        assert (np.signbit(pls.elements[:, :-1]) & (pls.elements[:, :-1] == 0)).any()
        calls = _spy_paths(monkeypatch)
        for mode, c in itertools.product(("euclidean", "psi"), (1, 2, 16)):
            oracle = count_incidences_oracle(pts, pls, c * delta, mode=mode)
            assert count_incidences_fast(pts, pls, c * delta, mode=mode) == oracle
        assert set(calls) == {("_sweep_counts", incidence.SWEEP_MIN_CLASS)}

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_sharp_pair_equals_exact_integer_predicate(self, sharp_pair, c):
        """Scaled by S = 2^8 the sharp pair is integral, psi = Psi / S^2 with
        Psi = A X - S (Y - E), and incidence is Psi^2 2^12 <= c^2 S^2 (S^2 + A^2)
        (euclidean) or Psi^2 2^12 <= c^2 S^4 (psi), with no rounding at all."""
        P, L = sharp_pair
        S = 2**8
        X, Y = (P.elements * S).T
        A, E = (L.elements * S).T
        for v in (X, Y, A, E):
            assert np.array_equal(v, np.round(v))
        X, Y, A, E = (v.astype(np.int64) for v in (X, Y, A, E))
        lhs = (A[None, :] * X[:, None] - S * (Y[:, None] - E[None, :])) ** 2 * 2**12
        assert DELTA == 2.0**-6
        for mode, rhs in (("euclidean", c * c * S * S * (S * S + A * A)),
                          ("psi", np.full(A.size, c * c * S**4))):
            hits = lhs <= rhs[None, :]
            fast = count_incidences_fast(P, L, c * DELTA, mode=mode)
            assert fast.count == int(hits.sum())
            for axis, got in ((0, fast.per_plane), (1, fast.per_point)):
                vals, mult = np.unique(hits.sum(axis=axis), return_counts=True)
                assert got == tuple(zip(vals.tolist(), mult.tolist()))


class TestAnnuli:
    def horizontal(self, offsets):
        coeffs = np.array([[0.0, v * DELTA] for v in offsets])
        return Family(kind="hyperplanes", elements=coeffs, delta=DELTA, dim=2)

    def test_bucket_indices(self):
        # horizontal lines: affine distance is exactly the intercept gap
        fam = self.horizontal([3, 1, 0.5, 0, -10])
        part = annulus_partition(fam, np.array([0.0, 0.0]))
        got = {i: sorted(int(j) for j in idx) for i, idx in part.buckets.items()}
        assert got == {0: [2], 1: [1], 2: [0], 4: [4]}

    @pytest.mark.parametrize("delta", [2.0**-6, 0.1, 1 / 3, 0.0123456789, 0.7071])
    def test_bucket_edges_are_exact(self, delta):
        """Horizontal lines lie at affine distance |b| from y = 0, exactly:
        at delta 2^i, one ulp either side and in between, every line lands
        in the bucket whose half-open interval holds its distance."""
        edges = delta * np.exp2(np.arange(-3, 12))
        w = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                            np.random.default_rng(1).uniform(0, edges[-1], 300)])
        fam = Family(kind="hyperplanes", elements=np.column_stack([np.zeros(w.size), -w]),
                     delta=delta, dim=2)
        part = annulus_partition(fam, np.zeros(2))
        assert sum(idx.size for idx in part.buckets.values()) == w.size
        for i, idx in part.buckets.items():
            low = delta * 2.0 ** (i - 1) if i else 0.0
            assert ((low <= w[idx]) & (w[idx] < delta * 2.0**i)).all(), i

    def test_center_excluded_and_partition_complete(self):
        fam = construct_random("hyperplanes", 2, DELTA, 80, seed=6)
        center = fam.elements[17]
        part = annulus_partition(fam, center)
        seen = np.concatenate([np.asarray(v) for v in part.buckets.values()])
        assert len(seen) == len(fam) - 1
        assert len(np.unique(seen)) == len(seen)
        assert 17 not in seen

    def test_growth_constant_small_example(self):
        fam = self.horizontal([3, 1, 0.5, 0, -10])
        K, table = annulus_growth_check(fam, np.array([0.0, 0.0]), 1.0)
        assert K == pytest.approx(12.8, rel=1e-12)
        assert [row[0] for row in table] == [0, 1, 2, 4]
        assert all(len(row) == 4 for row in table)

    def test_singleton_growth_is_zero(self):
        fam = self.horizontal([0])
        K, table = annulus_growth_check(fam, np.array([0.0, 0.0]), 1.0)
        assert K == 0.0 and table == []

    def test_separated_family_has_empty_straggler_bucket(self):
        fam = construct_random("hyperplanes", 2, DELTA, 50, seed=13)
        part = annulus_partition(fam, fam.elements[0])
        assert 0 not in part.buckets

    def test_rejects_wrong_kind(self):
        pts = Family(kind="points", elements=np.zeros((1, 2)), delta=DELTA, dim=2)
        with pytest.raises(ValueError, match="hyperplanes"):
            annulus_partition(pts, np.zeros(2))

    @pytest.mark.parametrize("center,message", [
        ((np.nan, 0.0), "non-finite coefficient"),
        ((0.0, np.inf), "non-finite coefficient"),
        ((11.0, 0.0), "exceeds the bound"),
        ((0.0, 2.0), r"misses B\(0,1\)"),
    ])
    def test_center_plane_is_validated(self, center, message):
        """A NaN centre used to put every line in bucket 0, as if within delta."""
        _, L = construct_sharp_2d(1.75, 1.75, 2.0**-5)
        with pytest.raises(ValueError, match=message):
            annulus_partition(L, np.array(center))
