import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeom import incidence
from incgeom.constructions import construct_random, construct_sharp_2d
from incgeom.family import Family
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
