import hashlib
import math

import numpy as np
import pytest

from incgeom.constructions import (ConstructionSpec, construct_grid,
                                   construct_random, construct_sharp,
                                   construct_sharp_2d, lift_to_dim)
from incgeom.incidence import count_incidences_fast
from incgeom.regularity import min_separation, regularity_constant

DELTA = 2.0**-6


@pytest.fixture(scope="module")
def sharp_pair():
    return construct_sharp_2d(1.75, 1.75, DELTA)


@pytest.fixture(scope="module")
def lifted_pair(sharp_pair):
    P, L = sharp_pair
    return lift_to_dim(P, L, 3, DELTA)


class TestSpec:
    def test_accepts_valid(self):
        spec = ConstructionSpec(d=3, delta=2.0**-5, s=1.5, t=1.0)
        assert (spec.d, spec.delta, spec.s, spec.t) == (3, 2.0**-5, 1.5, 1.0)

    def test_delta_must_be_dyadic(self):
        with pytest.raises(ValueError, match="power of two"):
            ConstructionSpec(d=2, delta=0.1, s=1.5, t=1.5)

    def test_delta_must_be_small_enough(self):
        with pytest.raises(ValueError):
            ConstructionSpec(d=2, delta=0.25, s=1.5, t=1.5)

    @pytest.mark.parametrize("s,t", [(0.5, 1.5), (1.5, 2.5), (3.0, 1.0)])
    def test_exponent_ranges(self, s, t):
        with pytest.raises(ValueError):
            ConstructionSpec(d=2, delta=DELTA, s=s, t=t)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            ConstructionSpec(d=1, delta=DELTA, s=1.5, t=1.5)


class TestSharp2d:
    def test_pinned_sizes(self, sharp_pair):
        P, L = sharp_pair
        assert len(P) == 1105
        assert len(L) == 2193

    def test_meta_records_parameters(self, sharp_pair):
        P, L = sharp_pair
        for fam in (P, L):
            assert fam.meta["s"] == 1.75
            assert fam.meta["t"] == 1.75
        assert P.meta["point_spacing"] == 2.0**-4
        assert L.meta["slope_spacing"] == 2.0**-4

    def test_coordinates_are_delta_multiples(self, sharp_pair):
        for fam in sharp_pair:
            q = fam.elements / DELTA
            assert np.array_equal(q, np.rint(q))

    def test_families_validate(self, sharp_pair):
        for fam in sharp_pair:
            fam.validate()

    def test_point_separation_is_delta(self, sharp_pair):
        P, _ = sharp_pair
        assert min_separation(P) == DELTA

    def test_line_separation(self, sharp_pair):
        # nearest lines differ by one intercept step; the affine distance
        # of that step is delta normalized by a slope-1 normal
        _, L = sharp_pair
        sep = min_separation(L)
        assert sep >= DELTA / math.sqrt(5.0)
        assert sep == pytest.approx(DELTA / math.sqrt(2.0), rel=1e-9)

    def test_regularity_constants_stay_small(self, sharp_pair):
        P, L = sharp_pair
        assert regularity_constant(P, 1.75).c_star == pytest.approx(3.9316, abs=1e-3)
        assert regularity_constant(L, 1.75).c_star == pytest.approx(1.9811, abs=1e-3)


class TestLift:
    def test_sizes(self, sharp_pair, lifted_pair):
        P, L = sharp_pair
        P3, L3 = lifted_pair
        assert P3.meta["layers"] == 33
        assert len(P3) == 33 * len(P)
        assert len(L3) == len(L)
        assert P3.dim == L3.dim == 3

    def test_planes_ignore_new_coordinates(self, lifted_pair):
        _, L3 = lifted_pair
        assert np.all(L3.elements[:, 1] == 0.0)

    def test_counts_factor_exactly(self, sharp_pair, lifted_pair):
        """Each lifted plane contains a point iff the base line contains its
        planar shadow, so incidences multiply by the layer count exactly."""
        P, L = sharp_pair
        P3, L3 = lifted_pair
        for mode in ("euclidean", "psi"):
            flat = count_incidences_fast(P, L, DELTA, mode=mode).count
            lifted = count_incidences_fast(P3, L3, DELTA, mode=mode).count
            assert lifted == 33 * flat

    def test_wrapper_matches_explicit_lift(self, lifted_pair):
        P3, L3 = lifted_pair
        Pw, Lw = construct_sharp(ConstructionSpec(d=3, delta=DELTA, s=1.75, t=1.75))
        assert np.array_equal(Pw.elements, P3.elements)
        assert np.array_equal(Lw.elements, L3.elements)

    @pytest.mark.parametrize("d", [3, 4])
    def test_points_equal_meshgrid_reference(self, d):
        """Row for row, the lifted points are the meshgrid product of the
        planar points with the 2-delta net along each new coordinate."""
        delta = 2.0**-4
        P, L = construct_sharp_2d(1.75, 1.75, delta)
        layers = np.arange(9) * 2 * delta
        grids = np.meshgrid(np.arange(len(P)), *([layers] * (d - 2)), indexing="ij")
        sel = grids[0].ravel()
        want = np.column_stack([P.elements[sel, 0]] + [g.ravel() for g in grids[1:]]
                               + [P.elements[sel, 1]])
        assert np.array_equal(lift_to_dim(P, L, d, delta)[0].elements, want)

    def test_rejects_flat_target(self, sharp_pair):
        P, L = sharp_pair
        with pytest.raises(ValueError, match="at least 3"):
            lift_to_dim(P, L, 2, DELTA)


class TestGrid:
    def test_sizes_from_spacings(self):
        g = construct_grid(2, DELTA, (0.25, DELTA))
        assert len(g) == 5 * 65
        assert g.dim == 2

    def test_rejects_non_dyadic_spacing(self):
        with pytest.raises(ValueError, match="power of two"):
            construct_grid(2, DELTA, (0.3, 0.5))

    def test_rejects_spacing_below_delta(self):
        with pytest.raises(ValueError):
            construct_grid(2, DELTA, (DELTA / 2, 0.5))

    def test_rejects_wrong_spacing_count(self):
        with pytest.raises(ValueError, match="expected 3 spacings"):
            construct_grid(3, DELTA, (0.5, 0.5))


class TestRandom:
    def test_deterministic_per_seed(self):
        a = construct_random("points", 2, 0.05, 30, seed=5)
        b = construct_random("points", 2, 0.05, 30, seed=5)
        assert np.array_equal(a.elements, b.elements)
        assert a.meta == {"seed": 5}

    @pytest.mark.parametrize("kind, delta, want", [
        ("points", 0.07, "66b9bc6a339e4d2202bc779c183cbdce41ec0b27725a245463546e15ad9614a3"),
        ("hyperplanes", 0.05, "e256a12f2376bf6b61d3f033b0a151e8e9f4bc89d771a043fc5342e6c7f2d4b4"),
    ])
    def test_seed_to_family_mapping_is_pinned(self, kind, delta, want):
        # digests of the families the original vstack-per-accept loop drew
        fam = construct_random(kind, 3, delta, 200, seed=4)
        assert hashlib.sha256(fam.elements.tobytes()).hexdigest() == want

    def test_seeds_differ(self):
        a = construct_random("points", 2, 0.05, 30, seed=5)
        b = construct_random("points", 2, 0.05, 30, seed=6)
        assert not np.array_equal(a.elements, b.elements)

    def test_point_separation_enforced(self):
        fam = construct_random("points", 3, 0.07, 60, seed=1)
        assert min_separation(fam) >= 0.07
        assert np.all(np.linalg.norm(fam.elements, axis=1) <= 1.0)

    def test_plane_separation_enforced(self):
        fam = construct_random("hyperplanes", 2, 0.03, 80, seed=2)
        assert min_separation(fam) >= 0.03
        fam.validate()

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            construct_random("points", 2, 0.3, 200, seed=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            construct_random("boxes", 2, 0.05, 10, seed=0)
