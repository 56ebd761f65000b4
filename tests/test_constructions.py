import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incgeom.constructions import (ConstructionSpec, _draw_points, construct_grid,
                                   construct_random, construct_sharp,
                                   construct_sharp_2d, lift_to_dim)
from incgeom.family import Family
from incgeom.geometry import affine_metric
from incgeom.incidence import count_incidences_fast
from incgeom.regularity import min_separation, regularity_constant

DELTA = 2.0**-6


@pytest.fixture(scope="module")
def sharp_pair():
    return construct_sharp_2d(1.75, 1.75, DELTA)


@pytest.fixture(scope="module")
def lifted_pair(sharp_pair):
    P, L = sharp_pair
    return lift_to_dim(P, L, 3)


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

    @pytest.mark.parametrize("d", [3.0, 2.5, True, "3", None])
    def test_dimension_must_be_an_integer(self, d):
        with pytest.raises(ValueError,
                           match=f"dimension must be an integer >= 2, got {re.escape(repr(d))}"):
            ConstructionSpec(d=d, delta=DELTA, s=1.5, t=1.5)

    def test_accepts_a_numpy_integer_dimension(self):
        P, L = construct_sharp(ConstructionSpec(d=np.int64(3), delta=2.0**-5, s=1.75, t=1.75))
        assert (P.dim, L.dim) == (3, 3)


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
        assert np.array_equal(lift_to_dim(P, L, d)[0].elements, want)

    def test_rejects_flat_target(self, sharp_pair):
        P, L = sharp_pair
        with pytest.raises(ValueError, match="dimension must be an integer >= 3, got 2"):
            lift_to_dim(P, L, 2)

    @pytest.mark.parametrize("d", [3.0, 2.5, True, "3", None])
    def test_lift_dimension_must_be_an_integer(self, sharp_pair, d):
        P, L = sharp_pair
        with pytest.raises(ValueError,
                           match=f"dimension must be an integer >= 3, got {re.escape(repr(d))}"):
            lift_to_dim(P, L, d)

    def test_lift_accepts_a_numpy_integer_dimension(self, sharp_pair, lifted_pair):
        P, L = sharp_pair
        P3, L3 = lift_to_dim(P, L, np.int64(3))
        assert (P3.dim, L3.dim) == (3, 3)
        assert np.array_equal(P3.elements, lifted_pair[0].elements)
        assert np.array_equal(L3.elements, lifted_pair[1].elements)

    def test_lift_takes_the_pair_s_own_delta(self, sharp_pair):
        P, _ = sharp_pair
        _, coarse = construct_sharp_2d(1.75, 1.75, 2 * DELTA)
        with pytest.raises(ValueError, match="delta mismatch: points 0.015625, lines 0.03125"):
            lift_to_dim(P, coarse, 3)


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


def _reference_random(kind, d, delta, n, seed):
    """The one-draw-at-a-time loop `construct_random` replaced: each draw is
    tested against every element accepted so far."""
    if kind not in ("points", "hyperplanes"):
        raise ValueError(f"unknown family kind {kind!r}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if n < 0:
        raise ValueError(f"negative family size {n}")
    rng = np.random.default_rng(seed)
    accepted = np.empty((n, d))
    budget = 1000 * max(n, 1)
    attempts = 0
    k = 0
    while k < n:
        if attempts >= budget:
            raise ValueError(
                f"could not place {n} delta-separated {kind} in {budget} draws "
                f"(placed {k} of {n}, d={d}, delta={delta!r}); the request looks infeasible"
            )
        attempts += 1
        if kind == "points":
            cand = rng.uniform(-1.0, 1.0, size=d)
            if cand @ cand > 1.0:
                continue
            ok = k == 0 or np.min(np.sum((accepted[:k] - cand) ** 2, axis=1)) >= delta * delta
        else:
            slopes = rng.uniform(-1.0, 1.0, size=d - 1)
            norm = math.sqrt(float(slopes @ slopes) + 1.0)
            cand = np.append(slopes, rng.uniform(-norm, norm))
            ok = k == 0 or np.min(affine_metric(cand, accepted[:k])) >= delta
        if ok:
            accepted[k] = cand
            k += 1
    return Family(kind, accepted, delta, d, meta={"seed": seed})


def _outcome(construct, *args):
    """The family's bytes, or the message it raised."""
    try:
        return construct(*args).elements.tobytes()
    except ValueError as e:
        return str(e)


@st.composite
def _random_requests(draw):
    """(kind, d, delta, n, seed) with n at most (2/delta)^d / 4, which keeps
    every draw well short of the random-sequential jamming count (d = 2
    points at delta = 0.3 jam near 30, planes near 45), so the reference
    loop stays cheap; the dense and infeasible settings are listed apart."""
    kind = draw(st.sampled_from(["points", "hyperplanes"]))
    d = draw(st.integers(2, 5))
    delta = draw(st.floats(0.03, 0.3))
    n = draw(st.integers(0, min(300, int((2.0 / delta) ** d / 4))))
    return kind, d, delta, n, draw(st.integers(0, 2**32 - 1))


class TestRandomMatchesReference:
    """`construct_random` draws in batches and finds conflicts with a
    kd-tree; the one-draw loop above is the specification."""

    @given(_random_requests())
    # dense settings near the jamming count: most draws are rejected and
    # conflicts inside a batch are common
    @example(("points", 2, 0.3, 28, 1))
    @example(("points", 2, 0.1, 200, 2))
    @example(("points", 3, 0.3, 110, 3))
    @example(("hyperplanes", 2, 0.3, 40, 4))
    @example(("hyperplanes", 2, 0.15, 150, 5))
    @settings(max_examples=30, deadline=None)
    def test_same_bytes(self, request):
        assert _outcome(construct_random, *request) == _outcome(_reference_random, *request)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_ball_test_on_the_unit_sphere(self, d):
        """Draws within an ulp of the unit sphere, where `fold_dot` and a
        BLAS `x @ x` can fall on opposite sides of 1: the rows kept are the
        ones the loop's `cand @ cand > 1.0` keeps."""
        rng = np.random.default_rng(d)
        v = rng.normal(size=(400, d))
        u = (v / np.linalg.norm(v, axis=1, keepdims=True) + 1.0) / 2.0
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])

        class Replay:
            def random(self, shape):
                assert shape == u.shape
                return u

        cands = -1.0 + 2.0 * u
        want = cands[[not c @ c > 1.0 for c in cands]]
        assert np.array_equal(_draw_points(Replay(), len(u), d), want)

    # the two d = 2, delta = 0.5 requests place an element so close to the
    # budget that counting only in-ball draws as attempts changes the message
    # ("placed 11 of 12" becomes a family, "placed 12 of 14" becomes 13)
    @pytest.mark.parametrize("request_", [
        ("points", 2, 0.7, 10, 0),
        ("points", 2, 0.5, 12, 21),
        ("points", 2, 0.5, 14, 9),
        ("points", 3, 0.8, 16, 2),
        ("hyperplanes", 2, 0.7, 12, 3),
    ])
    def test_budget_exhaustion_attempt_for_attempt(self, request_):
        got = _outcome(construct_random, *request_)
        assert isinstance(got, str) and "infeasible" in got
        assert got == _outcome(_reference_random, *request_)


class TestRandomInput:
    @pytest.mark.parametrize("args, name", [
        (("points", 3, 0.1, 2.5, 0), "family size"),
        (("points", 3.0, 0.1, 5, 0), "dimension"),
        (("points", True, 0.1, 5, 0), "dimension"),
        (("hyperplanes", 1, 0.1, 5, 0), "dimension"),
        (("points", 3, 0.1, -1, 0), "family size"),
    ])
    def test_refused_at_the_boundary(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            construct_random(*args)

    def test_unknown_kind_is_refused_as_family_refuses_it(self):
        with pytest.raises(ValueError) as family_err:
            Family("pts", np.zeros((0, 2)), 0.1, 2)
        with pytest.raises(ValueError) as random_err:
            construct_random("pts", 2, 0.1, 3, 0)
        assert str(random_err.value) == str(family_err.value) == (
            "unknown family kind 'pts'; expected ('points', 'hyperplanes')")

    def test_numpy_integers_accepted(self):
        a = construct_random("points", np.int64(3), 0.1, np.int32(20), 7)
        assert np.array_equal(a.elements, construct_random("points", 3, 0.1, 20, 7).elements)
