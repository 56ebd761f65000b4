import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from incgeom import regularity
from incgeom.constructions import (ConstructionSpec, construct_grid,
                                   construct_random, construct_sharp)
from incgeom.family import Family
from incgeom.geometry import affine_metric, code_coordinates, distinct_rows
from incgeom.regularity import (best_dimension, covering_number,
                                katz_tao_constant, min_separation,
                                regularity_constant)

DELTA = 2.0**-6


@pytest.fixture(scope="module")
def grid64():
    """Half-open 64 x 64 grid: exactly delta^-2 occupied cells."""
    xs = np.arange(64) * DELTA
    pts = np.column_stack([np.repeat(xs, 64), np.tile(xs, 64)])
    return Family(kind="points", elements=pts, delta=DELTA, dim=2)


@pytest.fixture(scope="module")
def segment64():
    xs = np.arange(64) * DELTA
    pts = np.column_stack([xs, np.zeros(64)])
    return Family(kind="points", elements=pts, delta=DELTA, dim=2)


class TestCoveringNumber:
    def test_grid_at_dyadic_scales(self, grid64):
        assert covering_number(grid64, DELTA) == 4096
        assert covering_number(grid64, 2 * DELTA) == 1024
        assert covering_number(grid64, 1.0) == 1

    def test_bounds(self, grid64):
        for rho in (DELTA, 3 * DELTA, 0.5):
            n = covering_number(grid64, rho)
            assert 1 <= n <= len(grid64)

    def test_empty_family(self):
        fam = Family(kind="points", elements=np.empty((0, 2)), delta=0.5, dim=2)
        assert covering_number(fam, 0.25) == 0

    def test_rejects_nonpositive_rho(self, grid64):
        with pytest.raises(ValueError, match="rho"):
            covering_number(grid64, 0.0)


class TestMinSeparation:
    def test_grid_spacing(self, grid64):
        assert min_separation(grid64) == DELTA

    def test_singleton_is_infinite(self):
        fam = Family(kind="points", elements=np.array([[0.1, 0.2]]), delta=DELTA, dim=2)
        assert min_separation(fam) == math.inf

    def test_duplicate_points_give_zero(self):
        # construction permits duplicates; only validate() rejects them
        fam = Family(kind="points", elements=np.zeros((2, 2)), delta=0.5, dim=2)
        assert min_separation(fam) == 0.0

    def test_planes_match_pairwise_oracle(self):
        fam = construct_random("hyperplanes", 2, DELTA, 40, seed=3)
        n = len(fam)
        want = min(
            float(affine_metric(fam.elements[i], fam.elements[j]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert min_separation(fam) == pytest.approx(want, rel=1e-12)

    def test_random_planes_respect_delta(self):
        fam = construct_random("hyperplanes", 2, DELTA, 100, seed=9)
        assert min_separation(fam) >= DELTA


def _pairwise_scan(fam):
    """The least `affine_metric` over all pairs, by a blocked O(n^2) scan:
    the library's d_A, which the kd-tree search must return bit for bit."""
    n = len(fam)
    coeffs = fam.elements
    block = max(1, (1 << 20) // n)
    best = math.inf
    for i0 in range(0, n, block):
        total = affine_metric(coeffs[i0:i0 + block, None, :], coeffs[None, :, :])
        rows = np.arange(total.shape[0])
        total[rows, i0 + rows] = math.inf
        best = min(best, float(total.min()))
    return best


def _planes(coeffs, delta=DELTA):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return Family(kind="hyperplanes", elements=coeffs, delta=delta, dim=coeffs.shape[1])


def _lattice_planes(d, seed):
    # coefficients on the 1/8 lattice: many pairs tie at the minimum
    rng = np.random.default_rng(seed)
    return _planes(np.unique(rng.integers(-4, 5, size=(400, d)) / 8.0, axis=0))


class TestSeparationMatchesScan:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [5, 6])
    def test_sharp_families(self, d, k):
        spec = ConstructionSpec(d=d, delta=2.0**-k, s=1.75, t=1.75)
        _, planes = construct_sharp(spec)
        assert min_separation(planes) == _pairwise_scan(planes)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_random_families(self, d, seed):
        fam = construct_random("hyperplanes", d, 0.05, 300, seed=seed)
        assert min_separation(fam) == _pairwise_scan(fam)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_lattice_coefficients_with_ties(self, d):
        fam = _lattice_planes(d, seed=d)
        assert min_separation(fam) == _pairwise_scan(fam) > 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_duplicate_rows(self, d):
        coeffs = np.random.default_rng(d).uniform(-0.5, 0.5, size=(50, d))
        fam = _planes(np.vstack([coeffs, coeffs[7], coeffs[7], coeffs[30]]))
        assert min_separation(fam) == _pairwise_scan(fam) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_element_families(self, d):
        fam = _planes(np.random.default_rng(10 + d).uniform(-0.5, 0.5, size=(2, d)))
        want = _pairwise_scan(fam)
        assert min_separation(fam) == want == pytest.approx(
            float(affine_metric(fam.elements[0], fam.elements[1])), rel=1e-12
        )

    def test_parallel_lines_and_equal_intercepts(self):
        icpts = np.linspace(-0.7, 0.7, 300)
        parallel = _planes(np.column_stack([np.full(300, 0.25), icpts]))
        fan = _planes(np.column_stack([icpts, np.full(300, 0.1)]))
        assert min_separation(parallel) == _pairwise_scan(parallel)
        assert min_separation(fan) == _pairwise_scan(fan)


def test_separation_beyond_sixty_thousand_planes():
    # 70,001 horizontal lines 2^-16 apart: d_A is exactly the intercept gap
    n = 70_001
    icpts = (np.arange(n) - n // 2) * 2.0**-16
    fam = _planes(np.column_stack([np.zeros(n), icpts]), delta=2.0**-16)
    assert min_separation(fam) == 2.0**-16


class TestRegularityConstant:
    def test_singleton_at_s_zero(self):
        fam = Family(kind="points", elements=np.array([[0.1, 0.2]]), delta=DELTA, dim=2)
        assert regularity_constant(fam, 0.0).c_star == 1.0

    def test_full_grid_is_regular(self, grid64):
        report = regularity_constant(grid64, 2.0)
        assert report.c_star <= 4.0**2
        assert report.metric == "euclidean"

    def test_segment_fails_dimension_two(self, segment64):
        # a 1-dimensional set is badly 2-regular: worst ratio 1/(delta |E|)
        report = regularity_constant(segment64, 2.0)
        assert report.c_star == 192.0
        assert report.worst_scale == DELTA

    def test_monotone_in_s(self, segment64):
        values = [regularity_constant(segment64, s).c_star for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert values == sorted(values)

    def test_worst_center_is_a_member_index(self, grid64):
        report = regularity_constant(grid64, 1.5)
        assert 0 <= report.worst_center < len(grid64)

    def test_rejects_s_out_of_range(self, grid64):
        with pytest.raises(ValueError, match="exponent s"):
            regularity_constant(grid64, 2.5)

    def test_rejects_empty_family(self):
        fam = Family(kind="points", elements=np.empty((0, 2)), delta=0.5, dim=2)
        with pytest.raises(ValueError, match="empty"):
            regularity_constant(fam, 1.0)


class TestKatzTaoVariant:
    def test_coincides_when_cover_is_delta_power(self, grid64):
        # |E|_delta = delta^-2, so the two denominators are equal at s = 2
        std = regularity_constant(grid64, 2.0)
        kt = katz_tao_constant(grid64, 2.0)
        assert std.c_star == kt.c_star == 5.0
        assert std.per_scale == kt.per_scale
        assert kt.variant == "katz-tao"

    def test_differs_on_sparse_sets(self, segment64):
        std = regularity_constant(segment64, 2.0)
        kt = katz_tao_constant(segment64, 2.0)
        assert std.c_star != kt.c_star


class TestProfilePaths:
    def test_tree_path_matches_dense(self, grid64, monkeypatch):
        baseline = regularity_constant(grid64, 1.5)
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", 1)
        forced = regularity_constant(grid64, 1.5)
        assert forced.per_scale == baseline.per_scale
        assert forced.c_star == baseline.c_star

    def test_tree_path_matches_dense_on_planes(self, monkeypatch):
        fams = [construct_random("hyperplanes", 2, DELTA, 200, seed=1)]
        # 1 / delta just below k: at r = 1 the table's reach is k, and so
        # must the tree's be
        for k in (8, 13, 40):
            delta = 1.0 / k
            while not 1.0 / delta < k:
                delta = float(np.nextafter(delta, 1.0))
            fams += [construct_random("hyperplanes", d, delta, 60, seed=k) for d in (2, 3)]
        baselines = [regularity_constant(fam, 1.0).per_scale for fam in fams]
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", 1)
        assert [regularity_constant(fam, 1.0).per_scale for fam in fams] == baselines

    def test_inexact_fft_counts_raise(self, grid64, monkeypatch):
        real = regularity.irfftn
        monkeypatch.setattr(
            "incgeom.regularity.irfftn", lambda *a, **k: real(*a, **k) + 0.4
        )
        with pytest.raises(FloatingPointError, match="0.25"):
            regularity_constant(grid64, 1.0)

    def test_code_max_profile_uses_no_fft(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("FFT called on the code-max path")

        # dense enough that the same cells read as points take the FFT at
        # their largest non-full scale, so the control below meets it
        fam = construct_random("hyperplanes", 3, 2.0**-4, 2000, seed=5)
        want = regularity_constant(fam, 1.5)
        for name in ("rfftn", "irfftn", "fftconvolve"):
            monkeypatch.setattr(f"incgeom.regularity.{name}", refuse)
        assert regularity_constant(fam, 1.5) == want
        with pytest.raises(AssertionError, match="FFT called"):
            regularity_constant(Family(kind="points", elements=fam.elements,
                                       delta=fam.delta, dim=3), 1.5)

    def test_dense_limit_compares_the_allocated_grid(self, grid64, monkeypatch):
        # 64 x 64 points: at r = 1 (reach 64, clipped to 63) the FFT period is
        # next_fast_len(127) = 128 per axis, the largest of any scale; linear
        # padding by the whole kernel would need (64 + 128)^2 cells.  That
        # scale is a full ball, so the shortcut is held off to reach the FFT.
        _hold_full_ball_off(monkeypatch)
        tree_scales = []
        real = regularity._counts_tree
        monkeypatch.setattr(
            "incgeom.regularity._counts_tree",
            lambda tree, ratio, metric: tree_scales.append(ratio) or real(tree, ratio, metric),
        )
        want = regularity.next_fast_len(127) ** 2
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", want)
        baseline = regularity_constant(grid64, 1.5)
        assert tree_scales == []
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", want - 1)
        assert regularity_constant(grid64, 1.5) == baseline
        assert tree_scales == [64.0]
        # the code-max path allocates one (n + 1)-per-axis summed-area table
        planes = construct_random("hyperplanes", 2, DELTA, 200, seed=1)
        cells = np.floor(regularity.measurement_coordinates(planes) / DELTA)
        table = int(np.prod(np.ptp(cells, axis=0) + 2))
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", table)
        tree_scales.clear()
        planes_profile = regularity_constant(planes, 1.0)
        assert tree_scales == []
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", table - 1)
        assert regularity_constant(planes, 1.0) == planes_profile
        assert len(tree_scales) == 7

    def test_oversized_family_is_refused(self, grid64, monkeypatch):
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", 1)
        monkeypatch.setattr("incgeom.regularity.TREE_LIMIT", 1)
        with pytest.raises(ValueError, match="too large"):
            regularity_constant(grid64, 1.0)

    def test_refusal_comes_before_any_count(self, grid64, monkeypatch):
        # r = 1 is a full ball and every other scale is refused: the plan
        # raises before the first scale is counted
        def refuse(*args, **kwargs):
            raise AssertionError("counted before the plan was complete")

        for name in ("_stencil_counts", "_ball_counts", "_counts_tree"):
            monkeypatch.setattr(f"incgeom.regularity.{name}", refuse)
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", 1)
        monkeypatch.setattr("incgeom.regularity.TREE_LIMIT", 1)
        with pytest.raises(ValueError, match="too large .* r=0.015625"):
            regularity_constant(grid64, 1.0)

    @pytest.mark.parametrize("cells", [[[0, 0], [0, 1]], [[0, 0], [0, 1], [0, 2]],
                                       [[5, 5, 5], [5, 6, 5]]])
    def test_full_ball_scales_need_no_budget(self, cells, monkeypatch):
        # tight clusters: every scale is a full ball, so limits of one cell
        # refuse nothing; the three-cell line's ball is centred on its middle
        fam = _points((np.array(cells) + 0.5) * DELTA)
        want, _ = _reference_profile(fam)
        for name in ("_stencil_counts", "_ball_counts", "_counts_tree"):
            monkeypatch.setattr(f"incgeom.regularity.{name}", None)
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", 1)
        monkeypatch.setattr("incgeom.regularity.TREE_LIMIT", 1)
        _assert_same_profile(regularity._scale_profile(fam), want)
        assert np.all(want[1] == len(cells))


def _ball_kernel(ratio, dim, metric):
    reach = int(math.floor(ratio + 1e-9))
    axis = np.arange(-reach, reach + 1)
    if metric == "chebyshev":
        return np.ones((axis.size,) * dim)
    dist2 = np.zeros((1,) * dim)
    for k in range(dim):
        shape = [1] * dim
        shape[k] = axis.size
        dist2 = dist2 + (axis.astype(np.float64) ** 2).reshape(shape)
    return (dist2 <= ratio * ratio).astype(np.float64)


def _counts_dense(occ_grid, ratio, dim, metric, occ_offsets):
    kernel = _ball_kernel(ratio, dim, metric)
    conv = fftconvolve(occ_grid, kernel, mode="same")
    vals = conv[tuple(occ_offsets.T)]
    counts = np.rint(vals)
    if np.any(np.abs(vals - counts) >= 0.25):
        raise FloatingPointError("FFT ball counts are not within 0.25 of integers")
    return np.maximum(counts.astype(np.int64), 1)


def _reference_profile(fam):
    """The per-scale linear `fftconvolve(mode="same")` path `_scale_profile`
    once ran below DENSE_LIMIT, for both metrics; the summed-area table and
    the circular FFT must give its profile and per-cell counts bit for bit.
    Returns (radii, max_counts, argmax, cover) and the counts per scale."""
    delta = fam.delta
    metric = "euclidean" if fam.kind == "points" else "chebyshev"
    coords = regularity.measurement_coordinates(fam)
    cells = np.floor(coords / delta).astype(np.int64)
    uniq, first_idx = np.unique(cells, axis=0, return_index=True)
    offsets = uniq - uniq.min(axis=0)
    occ_grid = np.zeros(tuple(offsets.max(axis=0) + 1))
    occ_grid[tuple(offsets.T)] = 1.0
    radii = regularity._scale_radii(delta)
    per_scale = [_counts_dense(occ_grid, r / delta, fam.dim, metric, offsets) for r in radii]
    best = [int(np.argmax(c)) for c in per_scale]
    max_counts = np.array([c[k] for c, k in zip(per_scale, best)], dtype=np.int64)
    return (radii, max_counts, first_idx[best], uniq.shape[0]), per_scale


def _hold_full_ball_off(mp):
    mp.setattr(regularity, "_full_ball_centre", lambda *args: None)


_COUNTING_PATHS = {"_box_counts": "table", "_stencil_counts": "stencil", "_ball_counts": "fft",
                   "_counts_tree": "tree"}


def _profile_and_counts(fam, paths=None):
    """`_scale_profile(fam)` with the full-ball shortcut held off, and the
    per-cell counts each scale's path made, recorded as the profile runs;
    the path of each scale is appended to `paths`."""
    per_scale = []
    paths = [] if paths is None else paths
    with pytest.MonkeyPatch.context() as mp:
        _hold_full_ball_off(mp)
        for name, path in _COUNTING_PATHS.items():
            real = getattr(regularity, name)

            def record(*args, _real=real, _path=path):
                per_scale.append(_real(*args))
                paths.append(_path)
                return per_scale[-1]

            mp.setattr(regularity, name, record)
        profile = regularity._scale_profile(fam)
    return profile, per_scale


def _assert_same_profile(got, want):
    (radii, max_counts, argmax, cover), (want_radii, want_max, want_argmax, want_cover) = got, want
    assert np.array_equal(radii, want_radii)
    assert max_counts.dtype == argmax.dtype == np.int64
    assert np.array_equal(max_counts, want_max)
    assert np.array_equal(argmax, want_argmax)
    assert cover == want_cover


def _assert_matches_reference(fam):
    """Per-cell counts with the full-ball shortcut held off, and the profile
    with it on, against the linear-FFT reference."""
    profile, counts = _profile_and_counts(fam)
    want, want_counts = _reference_profile(fam)
    _assert_same_profile(profile, want)
    _assert_same_profile(regularity._scale_profile(fam), want)
    radii = profile[0]
    assert len(counts) == len(want_counts) == radii.size
    for got, want in zip(counts, want_counts):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def _points(coords, delta=DELTA):
    coords = np.asarray(coords, dtype=np.float64)
    return Family(kind="points", elements=coords, delta=delta, dim=coords.shape[1])


def _both_kinds(coords, delta=DELTA):
    # one cell set measured in both metrics: as points, and as planes whose
    # code coordinates (intercept first) are these same coordinates
    coords = np.asarray(coords, dtype=np.float64)
    return [_points(coords, delta), _planes(np.roll(coords, -1, axis=1), delta)]


def _hollow_cube(d, n, delta=DELTA):
    # every lattice point on the boundary of [0, n]^d: all cells on faces
    grid = np.stack(np.meshgrid(*[np.arange(n + 1)] * d, indexing="ij"), -1).reshape(-1, d)
    face = np.any((grid == 0) | (grid == n), axis=1)
    return grid[face] * delta


class TestProfileMatchesLinearFFT:
    @pytest.mark.parametrize("d,k", [(2, 5), (2, 6), (3, 5), (3, 6)])
    def test_sharp_pairs(self, d, k):
        points, planes = construct_sharp(ConstructionSpec(d=d, delta=2.0**-k, s=1.75, t=1.75))
        _assert_matches_reference(points)
        _assert_matches_reference(planes)

    @pytest.mark.parametrize("kind", ["points", "hyperplanes"])
    @pytest.mark.parametrize("d,delta,n", [(2, 0.02, 400), (3, 0.04, 400), (4, 0.15, 150)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeded_random_families(self, kind, d, delta, n, seed):
        _assert_matches_reference(construct_random(kind, d, delta, n, seed=seed))

    # the reference pads by the kernel, (n + 2 reach)^d cells: d = 4 cases
    # stay at delta = 2^-3 so that it needs under a million
    @pytest.mark.parametrize("d,delta", [(2, DELTA), (3, DELTA), (4, 2.0**-3)])
    def test_singleton(self, d, delta):
        for fam in _both_kinds(np.full((1, d), 0.3), delta=delta):
            _assert_matches_reference(fam)

    def test_flat_axis(self):
        # a shape-1 axis, as the lifted planes have, on either metric
        rng = np.random.default_rng(4)
        cells = rng.integers(0, 40, size=(300, 3))
        cells[:, 1] = 5
        for fam in _both_kinds(cells * DELTA):
            _assert_matches_reference(fam)

    @pytest.mark.parametrize("d", [2, 3])
    def test_reach_exceeds_shape_on_every_axis(self, d):
        # a 5-cell-wide cluster at delta = 2^-6: reach climbs to 64
        cells = np.random.default_rng(d).integers(0, 5, size=(40, d))
        for fam in _both_kinds(cells * DELTA):
            _assert_matches_reference(fam)

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_dyadic_delta(self, d):
        # delta = 0.03: ratios 1, 2, ..., 2^5 and then 1/0.03 = 33.3
        for kind in ("points", "hyperplanes"):
            _assert_matches_reference(construct_random(kind, d, 0.03, 300, seed=d))
        cells = np.random.default_rng(d).integers(-20, 20, size=(200, d))
        for fam in _both_kinds(cells * 0.03 + 0.015, delta=0.03):
            _assert_matches_reference(fam)

    def test_lattice_cells_on_the_grid_faces(self):
        _assert_matches_reference(construct_grid(2, DELTA, (DELTA, 2 * DELTA)))
        _assert_matches_reference(construct_grid(3, 2.0**-4, (2.0**-3, 2.0**-4, 2.0**-2)))
        for d, n, delta in ((2, 40, DELTA), (3, 12, DELTA), (4, 5, 2.0**-3)):
            for fam in _both_kinds(_hollow_cube(d, n, delta), delta=delta):
                _assert_matches_reference(fam)


# cell sets on a lattice with a stride of 1 to 5 per axis
_CELL_SETS = st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=1, max_size=40, unique=True),
        st.tuples(*[st.integers(1, 5)] * d),
    )
)


def _assert_counts_equal_brute_force(fam):
    """Per-cell counts at every scale, with the full-ball shortcut held off,
    against the brute-force pair counts of the family's cells: as planned,
    with every scale whose grids fit sent to the stencil, and with the
    stencil held off."""
    cells = np.floor(regularity.measurement_coordinates(fam) / fam.delta).astype(np.int64)
    uniq = _distinct(cells)
    diff = uniq[:, None, :] - uniq[None, :, :]
    for weight in (regularity._STENCIL_WEIGHT, 1e-9, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "_STENCIL_WEIGHT", weight)
            (radii, _, _, cover), counts = _profile_and_counts(fam)
        assert cover == len(uniq)
        assert len(counts) == radii.size
        for r, got in zip(radii, counts):
            ratio = r / fam.delta
            if fam.kind == "points":
                within = np.sum(diff * diff, axis=-1) <= ratio * ratio
            else:
                within = np.max(np.abs(diff), axis=-1) <= math.floor(ratio + 1e-9)
            assert np.array_equal(got, within.sum(axis=1))


@given(cells_and_stride=_CELL_SETS)
@settings(max_examples=60, deadline=None)
def test_counts_equal_brute_force_pairs(cells_and_stride):
    cells, stride = cells_and_stride
    delta = 2.0**-3
    cells = np.array(cells, dtype=np.int64) * np.array(stride)
    for fam in _both_kinds((cells + 0.5) * delta, delta=delta):
        assert regularity._scale_profile(fam)[3] == len(cells)
        _assert_counts_equal_brute_force(fam)


@given(cells_and_stride=_CELL_SETS, scale=st.sampled_from([1, 2**26]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_of_repeated_cells_is_that_of_the_distinct_cells(cells_and_stride, scale, data):
    # min, max and gcd ignore repeats: repeated rows give the distinct rows'
    # lattice, and each row its own u; at scale 2^26 a box of more than one
    # cell is past the exact guard, and the stride is 1
    cells, step = cells_and_stride
    cells = np.array(cells, dtype=np.int64) * np.array(step) * scale
    extra = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=40))
    rows = np.array(data.draw(st.permutations(list(range(len(cells))) + extra)), dtype=np.intp)
    exact, stride, u, u_shape = regularity._lattice(cells.T.copy())
    got_exact, got_stride, got_u, got_shape = regularity._lattice(cells[rows].T.copy())
    assert got_exact == exact
    assert np.array_equal(got_stride, stride) and np.array_equal(got_shape, u_shape)
    assert np.array_equal(got_u, u[rows])
    assert np.array_equal(u_shape, u.max(axis=0) + 1)
    assert exact == (scale == 1 or len(cells) == 1)


def _brute_force_counts(offsets, ratio):
    diff = offsets[:, None, :] - offsets[None, :, :]
    return np.sum(np.sum(diff * diff, axis=-1) <= ratio * ratio, axis=1)


def _stencil(offsets, ratio):
    """Ball counts of lattice cells by the column stencil alone, at any ratio."""
    shape = offsets.max(axis=0) + 1
    clip = np.minimum(int(math.floor(ratio + 1e-9)), shape - 1)
    q = math.floor(min(ratio * ratio, int(np.sum(clip * clip))))
    cols, halves = regularity._ball_columns(q, clip, np.ones_like(clip))
    prefix, centres = regularity._prefix_grid(offsets, shape, clip, [-1])
    return regularity._stencil_counts(prefix, centres, cols, halves)


# ratios whose square is one ulp below an integer: 1 / delta for these
# deltas, so a profile reaches them at r = 1
_ULP_BELOW = {9: 0.33333333333333337, 26: 0.19611613513818404, 36: 0.16666666666666669}


def test_isqrt_is_exact_below_two_to_the_52():
    # stencil clips stay below DENSE_LIMIT / 2 <= 2^26, so their squares
    # stay below 2^52
    assert regularity.DENSE_LIMIT <= 2**27
    roots = np.concatenate([np.arange(3000), np.random.default_rng(0).integers(0, 2**26, 3000),
                            [2**26 - 1]])
    x = np.concatenate([roots * roots, roots * roots + 1, (roots + 1) * (roots + 1) - 1])
    x = x[x < 2**52]
    assert np.array_equal(regularity._isqrt(x), [math.isqrt(int(v)) for v in x])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 2.5, 4.0, 5.0, 7.9]
                         + [1.0 / delta for delta in _ULP_BELOW.values()])
def test_ball_columns_are_the_fft_kernel(d, ratio):
    # the columns, unrolled, are the clipped kernel's cells o with
    # `|g o|^2 <= ratio * ratio`, for unit strides g and for strides
    # (1, 2, 3, 1), with the clip at reach // g and below it on some axes
    reach = int(math.floor(ratio + 1e-9))
    for stride in (np.ones(d, dtype=np.int64), np.array([1, 2, 3, 1])[:d]):
        weights = stride * stride
        for clip in (reach // stride, np.minimum(reach // stride, np.arange(d) + 2)):
            axes = np.meshgrid(*[np.arange(-c, c + 1) for c in clip], indexing="ij")
            cells = np.stack(axes, -1).reshape(-1, d)
            dist2 = np.sum((cells * stride).astype(np.float64) ** 2, axis=1)
            want = {tuple(o) for o in cells[dist2 <= ratio * ratio]}
            q = math.floor(min(ratio * ratio, int(np.sum(weights * clip * clip))))
            cols, halves = regularity._ball_columns(q, clip, weights)
            assert cols.dtype == halves.dtype == np.int64
            got = [(*o, h) for o, hh in zip(cols, halves) for h in range(-hh, hh + 1)]
            assert len(got) == len(want) and set(got) == want


def _distinct(cells):
    return cells[distinct_rows(cells)[0]]


def _random_cells(d, n, width, seed):
    return _distinct(np.random.default_rng(seed).integers(0, width, size=(n, d)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stencil_counts_equal_brute_force(d):
    # hollow cubes and scattered cells
    hollow = np.round(_hollow_cube(d, {2: 30, 3: 10, 4: 5}[d], 1.0)).astype(np.int64)
    scatter = _random_cells(d, 300, 12, seed=d)
    ratios = [1.0, 2.0, 3.0, 4.0, 5.0] + [1.0 / delta for delta in _ULP_BELOW.values()]
    for offsets in (_distinct(hollow), scatter):
        for ratio in ratios:
            got = _stencil(offsets, ratio)
            assert got.dtype == np.int64
            assert np.array_equal(got, _brute_force_counts(offsets, ratio))


def _profile_paths(fam):
    paths = []
    profile, counts = _profile_and_counts(fam, paths)
    return profile, counts, paths


def _force_stencil(monkeypatch):
    # a family this small takes the FFT; with almost no weight on the
    # stencil's cost every scale whose grids fit takes the stencil
    monkeypatch.setattr(regularity, "_STENCIL_WEIGHT", 1e-9)


def test_cells_on_the_ball_boundary(monkeypatch):
    # delta = 0.2: the last ratio is 1.0 / 0.2 = 5.0 exactly, and cells
    # (3, 4, 0), (0, 0, 5), (0, 3, 4) lie on the origin's sphere, while
    # (1, 0, 5) and (3, 4, 1) lie just outside it
    delta = 0.2
    assert 1.0 / delta == 5.0
    cells = np.array([[0, 0, 0], [3, 4, 0], [0, 0, 5], [0, 3, 4], [-5, 0, 0],
                      [1, 0, 5], [3, 4, 1], [2, 2, 2], [-3, 0, -4], [0, -4, 3]])
    fam = _points((cells + 0.5) * delta, delta)
    # ten cells: each column's loop step outweighs the ten gathers it makes,
    # so every scale takes the FFT, though 3 * cover * columns alone would
    # send them all to the stencil
    assert set(_profile_paths(fam)[2]) == {"fft"}
    _force_stencil(monkeypatch)
    (radii, _, _, _), counts, paths = _profile_paths(fam)
    assert radii[-1] / delta == 5.0 and paths[-1] == "stencil"
    offsets = _distinct(cells)
    for r, got in zip(radii, counts):
        assert np.array_equal(got, _brute_force_counts(offsets, r / delta))
    origin = int(np.flatnonzero(np.all(offsets == 0, axis=1))[0])
    assert counts[-1][origin] == 8


@pytest.mark.parametrize("k", sorted(_ULP_BELOW))
def test_ratio_one_ulp_below_an_integer(k, monkeypatch):
    # at r = 1 the ratio's square is one ulp below k: a cell at squared
    # distance k is out of the ball, one at k - 1 is in
    _force_stencil(monkeypatch)
    delta = _ULP_BELOW[k]
    assert (1.0 / delta) * (1.0 / delta) == np.nextafter(float(k), 0.0)
    offsets = _random_cells(3, 150, 2 * math.isqrt(k) + 3, seed=k)
    fam = _points((offsets + 0.5) * delta, delta)
    (radii, _, _, _), counts, paths = _profile_paths(fam)
    assert radii[-1] == 1.0 and paths[-1] == "stencil"
    diff = offsets[:, None, :] - offsets[None, :, :]
    assert np.any(np.sum(diff * diff, axis=-1) == k)
    for r, got in zip(radii, counts):
        assert np.array_equal(got, _brute_force_counts(offsets, r / delta))
    _assert_same_profile(regularity._scale_profile(fam), _reference_profile(fam)[0])


def test_sharp_profile_mixes_stencil_and_fft(monkeypatch):
    # d = 3, delta = 2^-6: the small scales take the stencil, the larger ones
    # the FFT, and the profile is the FFT-only one with the rule held off.
    # The grids are counted on the points' (4, 2, 1) lattice, about an eighth
    # of their box, so the cost rule already sends ratio 4 to the FFT
    points, _ = construct_sharp(ConstructionSpec(d=3, delta=2.0**-6, s=1.75, t=1.75))
    _, _, paths = _profile_paths(points)
    assert paths == ["stencil"] * 2 + ["fft"] * 5
    got = regularity._scale_profile(points)
    monkeypatch.setattr(regularity, "_STENCIL_WEIGHT", math.inf)
    assert _profile_paths(points)[2] == ["fft"] * 7
    _assert_same_profile(got, regularity._scale_profile(points))


def test_ball_columns_are_built_once_per_scale(monkeypatch):
    # the plan builds each non-full scale's columns once, for the stencil or
    # the FFT alike, and only where its FFT grid fits: a tree scale builds none
    calls, centres = [], []
    real_columns, real_centre = regularity._ball_columns, regularity._full_ball_centre
    monkeypatch.setattr(regularity, "_ball_columns",
                        lambda *args: calls.append(1) or real_columns(*args))
    points, _ = construct_sharp(ConstructionSpec(d=3, delta=2.0**-6, s=1.75, t=1.75))
    for fam in (points, construct_random("points", 3, 2.0**-5, 2000, seed=3)):
        calls.clear()
        paths = _profile_paths(fam)[2]
        assert {"stencil", "fft"} <= set(paths) and len(calls) == len(paths)
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "_full_ball_centre",
                       lambda *args: centres.append(real_centre(*args)) or centres[-1])
            regularity._scale_profile(fam)
        # the sharp points' top scale is a full ball, and builds no columns
        assert len(calls) == sum(c is None for c in centres)
        centres.clear()
    # past DENSE_LIMIT every scale goes to the tree, and none builds columns
    calls.clear()
    monkeypatch.setattr(regularity, "DENSE_LIMIT", 1)
    assert set(_profile_paths(fam)[2]) == {"tree"} and calls == []


def test_dense_limit_compares_the_stencil_grid(monkeypatch):
    # the largest stencil scale's padded grid is the one the profile
    # allocates; one cell less and that scale takes the FFT instead
    fam = construct_random("points", 3, 2.0**-5, 2000, seed=3)
    profile, _, paths = _profile_paths(fam)
    j = max(k for k, path in enumerate(paths) if path == "stencil")
    offsets = _distinct(np.floor(fam.elements / fam.delta).astype(np.int64))
    shape = np.ptp(offsets, axis=0) + 1
    clip = np.minimum(2**j, shape - 1)
    grid = int(np.prod(shape + 2 * clip + np.eye(3, dtype=np.int64)[-1]))
    monkeypatch.setattr(regularity, "DENSE_LIMIT", grid)
    assert _profile_paths(fam)[2][:j + 1] == paths[:j + 1]
    monkeypatch.setattr(regularity, "DENSE_LIMIT", grid - 1)
    got, _, fewer = _profile_paths(fam)
    assert fewer[:j] == paths[:j] and fewer[j] == "fft"
    _assert_same_profile(got, profile)


def test_stencil_needs_its_fft_grid_to_fit(monkeypatch):
    # 90 x 90 cells: at ratio 1 the FFT grid, next_fast_len(91)^2 = 96^2,
    # is larger than the stencil's 92 x 93 grid.  Below the FFT grid the
    # scale takes the tree as it would with no stencil, not the stencil
    rng = np.random.default_rng(5)
    cells = np.vstack([[0, 0], [89, 89], rng.integers(0, 90, size=(300, 2))])
    delta = 2.0**-7
    fam = _points((cells + 0.5) * delta, delta)
    fft_grid = regularity.next_fast_len(91) ** 2
    assert 92 * 93 < fft_grid
    _, _, paths = _profile_paths(fam)
    assert paths[0] == "stencil"
    monkeypatch.setattr(regularity, "DENSE_LIMIT", fft_grid)
    assert _profile_paths(fam)[2][0] == "stencil"
    monkeypatch.setattr(regularity, "DENSE_LIMIT", fft_grid - 1)
    assert set(_profile_paths(fam)[2]) == {"tree"}


@pytest.mark.parametrize("value", [0.1, 1.4])
def test_fft_counts_that_round_wrong_raise(value, monkeypatch):
    # 1.4 is 0.4 from an integer; 0.1 is within 0.25 of 0, but a ball holds
    # its own centre, so a count that rounds to 0 is wrong all the same
    monkeypatch.setattr(regularity, "irfftn", lambda spectrum, period: np.full(period, value))
    offsets = np.array([[0, 0, 0], [1, 2, 0], [3, 0, 1]])
    columns = regularity._ball_columns(2, np.array([2, 2, 1]), np.ones(3, dtype=np.int64))
    with pytest.raises(FloatingPointError, match="0.25 of positive integers"):
        regularity._ball_counts(offsets, *columns, [6, 5, 3])


def _shortcut_off_profile(fam):
    with pytest.MonkeyPatch.context() as mp:
        _hold_full_ball_off(mp)
        return regularity._scale_profile(fam)


def _lattice_ball(d, radius):
    grid = np.stack(np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij"), -1)
    grid = grid.reshape(-1, d)
    return grid[np.sum(grid * grid, axis=1) <= radius * radius]


_BALL_RADIUS = {2: 6, 3: 4, 4: 3}


@st.composite
def _shortcut_families(draw):
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["scatter", "ball", "cluster"]))
    if kind == "scatter":
        # off-lattice points at a non-dyadic delta
        delta = draw(st.floats(0.06, 0.4))
        coords = draw(st.lists(st.tuples(*[st.floats(-0.4, 0.4)] * d), min_size=1, max_size=50))
        return _points(np.array(coords) + 0.2, delta)
    delta = draw(st.sampled_from([2.0**-3, 0.1, 2.0**-4]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "ball":
        # a thinned lattice ball that keeps its 2d axis tips, so the corners
        # of its bounding box stay empty and many centres are undecided
        radius = draw(st.integers(1, _BALL_RADIUS[d]))
        cells = _lattice_ball(d, radius)
        tips = np.max(np.abs(cells), axis=1) == radius
        cells = cells[tips | (rng.random(len(cells)) < draw(st.floats(0.2, 1.0)))]
    else:
        # a tight cluster: at the larger scales several centres pass, a tie
        width = draw(st.integers(1, 3))
        cells = np.unique(rng.integers(0, width, size=(draw(st.integers(1, 12)), d)), axis=0)
    return _points((cells + 0.5) * delta, delta)


@given(fam=_shortcut_families())
@settings(max_examples=120, deadline=None)
def test_full_ball_shortcut_keeps_the_profile(fam):
    _assert_same_profile(regularity._scale_profile(fam), _shortcut_off_profile(fam))


@pytest.mark.parametrize("d,radius", [(2, 4), (3, 4), (4, 4)])
def test_undecided_centre_falls_back_to_the_fft(d, radius):
    # a whole lattice ball at delta = 1/8, r = 1 (ratio 8): the first cell,
    # an axis tip, holds the ball, but only the box-corner bound of a later
    # centre passes, and the diagonal bound cannot rule the tip out
    delta = 2.0**-3
    fam = _points((_lattice_ball(d, radius) + 0.5) * delta, delta)
    offsets = _distinct(np.floor(fam.elements / delta).astype(np.int64))
    offsets -= offsets.min(axis=0)
    shape = offsets.max(axis=0) + 1
    corner2 = np.sum(np.maximum(offsets, shape - 1 - offsets) ** 2, axis=1)
    assert np.any(corner2 <= 64) and corner2[0] > 64
    assert regularity._full_ball_centre(offsets, np.ones(d, dtype=np.int64), corner2, 64) is None
    got = regularity._scale_profile(fam)
    _assert_same_profile(got, _reference_profile(fam)[0])
    assert got[1][-1] == got[3] and got[2][-1] == 0


def test_centre_on_its_ball_boundary_is_not_ruled_out():
    # delta = 0.2, r = 1: ratio 5.  Cell (0, 0) holds every cell in its ball,
    # the farthest, (3, 4), exactly on the sphere and the unique x + y
    # extreme; so its lower bound equals 25 and rules nothing out, and the
    # later (2, 2), whose box-corner bound passes, must not take the argmax
    delta = 0.2
    fam = _points((np.array([[0, 0], [2, 2], [3, 4], [4, 1]]) + 0.5) * delta, delta)
    got = regularity._scale_profile(fam)
    _assert_same_profile(got, _reference_profile(fam)[0])
    assert got[1][-1] == 4 and got[2][-1] == 0


@pytest.mark.parametrize("dims", [(1, 1), (5, 1), (4, 7), (6, 6), (2, 5, 3), (4, 4, 4), (3, 2, 4, 3)])
def test_full_boxes_are_always_decided(dims):
    # in a box with every cell occupied the diagonal extremes are the box
    # corners, so the lower bound meets the upper one and the helper finds
    # the first centre holding the ball whenever one exists
    offsets = np.stack(np.meshgrid(*[np.arange(n) for n in dims], indexing="ij"), -1)
    offsets = offsets.reshape(-1, len(dims))
    far2 = np.sum((offsets[:, None, :] - offsets[None, :, :]) ** 2, axis=-1).max(axis=1)
    corner2 = np.sum(np.maximum(offsets, np.array(dims) - 1 - offsets) ** 2, axis=1)
    assert np.array_equal(corner2, far2)
    for ratio in (1.0, 2.0, 2.5, 3.0, 4.0, 8.0):
        passing = np.flatnonzero(far2 <= ratio * ratio)
        want = int(passing[0]) if passing.size else None
        q = math.floor(ratio * ratio)
        assert regularity._full_ball_centre(offsets, np.ones(len(dims), dtype=np.int64),
                                            corner2, q) == want


@pytest.mark.parametrize("d", [2, 3])
def test_strided_bounds_are_those_of_the_offsets(d):
    # the bounds measured on u with stride g decide every q as those
    # measured on the offsets g u with unit stride: same cells, same values
    rng = np.random.default_rng(d)
    for _ in range(20):
        stride = rng.integers(1, 5, size=d)
        u = _random_cells(d, 30, 6, seed=int(rng.integers(2**31)))
        u = u[rng.permutation(len(u))] - u.min(axis=0)
        corner2 = np.sum(stride**2 * np.maximum(u, u.max(axis=0) - u) ** 2, axis=1)
        for q in range(int(corner2.max()) + 2):
            assert regularity._full_ball_centre(u, stride, corner2, q) == \
                regularity._full_ball_centre(u * stride, np.ones(d, dtype=np.int64), corner2, q)


def test_boxes_past_exact_squares_take_the_other_paths():
    # delta = 2^-40: offsets reach 2^39, whose squares wrap in int64; the
    # shortcut declines and the tree counts each cell alone at small scales
    fam = _points([[0.0, 0.0], [0.5, 0.0], [0.5, 2.0**-40]], delta=2.0**-40)
    got = regularity._scale_profile(fam)
    _assert_same_profile(got, _shortcut_off_profile(fam))
    assert list(got[1][:3]) == [2, 2, 2] and got[1][-1] == 3


def _lattices_counted(fam):
    """The per-axis strides of the cells each prefix grid and FFT grid is
    built on, with the full-ball shortcut held off: the box's span over the
    span of those cells, and 1 on a one-value axis."""
    strides = []
    cells = np.floor(regularity.measurement_coordinates(fam) / fam.delta).astype(np.int64)
    span = np.ptp(cells, axis=0)
    with pytest.MonkeyPatch.context() as mp:
        _hold_full_ball_off(mp)
        for name in ("_prefix_grid", "_ball_counts"):
            real = getattr(regularity, name)

            def record(u, *args, _real=real):
                strides.append(np.where(span > 0, span // np.maximum(np.ptp(u, axis=0), 1), 1))
                return _real(u, *args)

            mp.setattr(regularity, name, record)
        regularity._scale_profile(fam)
    return strides


def _strided_cells(stride, n, width, seed):
    return _random_cells(len(stride), n, width, seed) * np.array(stride)


@pytest.mark.parametrize("stride,delta", [((2, 3), DELTA), ((5, 2), DELTA), ((3, 4, 5), 2.0**-4),
                                          ((2, 5, 1), 2.0**-4), ((4, 3, 2, 5), 2.0**-3)])
def test_strided_cells_equal_brute_force(stride, delta):
    # scattered cells with strides 2-5 mixed per axis, as points and as
    # planes; the d = 4 case stays at delta = 2^-3 for the reference's sake
    cells = _strided_cells(stride, 150, {2: 12, 3: 6, 4: 4}[len(stride)], seed=sum(stride))
    for fam in _both_kinds((cells + 0.5) * delta, delta=delta):
        _assert_counts_equal_brute_force(fam)
        _assert_matches_reference(fam)
        lattices = _lattices_counted(fam)
        assert lattices and all(np.array_equal(g, stride) for g in lattices)


@pytest.mark.parametrize("d", [2, 3])
def test_one_value_axis_beside_a_strided_axis(d):
    # the one-value axis has gcd 0 and counts with g = 1; the others keep
    # their strides 3 and 2
    cells = _strided_cells((3, 1, 2)[:d], 120, 12, seed=d)
    cells[:, 1] = 7
    cells = _distinct(cells)
    for fam in _both_kinds((cells + 0.5) * DELTA):
        _assert_counts_equal_brute_force(fam)
        _assert_matches_reference(fam)
        assert all(np.array_equal(g, (3, 1, 2)[:d]) for g in _lattices_counted(fam))


def test_stride_that_appears_after_the_shift():
    # cells 3 + 4k and -5 + 6k have gcd 1 as they stand, and strides 4 and
    # 6 once the least cell is subtracted
    k = _random_cells(2, 80, 10, seed=11)
    cells = np.column_stack([3 + 4 * k[:, 0], -5 + 6 * k[:, 1]])
    assert np.array_equal(np.gcd.reduce(cells, axis=0), [1, 1])
    for fam in _both_kinds((cells + 0.5) * DELTA):
        _assert_counts_equal_brute_force(fam)
        _assert_matches_reference(fam)
        assert all(np.array_equal(g, [4, 6]) for g in _lattices_counted(fam))


def test_cells_on_the_weighted_sphere(monkeypatch):
    # strides (3, 4, 5) at delta = 0.2, so q = 25 at r = 1: from the origin
    # (3, 4, 0), (-3, -4, 0) and (0, 0, 5) lie on the sphere |G o|^2 = 25 and
    # (3, 0, 5), at 34, on the next lattice shell past it; at r = 0.8, q =
    # 16 and (0, 4, 0) lies on the sphere
    delta = 0.2
    u = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [2, 0, 0], [1, 1, 1],
                  [0, 1, 0], [-1, -1, 0], [0, 2, 1], [0, -1, -1]])
    cells = u * np.array([3, 4, 5])
    fam = _points((cells + 0.5) * delta, delta)
    _assert_counts_equal_brute_force(fam)
    assert set(_profile_paths(fam)[2]) == {"fft"}
    _force_stencil(monkeypatch)
    (radii, _, _, _), counts, paths = _profile_paths(fam)
    assert list(radii[-2:] / delta) == [4.0, 5.0] and paths[-2:] == ["stencil"] * 2
    origin = int(np.flatnonzero(np.all(_distinct(cells) == 0, axis=1))[0])
    assert [counts[-2][origin], counts[-1][origin]] == [2, 5]


@pytest.mark.parametrize("d", [2, 3])
def test_code_max_table_takes_a_reach_per_axis(d):
    # at delta = 2^-5 the sharp planes' code cells lie on strides (1, 2) and
    # (1, 2, 0): the table is built on u, and a box of reach R spans R // g_k
    # steps of u
    _, planes = construct_sharp(ConstructionSpec(d=d, delta=2.0**-5, s=1.75, t=1.75))
    reaches = []
    real = regularity._box_counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "_box_counts",
                   lambda table, u, reach: reaches.append(reach) or real(table, u, reach))
        regularity._scale_profile(planes)
    assert [list(r) for r in reaches] == [[2**j, 2**j // 2, 2**j][:d] for j in range(6)]
    _assert_counts_equal_brute_force(planes)


def test_lattice_grids_fit_where_the_box_does_not(monkeypatch):
    # a 9 x 9 grid of points 128 cells apart: its box spans 1025^2 cells, its
    # lattice 9^2, so with room for neither the box nor a tree every scale
    # is still counted, and gives the tree's profile
    fam = construct_grid(2, 2.0**-10, (2.0**-3, 2.0**-3))
    monkeypatch.setattr(regularity, "DENSE_LIMIT", 1)
    want = regularity._scale_profile(fam)
    monkeypatch.setattr(regularity, "DENSE_LIMIT", 1000)
    monkeypatch.setattr(regularity, "TREE_LIMIT", 1)
    _assert_same_profile(regularity._scale_profile(fam), want)
    _assert_same_profile(_shortcut_off_profile(fam), want)


# 2 * _EDGE^2 < 2^52 <= 2 * (_EDGE + 1)^2
_EDGE = math.isqrt(2**51 - 1)


@pytest.mark.parametrize("span,paths", [(_EDGE, {"fft"}), (_EDGE + 1, {"tree"})])
def test_stride_needs_exact_weighted_squares(span, paths):
    # cells (0, 0), (s, 0) and (s, 1) at delta = 2^-26 lie on strides (s, 1),
    # whose 2 x 2 lattice grid fits every dense path.  While 2 s^2 < 2^52 the
    # stride is taken, and at r = 1 q clamps to s^2 + 1, the weighted square
    # of (s, 1) from the origin; one step past, the grid spans the s + 1
    # cells and the tree counts
    delta = 2.0**-26
    cells = np.array([[0, 0], [span, 0], [span, 1]])
    fam = _points((cells + 0.5) * delta, delta)
    assert (2 * span**2 < 2**52) == (span == _EDGE)
    (radii, _, _, _), counts, got_paths = _profile_paths(fam)
    assert set(got_paths) == paths
    for r, got in zip(radii, counts):
        assert np.array_equal(got, _brute_force_counts(cells, r / delta))
    assert [list(c) for c in counts[-2:]] == [[1, 2, 2], [3, 3, 3]]
    _assert_same_profile(regularity._scale_profile(fam), _shortcut_off_profile(fam))


def test_grid_sizes_do_not_wrap():
    # code cells spanning 2^32 - 1 cells on two axes: the table would hold
    # 2^32 x 2^32 x 2 cells, 2^65, which wraps to 0 in int64
    delta = 2.0**-32
    cells = np.array([[0, 0, 0], [2**32 - 2, 0, 0], [0, 2**32 - 2, 0]])
    fam = _planes(np.roll((cells + 0.5) * delta - 0.5, -1, axis=1), delta)
    assert np.array_equal(np.ptp(np.floor(code_coordinates(fam.elements) / delta), axis=0),
                          [2**32 - 2, 2**32 - 2, 0])
    radii, counts, _, cover = regularity._scale_profile(fam)
    assert cover == 3 and list(counts) == [1] * (radii.size - 1) + [3]


def _brute_force_separation(pts):
    best = math.inf
    for i in range(len(pts) - 1):
        diff = pts[i + 1:] - pts[i]
        best = min(best, float(np.sqrt(np.sum(diff * diff, axis=1)).min()))
    return best


class TestPointSeparationMatchesScan:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lattice_points_with_ties(self, d, seed):
        # points on the 1/8 lattice: most nearest-neighbour distances tie
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.integers(-8, 9, size=(600, d)) / 8.0, axis=0)
        assert min_separation(_points(pts)) == _brute_force_separation(pts) == 0.125
        assert regularity._lattice_separation(_points(pts)) == 0.125

    @pytest.mark.parametrize("d", [2, 3])
    def test_lattice_with_duplicates_and_a_close_pair(self, d):
        pts = _lattice_ball(d, 4) / 8.0
        assert min_separation(_points(pts)) == _brute_force_separation(pts)
        close = np.vstack([pts, pts[3] + np.eye(d)[0] * 2.0**-20])
        assert min_separation(_points(close)) == _brute_force_separation(close) == 2.0**-20
        dup = np.vstack([pts, pts[5]])
        assert min_separation(_points(dup)) == 0.0

    def test_sharp_points(self):
        points, _ = construct_sharp(ConstructionSpec(d=2, delta=2.0**-5, s=1.75, t=1.75))
        assert min_separation(points) == _brute_force_separation(points.elements)

    def test_positive_minimum_measures_nothing_again(self, monkeypatch):
        # only a zero kd-tree minimum sends pairs to `root_sum_squares`
        def refuse(*args):
            raise AssertionError("pairs measured again")

        monkeypatch.setattr("incgeom.regularity.root_sum_squares", refuse)
        monkeypatch.setattr(regularity, "_lattice_separation", lambda fam: None)
        pts = _lattice_ball(3, 4) / 8.0
        assert min_separation(_points(pts)) == 0.125
        with pytest.raises(AssertionError, match="measured again"):
            min_separation(_points(np.vstack([pts, pts[5]])))

    @pytest.mark.parametrize("d", [2, 3])
    def test_duplicates_beside_an_underflowing_pair(self, d):
        # a pair 1e-200 apart is positive until an exact duplicate joins it
        pts = np.vstack([_lattice_ball(d, 2) / 8.0, np.eye(d)[0] * 1e-200])
        assert min_separation(_points(pts)) == 1e-200
        assert min_separation(_points(np.vstack([pts, pts[3]]))) == 0.0


def _separations(fam, monkeypatch):
    """The lattice search's answer (None where it does not apply), that of
    `min_separation`, and that of its kd-tree alone."""
    lattice = regularity._lattice_separation(fam)
    got = min_separation(fam)
    with monkeypatch.context() as m:
        m.setattr(regularity, "_lattice_separation", lambda fam: None)
        kd = min_separation(fam)
    return lattice, got, kd


def _same_bits(*values):
    return len({np.float64(v).tobytes() for v in values}) == 1


class TestLatticeSeparation:
    @pytest.mark.parametrize("d, k, s", [(2, 4, 1.75), (2, 6, 1.75), (3, 4, 1.75),
                                         (3, 5, 1.25), (4, 4, 1.25), (4, 4, 1.0)])
    def test_sharp_points_equal_brute_force(self, d, k, s, monkeypatch):
        points, _ = construct_sharp(ConstructionSpec(d=d, delta=2.0**-k, s=s, t=s))
        lattice, got, kd = _separations(points, monkeypatch)
        assert lattice is not None
        assert _same_bits(lattice, got, kd, _brute_force_separation(points.elements))

    @pytest.mark.parametrize("d, k, s", [(3, 6, 1.75), (4, 5, 1.0)])
    def test_larger_sharp_points_equal_the_kd_tree(self, d, k, s, monkeypatch):
        # a scan of these 36,465 and 19,074 points would take seconds
        points, _ = construct_sharp(ConstructionSpec(d=d, delta=2.0**-k, s=s, t=s))
        lattice, got, kd = _separations(points, monkeypatch)
        assert lattice is not None and _same_bits(lattice, got, kd)

    @pytest.mark.parametrize("stride", [(3, 1), (4, 2, 1), (2, 3, 5), (1, 1, 6, 2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_coarser_lattices(self, stride, seed, monkeypatch):
        # strides past 1 weight the steps: the nearest pair may lie along
        # any axis, or on a diagonal
        rng = np.random.default_rng(seed)
        cells = np.unique(rng.integers(0, 12, size=(150, len(stride))) * stride, axis=0)
        pts = cells * 2.0**-7
        fam = _points(pts, 2.0**-7)
        _, lattice_stride, _, _ = regularity._lattice(regularity._floor_cells(pts, 2.0**-7).T)
        assert np.all(lattice_stride % stride == 0)
        lattice, got, kd = _separations(fam, monkeypatch)
        assert lattice is not None
        assert _same_bits(lattice, got, kd, _brute_force_separation(pts))

    @pytest.mark.parametrize("name, pts, delta", [
        # the nearest pair is 7 steps apart, past the +-2-step search
        ("past-the-search", np.array([[0, 0], [7, 0], [100, 0]]) * 2.0**-7, 2.0**-7),
        # 3 steps: the first length the search cannot vouch for
        ("just-past-the-search", np.array([[0, 0], [3, 0], [100, 0]]) * 2.0**-7, 2.0**-7),
        # a pair on the (2, 2, 2) diagonal, q = 12, is in the search, but a pair
        # 3 steps apart, q = 9, is nearer and is not
        ("diagonal-in-the-search",
         np.array([[0, 0, 0], [2, 2, 2], [10, 0, 0], [13, 0, 0], [20, 21, 23]]) * 2.0**-7,
         2.0**-7),
        ("off-the-lattice", np.random.default_rng(4).random((300, 3)) * 0.5, 2.0**-6),
        # x / 0.1 is an integer for these x = k 0.1, but 0.1 is no power of two
        ("non-dyadic-delta", np.array(list(itertools.product((0, 1, 2, 4, 5, 7), repeat=2)))
         * 0.1, 0.1),
        ("two-in-a-cell", np.array([[0, 0], [3, 1], [5, 5], [3, 1]]) * 2.0**-6, 2.0**-6),
        # a padded occupancy grid of 16388^2 cells, over DENSE_LIMIT
        ("grid-too-large", np.array([[0, 0], [1, 0], [0, 1], [2**14 - 1, 2**14 - 1]])
         * 2.0**-14,
         2.0**-14),
    ])
    def test_other_families_take_the_kd_tree(self, name, pts, delta, monkeypatch):
        lattice, got, kd = _separations(_points(pts, delta), monkeypatch)
        assert lattice is None
        assert _same_bits(got, kd, _brute_force_separation(pts))

    def test_kd_tree_is_built_only_off_the_lattice(self, monkeypatch):
        built = []
        real = regularity.cKDTree

        def spy(data, **kwargs):
            built.append(len(data))
            return real(data, **kwargs)

        monkeypatch.setattr(regularity, "cKDTree", spy)
        points, _ = construct_sharp(ConstructionSpec(d=3, delta=2.0**-5, s=1.75, t=1.75))
        min_separation(points)
        assert built == []
        min_separation(construct_random("points", 3, 2.0**-5, 500, seed=2))
        assert built == [500]

    @pytest.mark.parametrize("name", ["sharp", "duplicate"])
    def test_separation_sorts_no_rows(self, name, monkeypatch):
        # the occupancy grid, not a row dedup, shows one point per cell; a
        # duplicate point still falls back to the kd-tree's 0.0
        rows = []
        real = regularity.distinct_rows
        monkeypatch.setattr(regularity, "distinct_rows",
                            lambda cells: rows.append(cells.shape) or real(cells))
        if name == "sharp":
            fam, _ = construct_sharp(ConstructionSpec(d=3, delta=2.0**-5, s=1.75, t=1.75))
            want = regularity._lattice_separation(fam)
            assert want is not None
        else:
            pts = _lattice_ball(3, 4) / 8.0
            fam = _points(np.vstack([pts, pts[5]]))
            assert regularity._lattice_separation(fam) is None
            want = 0.0
        assert min_separation(fam) == want
        assert rows == []

    def test_occupancy_grid_takes_one_byte_per_cell(self, monkeypatch):
        # the separation only reads whether a cell is occupied, so its grid
        # is bool; the table and the stencil's grids stay int32 sums
        grids = []
        real = regularity._prefix_grid

        def spy(*args):
            grids.append(real(*args))
            return grids[-1]

        monkeypatch.setattr(regularity, "_prefix_grid", spy)
        points, _ = construct_sharp(ConstructionSpec(d=3, delta=2.0**-5, s=1.75, t=1.75))
        lattice, got, kd = _separations(points, monkeypatch)
        assert lattice is not None and _same_bits(lattice, got, kd)
        assert grids and all(g.dtype == bool and g.itemsize == 1 for g, _ in grids)
        grids.clear()
        regularity._scale_profile(points)
        assert grids and all(g.dtype == np.int32 for g, _ in grids)

    def test_delta_whose_square_underflows_takes_the_kd_tree(self):
        # 2^-540 squared is below the least subnormal, 2^-1074: q delta^2
        # would be 0, and the kd-tree's zero is measured again instead
        pts = np.array([[0, 0], [1, 0], [0, 3]]) * 2.0**-540
        assert regularity._lattice_separation(_points(pts, 2.0**-540)) is None
        assert min_separation(_points(pts, 2.0**-540)) == 2.0**-540

    def test_cells_past_int64_take_the_kd_tree(self):
        # a dyadic delta whose cells, 2^99 and up, do not fit int64
        pts = np.array([[0.5, 0.5], [0.5, 0.75], [0.75, 0.75]])
        assert regularity._lattice_separation(_points(pts, 2.0**-100)) is None
        assert min_separation(_points(pts, 2.0**-100)) == 0.25


class TestCellOverflow:
    """Cells of |x / rho| >= 2^63 would wrap in the int64 cast: every grid
    refuses them rather than count wrapped cells."""

    PTS = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.1]])

    def test_covering_number_refuses(self):
        with pytest.raises(ValueError, match="cell index overflows int64"):
            covering_number(_points(self.PTS, 0.5), 1e-30)

    def test_profiles_refuse(self):
        fam = _points(self.PTS, 1e-30)
        with pytest.raises(ValueError, match="cell index overflows int64"):
            regularity_constant(fam, 1.0)
        with pytest.raises(ValueError, match="cell index overflows int64"):
            regularity_constant(_planes(self.PTS * [0.1, 1.0], 1e-30), 1.0,
                                use_affine_metric=True)

    def test_separation_is_still_measured(self):
        # the kd-tree's value, as before the refusal
        assert min_separation(_points(self.PTS, 1e-30)) == 0.282842712474619
        assert _brute_force_separation(self.PTS) == 0.282842712474619

    def test_summary_records_the_refusal(self):
        from incgeom.harness import _family_summary

        info = _family_summary(_points(self.PTS, 1e-30), 1.0)
        assert info["min_separation"] == 0.282842712474619
        assert info["regularity"] is None
        assert info["regularity_note"].startswith("skipped: cell index overflows int64")

    def test_largest_castable_cells_are_kept(self):
        # |x / rho| just below 2^63 casts exactly; at 2^63 it would wrap
        pts = np.array([[0.5, 0.0], [0.25, 0.0]])
        assert covering_number(_points(pts), 2.0**-63) == 2
        with pytest.raises(ValueError, match="cell index overflows int64"):
            covering_number(_points(pts), 2.0**-64)


class TestAffineMetricVariant:
    def test_exact_agreement_on_parallel_lines(self):
        # zero slopes: affine distance equals the intercept gap, which is
        # exactly the code-space max metric, so the profiles must agree
        icpts = np.arange(-8, 9) * DELTA
        fam = Family(
            kind="hyperplanes",
            elements=np.column_stack([np.zeros(17), icpts]),
            delta=DELTA,
            dim=2,
        )
        ra = regularity_constant(fam, 1.0, use_affine_metric=True)
        rc = regularity_constant(fam, 1.0)
        assert ra.per_scale == rc.per_scale
        assert ra.metric == "affine"

    def test_matches_a_scan_of_each_element(self):
        # the lines 0, 1, ..., 16 delta tie at the small scales, where the
        # first maximum is the argmax
        lines = np.column_stack([np.zeros(17), np.arange(17) * DELTA])
        for fam in (Family(kind="hyperplanes", elements=lines, delta=DELTA, dim=2),
                    construct_random("hyperplanes", 2, DELTA, 150, seed=9),
                    construct_random("hyperplanes", 3, 2.0**-3, 150, seed=2)):
            cells = np.floor(code_coordinates(fam.elements) / fam.delta)
            pair = affine_metric(fam.elements[:, None, :], fam.elements[None, :, :])
            radii, max_counts, argmax, cover = regularity._affine_profile(fam)
            assert cover == len({tuple(c) for c in cells})
            for r, got_max, got_arg in zip(radii, max_counts, argmax):
                counts = [len({tuple(c) for c in cells[row <= r]}) for row in pair]
                assert (got_max, got_arg) == (max(counts), counts.index(max(counts)))

    def test_row_blocks_give_the_unblocked_profile(self, monkeypatch):
        fam = construct_random("hyperplanes", 3, 2.0**-3, 150, seed=2)
        whole = regularity._affine_profile(fam)
        for block in (1, 300, 1050):  # 1, 2 and 7 rows, the last block short
            monkeypatch.setattr(regularity, "_AFFINE_BLOCK", block)
            got = regularity._affine_profile(fam)
            assert all(np.array_equal(a, b) for a, b in zip(got, whole))

    def test_peak_memory_stays_at_the_row_block(self):
        # the whole 2,000 x 2,000 pair matrix and its temporaries peak
        # near 344 MiB
        fam = construct_random("hyperplanes", 3, 2.0**-5, 2000, seed=1)
        tracemalloc.start()
        try:
            regularity._affine_profile(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2**20

    def test_bounded_disagreement_on_random_planes(self):
        fam = construct_random("hyperplanes", 2, DELTA, 300, seed=9)
        ca = regularity_constant(fam, 1.5, use_affine_metric=True).c_star
        cc = regularity_constant(fam, 1.5).c_star
        assert max(ca / cc, cc / ca) <= 10.0

    def test_refused_for_points(self, grid64):
        with pytest.raises(ValueError, match="hyperplane"):
            regularity_constant(grid64, 1.0, use_affine_metric=True)

    def test_empty_family(self):
        fam = Family(kind="hyperplanes", elements=np.empty((0, 2)), delta=DELTA, dim=2)
        for affine in (False, True):
            with pytest.raises(ValueError, match="regularity profile of an empty family"):
                regularity_constant(fam, 1.0, use_affine_metric=affine)

    def test_size_cap(self):
        coeffs = np.column_stack([np.zeros(4001), np.linspace(-0.9, 0.9, 4001)])
        fam = Family(kind="hyperplanes", elements=coeffs, delta=DELTA, dim=2)
        with pytest.raises(ValueError, match="affine-metric profile refused"):
            regularity_constant(fam, 1.0, use_affine_metric=True)


class TestBestDimension:
    def test_singleton(self):
        fam = Family(kind="points", elements=np.array([[0.1, 0.2]]), delta=DELTA, dim=2)
        assert best_dimension(fam, 1) == 0.0

    def test_full_grid_saturates(self, grid64):
        assert best_dimension(grid64, 16) == 2.0

    def test_segment_crossover_value(self):
        # unit segment at delta = 2^-10: the exact crossover of the
        # worst-scale ratio 3 / (delta^s 1025) = 16 is
        # s = log2(16 * 1025 / 3) / 10 = 1.241647...; bisection stops
        # within 1e-3 below it
        delta = 2.0**-10
        xs = np.arange(1025) * delta
        fam = Family(
            kind="points",
            elements=np.column_stack([xs, np.zeros(1025)]),
            delta=delta,
            dim=2,
        )
        assert abs(best_dimension(fam, 16) - 1.24165) < 2e-3

    def test_rejects_small_c_max(self, grid64):
        with pytest.raises(ValueError, match="c_max"):
            best_dimension(grid64, 0.5)


def test_dual_family_regularity_is_comparable():
    """Replacing each plane by its coefficient point changes the measured
    regularity constant by a bounded factor only."""
    planes = construct_random("hyperplanes", 2, DELTA, 300, seed=9)
    duals = Family(
        kind="points",
        elements=np.array(planes.elements, copy=True),
        delta=DELTA,
        dim=2,
    )
    cp = regularity_constant(planes, 1.5).c_star
    cd = regularity_constant(duals, 1.5).c_star
    assert max(cp / cd, cd / cp) <= 20.0


def test_report_to_dict_round_trips_fields(grid64):
    report = katz_tao_constant(grid64, 1.0)
    d = report.to_dict()
    assert d["variant"] == "katz-tao"
    assert d["c_star"] == report.c_star
    assert len(d["per_scale"]) == len(report.per_scale)
