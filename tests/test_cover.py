import itertools
import math

import numpy as np
import pytest

from incgeom import cover as cover_mod
from incgeom.cover import (Box, BoxCover, COUNT_CONSTANT,
                           slab_intersection_cover, verify_cover)
from incgeom.geometry import point_plane_distance

DELTA = 2.0**-8
PI1 = np.array([0.0, 0.0, 0.0])
PI2 = np.array([2.0**-3, 0.0, 3 * DELTA])


@pytest.fixture(scope="module")
def reference_cover():
    return slab_intersection_cover(PI1, PI2, DELTA)


class TestBox:
    def test_contains_axis_aligned(self):
        box = Box(
            center=np.zeros(2),
            axes=np.eye(2),
            half_lengths=np.array([1.0, 0.5]),
            thin_axis=1,
        )
        inside = np.array([[0.9, 0.4], [-1.0, 0.5]])
        outside = np.array([[1.1, 0.0], [0.0, 0.51]])
        assert box.contains(inside).all()
        assert not box.contains(outside).any()

    def test_rejects_skew_axes(self):
        axes = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            Box(np.zeros(2), axes, np.ones(2), 0)

    def test_rejects_degenerate_half_lengths(self):
        with pytest.raises(ValueError, match="positive"):
            Box(np.zeros(2), np.eye(2), np.array([1.0, 0.0]), 0)

    def test_rejects_thin_axis_out_of_range(self):
        with pytest.raises(ValueError, match="thin_axis"):
            Box(np.zeros(2), np.eye(2), np.ones(2), 2)


class TestCoverConstruction:
    def test_reference_box_count(self, reference_cover):
        assert len(reference_cover.boxes) == 774
        assert reference_cover.count_bound == COUNT_CONSTANT / DELTA
        assert len(reference_cover.boxes) <= reference_cover.count_bound

    def test_box_shape(self, reference_cover):
        """Every tile is delta/w long in the intersection direction and at
        most a few delta across everywhere else."""
        w = reference_cover.w
        for box in reference_cover.boxes:
            thin = box.half_lengths[box.thin_axis]
            assert DELTA / w / 4 <= thin <= 4 * DELTA / w
            others = np.delete(box.half_lengths, box.thin_axis)
            assert np.all(others <= 4 * DELTA)

    def test_axes_orthonormal(self, reference_cover):
        for box in reference_cover.boxes[:25]:
            gram = box.axes @ box.axes.T
            assert np.allclose(gram, np.eye(3), atol=1e-9)

    def test_angle_recorded(self, reference_cover):
        # w is the distance of unit normals, here ~ the slope difference
        assert reference_cover.w == pytest.approx(2.0**-3, rel=0.1)

    def test_parallel_far_apart_is_empty(self):
        cover = slab_intersection_cover(PI1, np.array([0.0, 0.0, 0.5]), DELTA)
        assert cover.boxes == ()

    def test_small_angle_still_covers(self):
        # w between delta and 4 delta: the strip branch must still fire
        pi2 = np.array([2.5 * DELTA, 0.0, DELTA])
        cover = slab_intersection_cover(PI1, pi2, DELTA)
        assert len(cover.boxes) > 0
        report = verify_cover(PI1, pi2, DELTA, cover, n_samples=1000, seed=4)
        assert report.fraction == 1.0

    def test_merged_scales_are_refused(self):
        pi2 = np.array([DELTA / 2, 0.0, 0.0])
        with pytest.raises(ValueError, match="scales merge"):
            slab_intersection_cover(PI1, pi2, DELTA)

    def test_plane_validation_applies(self):
        with pytest.raises(ValueError, match="plane"):
            slab_intersection_cover(np.array([11.0, 0.0, 0.0]), PI2, DELTA)

    def test_planar_case_is_constant_size(self):
        pi1 = np.array([0.0, 0.0])
        pi2 = np.array([0.25, 2 * DELTA])
        cover = slab_intersection_cover(pi1, pi2, DELTA)
        assert len(cover.boxes) <= 64
        report = verify_cover(pi1, pi2, DELTA, cover, n_samples=2000, seed=3)
        assert report.fraction == 1.0

    def test_count_bound_enforced_by_boxcover(self):
        with pytest.raises(ValueError, match="exceeding"):
            BoxCover(centers=np.zeros((2, 2)), axes=np.eye(2), half_lengths=np.ones(2),
                     thin_axis=0, w=0.5, delta=0.25, dim=2, count_bound=1)

    def test_boxcover_checks_its_frame_once(self):
        frame = dict(w=0.5, delta=0.25, dim=2, count_bound=10)
        with pytest.raises(ValueError, match="orthonormal"):
            BoxCover(np.zeros((1, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]), np.ones(2), 0, **frame)
        with pytest.raises(ValueError, match="positive"):
            BoxCover(np.zeros((1, 2)), np.eye(2), np.array([1.0, 0.0]), 0, **frame)
        with pytest.raises(ValueError, match="thin_axis"):
            BoxCover(np.zeros((1, 2)), np.eye(2), np.ones(2), 2, **frame)
        with pytest.raises(ValueError, match="centers"):
            BoxCover(np.zeros((1, 3)), np.eye(2), np.ones(2), 0, **frame)


class TestVerifyCover:
    def test_full_coverage(self, reference_cover):
        report = verify_cover(PI1, PI2, DELTA, reference_cover, n_samples=2000, seed=0)
        assert report.fraction == 1.0
        assert report.obtained == report.requested == 2000
        assert report.miss_count == 0
        assert not report.vacuous

    def test_seed_determinism(self, reference_cover):
        a = verify_cover(PI1, PI2, DELTA, reference_cover, n_samples=500, seed=7)
        b = verify_cover(PI1, PI2, DELTA, reference_cover, n_samples=500, seed=7)
        assert a == b

    def test_shrunken_cover_misses(self, reference_cover):
        report = verify_cover(
            PI1, PI2, DELTA, reference_cover.scaled(0.25), n_samples=2000, seed=0
        )
        assert report.fraction < 1.0
        assert report.miss_count > 0
        assert 0 < len(report.miss_examples) <= 20

    def test_miss_examples_really_lie_in_the_intersection(self, reference_cover):
        report = verify_cover(
            PI1, PI2, DELTA, reference_cover.scaled(0.25), n_samples=2000, seed=0
        )
        for x in report.miss_examples:
            x = np.asarray(x)
            assert np.linalg.norm(x) <= 1.0 + 1e-9
            assert point_plane_distance(x, PI1) <= DELTA + 1e-9
            assert point_plane_distance(x, PI2) <= DELTA + 1e-9

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_non_positive_sample_count_is_refused(self, reference_cover, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            verify_cover(PI1, PI2, DELTA, reference_cover, n_samples=n_samples)

    def test_empty_intersection_is_vacuous_pass(self):
        pi2 = np.array([0.0, 0.0, 0.5])
        cover = slab_intersection_cover(PI1, pi2, DELTA)
        report = verify_cover(PI1, pi2, DELTA, cover, n_samples=500, seed=1)
        assert report.vacuous
        assert report.fraction == 1.0
        assert report.obtained == 0


class TestSerialization:
    def test_cover_to_dict(self, reference_cover):
        d = reference_cover.to_dict()
        assert d["dim"] == 3
        assert d["delta"] == DELTA
        assert len(d["boxes"]) == len(reference_cover.boxes)
        first = d["boxes"][0]
        assert set(first) == {"center", "axes", "half_lengths", "thin_axis"}

    def test_scaled_multiplies_half_lengths(self, reference_cover):
        shrunk = reference_cover.scaled(0.5)
        orig = reference_cover.boxes[0].half_lengths
        assert np.allclose(shrunk.boxes[0].half_lengths, orig * 0.5)
        assert shrunk.w == reference_cover.w


def _scan_covered(cover, pts):
    """Brute-force reference: `Box.contains` box by box over `cover.boxes`."""
    covered = np.zeros(len(pts), dtype=bool)
    for box in cover.boxes:
        rem = ~covered
        if not rem.any():
            break
        covered[rem] = box.contains(pts[rem])
    return covered


def _tile_by_tile_centers(pi1, pi2, delta):
    """Reference tiling: one centre per tile, built in a Python loop over the
    thin index and the perpendicular grid, each mapped back on its own."""
    fr = cover_mod._frame(pi1, pi2, delta)
    d, m_norm, radius = fr["dim"], fr["m_norm"], fr["ball_radius"]
    lo = max((-fr["gamma"] - 2.0 * delta) / m_norm, -radius)
    hi = min((-fr["gamma"] + 2.0 * delta) / m_norm, radius)
    e_beta = fr["m"] / m_norm
    q = np.linalg.qr(np.column_stack([e_beta, np.eye(d - 1)]))[0]
    if q[:, 0] @ e_beta < 0:
        q = -q
    h_thin = delta / fr["w"]
    n_thin = max(int(math.ceil((hi - lo) / (2.0 * h_thin))), 1)
    n_perp = int(math.ceil(radius / delta))
    perp = [[-radius + delta * (2 * j + 1) for j in range(n_perp)]] * (d - 2)
    centers = []
    for i in range(n_thin):
        for combo in itertools.product(*perp):
            xi = np.array([lo + h_thin * (2 * i + 1), *combo])
            centers.append(fr["rotation"] @ np.append(q @ xi, fr["vertical_center"]))
    return np.array(centers)


def _seeded_pairs():
    """Plane pairs through the unit ball in d = 2, 3, 4, with delta."""
    rng = np.random.default_rng(11)
    for d, delta in ((2, 2.0**-7), (3, 2.0**-6), (4, 2.0**-4)):
        for _ in range(2):
            base = rng.uniform(-0.05, 0.05, size=d - 1)
            slopes = base + rng.uniform(0.1, 0.3, size=d - 1) * rng.choice([-1, 1], size=d - 1)
            b1 = rng.uniform(-0.3, 0.3)
            b2 = b1 + rng.uniform(-1.5 * delta, 1.5 * delta)
            yield np.append(base, b1), np.append(slopes, b2), delta


def _near_boxes(cover, rng, n, spread=1.5):
    """Points scattered about randomly chosen boxes, up to `spread`
    half-lengths from the centre along each frame axis."""
    k = rng.integers(len(cover.centers), size=n)
    u = rng.uniform(-spread, spread, size=(n, cover.dim)) * cover.half_lengths
    return cover.centers[k] + u @ cover.axes


SEEDED = list(_seeded_pairs())


class TestVerifierAgainstScan:
    @pytest.mark.parametrize("pi1,pi2,delta", SEEDED)
    @pytest.mark.parametrize("factor", [1.0, 0.25])
    def test_seeded_pairs_match_scan(self, pi1, pi2, delta, factor):
        cover = slab_intersection_cover(pi1, pi2, delta)
        if factor != 1.0:
            cover = cover.scaled(factor)
        pts = _near_boxes(slab_intersection_cover(pi1, pi2, delta), np.random.default_rng(3), 3000)
        got = cover_mod._covered(cover, pts)
        assert got.any() and not got.all()
        assert np.array_equal(got, _scan_covered(cover, pts))

    @pytest.mark.parametrize("pi1,pi2,delta", SEEDED)
    @pytest.mark.parametrize("factor", [1.0, 0.25])
    def test_reports_match_scan(self, pi1, pi2, delta, factor, monkeypatch):
        cover = slab_intersection_cover(pi1, pi2, delta).scaled(factor)
        fast = verify_cover(pi1, pi2, delta, cover, n_samples=2000, seed=5)
        monkeypatch.setattr(cover_mod, "_covered", _scan_covered)
        assert verify_cover(pi1, pi2, delta, cover, n_samples=2000, seed=5) == fast
        assert (fast.fraction == 1.0) == (factor == 1.0)

    def test_points_on_faces_and_corners(self, reference_cover):
        """Every sign pattern in {-1, 0, 1}^d of half-lengths from a centre:
        the centre, face centres, edge midpoints and corners, placed exactly
        and just beyond the 1e-12 tolerance."""
        signs = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=3)))
        for cover in (reference_cover, reference_cover.scaled(0.25)):
            centers = cover.centers[::97]
            pts = []
            for extra in (0.0, 1e-12, 2e-12):
                offsets = (signs * (cover.half_lengths + extra)) @ cover.axes
                pts.append((centers[:, None, :] + offsets[None]).reshape(-1, 3))
            pts = np.vstack(pts)
            assert np.array_equal(cover_mod._covered(cover, pts), _scan_covered(cover, pts))

    def test_knife_edge_points_axis_aligned(self):
        """With identity axes the test is exact arithmetic, so points at the
        half-length plus the tolerance, and one ulp either side, sit on the
        edge of the predicate itself."""
        half = np.array([0.25, 2.0**-6, 2.0**-6])
        cover = BoxCover(np.array([[0.5, 0.0, -0.25], [0.0, 0.125, 0.0]]), np.eye(3), half,
                         0, w=0.5, delta=2.0**-6, dim=3, count_bound=10)
        edge = half + 1e-12
        signs = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=3)))
        pts = []
        for reach in (half, edge, np.nextafter(edge, 0), np.nextafter(edge, 1)):
            pts.append((cover.centers[:, None, :] + signs * reach).reshape(-1, 3))
        pts = np.vstack(pts)
        got = cover_mod._covered(cover, pts)
        assert np.array_equal(got, _scan_covered(cover, pts))
        assert not got.all()

    def test_duplicate_and_overlapping_centers(self):
        theta = 0.3
        axes = np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
        centers = np.array([
            [0.1, 0.1], [0.1, 0.1], [0.1, 0.1],   # duplicates
            [0.12, 0.1], [0.1, 0.13],             # overlap the first
            [-0.4, 0.2], [-0.4, 0.2], [0.7, -0.5],
        ])
        cover = BoxCover(centers, axes, np.array([0.05, 0.02]), 1,
                         w=0.4, delta=0.02, dim=2, count_bound=100)
        pts = np.random.default_rng(9).uniform(-1, 1, size=(20000, 2))
        pts = np.vstack([pts, _near_boxes(cover, np.random.default_rng(2), 2000)])
        got = cover_mod._covered(cover, pts)
        assert got.any()
        assert np.array_equal(got, _scan_covered(cover, pts))

    def test_empty_cover_covers_nothing(self):
        cover = slab_intersection_cover(PI1, np.array([0.0, 0.0, 0.5]), DELTA)
        assert not cover_mod._covered(cover, np.zeros((4, 3))).any()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_box_verdict_does_not_depend_on_batch_size(d):
    """A point whose frame coordinate sits within ulps of `half_length + tol`
    gets the same verdict alone as in a 3,000-row batch, from `Box.contains`
    and from `_covered`."""
    rng = np.random.default_rng(40 + d)
    axes = np.linalg.qr(rng.normal(size=(d, d)))[0].T
    half = rng.uniform(0.01, 0.1, size=d)
    center = rng.uniform(-0.5, 0.5, size=d)
    n = 3000
    frame = rng.uniform(-1.0, 1.0, size=(n, d)) * half
    face = rng.integers(0, d, size=n)
    frame[np.arange(n), face] = rng.choice([-1.0, 1.0], size=n) * (half[face] + 1e-12)
    pts = center + frame @ axes
    box = Box(center, axes, half, 0)
    cover = BoxCover(center[None, :], axes, half, 0, w=0.5, delta=0.01, dim=d, count_bound=1)
    batch = box.contains(pts)
    assert 0 < batch.sum() < n
    assert np.array_equal(cover_mod._covered(cover, pts), batch)
    assert np.array_equal([box.contains(p)[0] for p in pts], batch)
    assert np.array_equal([cover_mod._covered(cover, p[None, :])[0] for p in pts], batch)


class TestBoxesView:
    @pytest.mark.parametrize("pi1,pi2,delta", SEEDED)
    def test_matches_tile_by_tile_construction(self, pi1, pi2, delta):
        cover = slab_intersection_cover(pi1, pi2, delta)
        ref = _tile_by_tile_centers(pi1, pi2, delta)
        boxes = cover.boxes
        assert len(boxes) == len(ref)
        got = np.array([b.center for b in boxes])
        # batched products round differently, by a few ulps of unit-size coordinates
        assert np.allclose(got, ref, rtol=0, atol=8 * np.finfo(float).eps)

    def test_views_share_the_frame(self, reference_cover):
        for k, box in enumerate(reference_cover.boxes[:10]):
            assert isinstance(box, Box)
            assert box.axes is reference_cover.axes
            assert box.half_lengths is reference_cover.half_lengths
            assert box.thin_axis == reference_cover.thin_axis
            assert np.array_equal(box.center, reference_cover.centers[k])

    def test_to_dict_schema(self, reference_cover):
        d = reference_cover.to_dict()
        assert set(d) == {"w", "delta", "dim", "count_bound", "boxes"}
        assert [b["center"] for b in d["boxes"]] == reference_cover.centers.tolist()
        assert all(b["axes"] == reference_cover.axes.tolist() for b in d["boxes"])
