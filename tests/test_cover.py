import itertools
import math

import numpy as np
import pytest

from incgeom import cover as cover_mod
from incgeom.cover import (Box, BoxCover, COUNT_CONSTANT, CoverageReport,
                           slab_intersection_cover, verify_cover)
from incgeom.family import require_int
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

    @pytest.mark.parametrize("delta", [-0.01, 0.0, float("nan"), 1.0])
    def test_bad_delta_is_refused(self, reference_cover, delta):
        """Unchecked, a negative delta passes vacuously, zero spins through
        the whole budget before passing vacuously, and NaN raises numpy's
        OverflowError from `rng.uniform`."""
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            verify_cover(PI1, PI2, delta, reference_cover, n_samples=10)

    def test_empty_intersection_is_vacuous_pass(self):
        pi2 = np.array([0.0, 0.0, 0.5])
        cover = slab_intersection_cover(PI1, pi2, DELTA)
        report = verify_cover(PI1, pi2, DELTA, cover, n_samples=500, seed=1)
        assert report.vacuous
        assert report.fraction == 1.0
        assert report.obtained == 0

    def test_cover_of_another_dimension_is_refused(self, reference_cover):
        pi1, pi2 = np.zeros(2), np.array([0.25, 2 * DELTA])
        with pytest.raises(ValueError, match="cover has dimension 3, the planes 2"):
            verify_cover(pi1, pi2, DELTA, reference_cover, n_samples=10)


def _pancake_pair(slope, factor, radius=1.0):
    """PI1 and a plane tilted by `slope` along x_1 whose strip offset gamma
    is `factor` times the edge 2 delta + |m| radius, past which the strip
    |m . xi' + gamma| <= 2 delta leaves the ball of that radius."""
    s = math.hypot(1.0, slope)
    edge = 2.0 * DELTA + slope / s * radius
    return PI1, np.array([slope, 0.0, factor * edge * s])


# Parallel pairs, tilted or not, in d = 2, 3 and 4, whose slabs are 2.5 delta
# or more apart (test_parallel_far_apart_is_empty has PI1 and a plane 0.5 above)
MISSING = [
    (np.array([0.0, 0.1]), np.array([0.0, 0.1 + 2.5 * DELTA]), DELTA),
    (np.array([0.3, -0.2, 0.1]),
     np.array([0.3, -0.2, 0.1 - 2.5 * DELTA * math.hypot(1.0, 0.3, 0.2)]), DELTA),
    (np.array([0.25, 0.5, -0.125, 0.0]), np.array([0.25, 0.5, -0.125, 0.5]), 2.0**-6),
]


class TestEmptiness:
    """`_frame` alone decides whether the two slabs meet in the ball: the
    builder returns an empty cover and the verifier a vacuous pass on the
    same pairs."""

    @pytest.mark.parametrize("pi1,pi2,delta", MISSING)
    def test_parallel_slabs_that_miss(self, pi1, pi2, delta):
        cover = slab_intersection_cover(pi1, pi2, delta)
        assert cover.boxes == ()
        report = verify_cover(pi1, pi2, delta, cover, n_samples=100)
        assert report.vacuous and report.note == "empty intersection"

    def test_parallel_slabs_that_meet_are_a_pancake(self, reference_cover):
        pi2 = np.array([0.0, 0.0, 1.5 * DELTA])
        with pytest.raises(ValueError, match="near-parallel pancake"):
            slab_intersection_cover(PI1, pi2, DELTA)
        report = verify_cover(PI1, pi2, DELTA, reference_cover, n_samples=200)
        assert not report.vacuous and report.obtained == 200

    @pytest.mark.parametrize("slope", [DELTA / 8, DELTA / 5])
    def test_just_beyond_the_pancake_edge_is_empty(self, slope):
        self.assert_empty(*_pancake_pair(slope, 1.0 + 1e-6))

    @pytest.mark.parametrize("slope", [DELTA / 8, DELTA / 5])
    def test_strip_only_in_the_shell_beyond_the_unit_ball_is_empty(self, slope):
        # 1 < |xi'| <= 1 + 2 delta on the whole strip
        self.assert_empty(*_pancake_pair(slope, 1.0 - 1e-6, radius=1.0 + 2.0 * DELTA))

    @staticmethod
    def assert_empty(pi1, pi2):
        cover = slab_intersection_cover(pi1, pi2, DELTA)
        assert cover.boxes == ()
        report = verify_cover(pi1, pi2, DELTA, cover, n_samples=10)
        assert report.vacuous and report.note == "empty intersection"
        assert report.obtained == 0

    @pytest.mark.parametrize("slope", [DELTA / 8, DELTA / 5])
    @pytest.mark.parametrize("factor,note", [
        # the strip meets the unit ball in a sliver the sampler does not hit
        (1.0 - 1e-6, "no intersection point found in 10000 proposals"),
        (0.5, ""),
    ])
    def test_within_the_pancake_edge_is_a_pancake(self, reference_cover, slope, factor, note):
        pi1, pi2 = _pancake_pair(slope, factor)
        with pytest.raises(ValueError, match="near-parallel pancake"):
            slab_intersection_cover(pi1, pi2, DELTA)
        report = verify_cover(pi1, pi2, DELTA, reference_cover, n_samples=5)
        assert report.note == note
        assert report.vacuous == bool(note)

    def test_planes_of_different_dimension_are_refused(self):
        with pytest.raises(ValueError, match="planes of different dimension: "
                                             "the first has d = 2, the second d = 3"):
            slab_intersection_cover(np.zeros(2), PI2, DELTA)


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

    def test_views_are_built_once_per_cover(self, reference_cover):
        assert reference_cover.boxes is reference_cover.boxes
        shrunk = reference_cover.scaled(0.5)
        assert shrunk.boxes is shrunk.boxes
        assert shrunk.boxes[0].half_lengths is shrunk.half_lengths

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


def _three_call_verify(pi1, pi2, delta, cover, n_samples, seed):
    """Reference sampler: three `rng.uniform` calls per batch, every proposal
    rotated to ambient coordinates and put to all three exact predicates."""
    require_int("n_samples", n_samples)
    fr = cover_mod._frame(pi1, pi2, delta)
    d, radius, lo, hi = fr["dim"], fr["ball_radius"], fr["lo"], fr["hi"]
    if lo > hi or (fr["m_norm"] == 0.0 and abs(fr["gamma"]) > 2.0 * delta):
        return CoverageReport(1.0, n_samples, 0, 0, (), True, "empty intersection")
    q, house = fr["basis"], fr["rotation"]
    rng = np.random.default_rng(seed)
    budget = 2000 * n_samples
    drawn = 0
    samples = []
    got = 0
    while got < n_samples and drawn < budget:
        k = min(8192, budget - drawn)
        drawn += k
        xi = np.empty((k, d))
        xi[:, 0] = rng.uniform(lo, hi, size=k)
        if d > 2:
            xi[:, 1 : d - 1] = rng.uniform(-radius, radius, size=(k, d - 2))
        xi[:, d - 1] = fr["vertical_center"] + rng.uniform(-delta, delta, size=k)
        x = np.column_stack([xi[:, : d - 1] @ q.T, xi[:, d - 1]]) @ house.T
        keep = (
            (np.einsum("ij,ij->i", x, x) <= 1.0)
            & (point_plane_distance(x, pi1) <= delta)
            & (point_plane_distance(x, pi2) <= delta)
        )
        if keep.any():
            samples.append(x[keep])
            got += int(keep.sum())
    if not samples:
        return CoverageReport(1.0, n_samples, 0, 0, (), True,
                              f"no intersection point found in {drawn} proposals")
    pts = np.vstack(samples)[:n_samples]
    covered = cover_mod._covered(cover, pts)
    misses = np.flatnonzero(~covered)
    note = "" if len(pts) == n_samples else (
        f"sampler obtained {len(pts)} of {n_samples} requested points"
    )
    return CoverageReport(float(covered.mean()), n_samples, len(pts), int(misses.size),
                          tuple(map(tuple, pts[misses[:20]])), False, note)


def _assert_same_report(got, ref):
    assert got == ref
    assert np.array(got.miss_examples).tobytes() == np.array(ref.miss_examples).tobytes()


def _flipped(pi1, pi2, delta):
    """Whether the sampler's basis points its first column along -m."""
    fr = cover_mod._frame(pi1, pi2, delta)
    return bool(fr["basis"][:, 0] @ fr["m"] < 0)


# A flipped frame with the first plane near the edge of the ball, where the
# sampler finds few points: at delta = 2^-6 its budget runs out.
CAP = (np.array([0.0229, 0.0382, 0.9396]), np.array([0.3227, 0.1888, 0.9194]), 2.0**-6)


class TestOneDrawSampler:
    def test_seeded_pairs_include_flipped_frames(self):
        flips = [(len(pi1), _flipped(pi1, pi2, delta)) for pi1, pi2, delta in SEEDED]
        assert (3, True) in flips and (4, True) in flips and (4, False) in flips
        assert _flipped(*CAP)

    @pytest.mark.parametrize("pi1,pi2,delta", SEEDED)
    @pytest.mark.parametrize("factor,seed", [(1.0, 5), (0.25, 5), (0.25, 12)])
    def test_reports_equal_the_three_call_loop(self, pi1, pi2, delta, factor, seed):
        """Runs that end part-way through a batch, on covers that miss and
        covers that do not, in d = 2, 3 and 4."""
        cover = slab_intersection_cover(pi1, pi2, delta).scaled(factor)
        ref = _three_call_verify(pi1, pi2, delta, cover, 2000, seed)
        assert ref.obtained == 2000 and (ref.miss_count > 0) == (factor != 1.0)
        _assert_same_report(verify_cover(pi1, pi2, delta, cover, n_samples=2000, seed=seed), ref)

    @pytest.mark.parametrize("n_samples,seed,note", [
        (10, 1, "sampler obtained 8 of 10 requested points"),
        (2, 1, "no intersection point found in 4000 proposals"),
        (6, 7, ""),
    ])
    def test_budget_runs_equal_the_three_call_loop(self, n_samples, seed, note):
        """The budget runs out after a partial last batch, with some points or
        none, or the last points arrive just before it does."""
        cover = slab_intersection_cover(*CAP)
        for factor in (1.0, 0.25):
            ref = _three_call_verify(*CAP, cover.scaled(factor), n_samples, seed)
            assert ref.note == note
            _assert_same_report(
                verify_cover(*CAP, cover.scaled(factor), n_samples=n_samples, seed=seed), ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_ambient_rows_do_not_depend_on_the_batch(self, d):
        """A row maps to the same point alone, in a pair and in a batch of 500."""
        rng = np.random.default_rng(20 + d)
        pi1 = np.append(rng.uniform(-0.05, 0.05, size=d - 1), 0.1)
        pi2 = np.append(rng.uniform(-0.3, 0.3, size=d - 1), 0.11)
        fr = cover_mod._frame(pi1, pi2, 2.0**-6)
        q, house = fr["basis"], fr["rotation"]
        xi = rng.uniform(-1.0, 1.0, size=(500, d))
        batch = cover_mod._to_ambient(xi, q, house)
        assert np.array_equal(
            batch, np.column_stack([xi[:, : d - 1] @ q.T, xi[:, d - 1]]) @ house.T)
        alone = np.vstack([cover_mod._to_ambient(row[None, :], q, house) for row in xi])
        pairs = np.vstack([cover_mod._to_ambient(xi[i : i + 2], q, house)
                           for i in range(0, len(xi), 2)])
        assert alone.tobytes() == batch.tobytes()
        assert pairs.tobytes() == batch.tobytes()


def _ulp_steps(values, steps):
    """`values` moved by `steps` ulps (negative steps move down)."""
    out = values.copy()
    for _ in range(abs(steps)):
        out = np.nextafter(out, np.copysign(np.inf, steps))
    return out


class TestSecondSlabFilter:
    @pytest.mark.parametrize("pi1,pi2,delta", SEEDED + [CAP])
    def test_drops_no_row_the_exact_test_keeps(self, pi1, pi2, delta):
        """Proposals solved onto both edges of the second slab, then moved
        0 to 4 ulps either way along the vertical: every row within delta of
        the second plane by `point_plane_distance` passes the filter."""
        fr = cover_mod._frame(pi1, pi2, delta)
        d, radius, q = fr["dim"], fr["ball_radius"], fr["basis"]
        rng = np.random.default_rng(8)
        n = 400
        xi = np.empty((n, d))
        xi[:, 0] = rng.uniform(fr["lo"], fr["hi"], size=n)
        xi[:, 1 : d - 1] = rng.uniform(-radius, radius, size=(n, d - 2))
        normal = q.T @ fr["m"]
        edge = rng.choice([-delta, delta], size=n)
        xi[:, d - 1] = (edge - fr["c2"] - xi[:, : d - 1] @ normal) / fr["nu_d"]
        near = cover_mod._second_slab_filter(fr, delta)
        kept_exactly = 0
        for steps in range(-4, 5):
            moved = xi.copy()
            moved[:, d - 1] = _ulp_steps(xi[:, d - 1], steps)
            exact = point_plane_distance(cover_mod._to_ambient(moved, q, house=fr["rotation"]),
                                         pi2) <= delta
            assert not np.any(exact & ~near(moved[:, 0], moved[:, d - 1]))
            kept_exactly += int(exact.sum())
        assert 0 < kept_exactly < 9 * n
