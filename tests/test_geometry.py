import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incgeom.family import Family
from incgeom.geometry import (CANDIDATE_MARGIN, affine_metric, check_plane_coeffs,
                              code_coordinates, code_metric, dual_plane,
                              distinct_rows, dual_point, first_rows, fold_dot,
                              incidence_predicate, phong_stein_determinant, phong_stein_matrix,
                              point_plane_distance, RowError, slab_offsets,
                              unit_normal_norms, unit_normals)
from incgeom.regularity import min_separation


def projection_distance(p, coeffs):
    """Independent distance oracle: least-squares projection onto the graph
    x_d = a . x' + a_d, residual norm = distance."""
    d = len(p)
    a = np.asarray(coeffs[: d - 1], dtype=float)
    design = np.vstack([np.eye(d - 1), a])
    rhs = np.append(np.asarray(p[: d - 1], dtype=float), p[d - 1] - coeffs[d - 1])
    _, res, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    return math.sqrt(res[0]) if res.size else 0.0


def fraction_det(rows):
    """Exact determinant by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / inv
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


class TestDistance:
    def test_on_plane_points(self):
        assert point_plane_distance(np.array([0.5, 0.0]), np.array([0.0, 0.0])) == 0.0
        assert point_plane_distance(
            np.array([0.1, 0.4, 0.2]), np.array([0.0, 0.0, 0.2])
        ) == 0.0

    def test_diagonal_line(self):
        # x2 = x1 and the point (0, 1): distance 1/sqrt(2)
        got = point_plane_distance(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            p = rng.uniform(-1, 1, size=d)
            coeffs = rng.uniform(-1, 1, size=d)
            want = projection_distance(p, coeffs)
            got = point_plane_distance(p, coeffs)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestIncidencePredicate:
    def test_mode_divergence(self):
        # the line x2 = x1 has |u| = sqrt(2); a vertical offset of 1.2 c
        # is within euclidean distance c but its raw offset exceeds c
        c = 0.01
        line = np.array([1.0, 0.0])
        p_close = np.array([0.0, 1.2 * c])
        assert incidence_predicate(p_close, line, c, mode="euclidean")
        assert not incidence_predicate(p_close, line, c, mode="psi")
        p_far = np.array([0.0, 1.5 * c])
        assert not incidence_predicate(p_far, line, c, mode="euclidean")
        assert not incidence_predicate(p_far, line, c, mode="psi")

    def test_trivial_cases(self):
        c = 0.03
        horizontal = np.array([0.0, 0.0])
        assert incidence_predicate(np.array([0.5, 0.0]), horizontal, c, mode="psi")
        assert not incidence_predicate(np.array([0.0, 2 * c]), horizontal, c)

    def test_boundary_is_inclusive(self):
        c = 2.0**-6
        assert incidence_predicate(np.array([0.0, c]), np.array([0.0, 0.0]), c)

    @given(
        st.floats(1e-6, 0.5), st.floats(1.0, 4.0),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-0.5, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, c1, factor, px, py, slope, icpt):
        p = np.array([px, py])
        line = np.array([slope, icpt])
        for mode in ("euclidean", "psi"):
            if incidence_predicate(p, line, c1, mode=mode):
                assert incidence_predicate(p, line, c1 * factor, mode=mode)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            incidence_predicate(np.zeros(2), np.zeros(2), 0.0)


class TestAffineMetric:
    def test_equal_planes(self):
        pi = np.array([0.3, -0.2, 0.1])
        assert affine_metric(pi, pi) == 0.0

    def test_parallel_shift_is_intercept_gap(self):
        h = 0.37
        got = affine_metric(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, h]))
        assert got == pytest.approx(h, rel=1e-12)

    def test_planar_example(self):
        # (0,-1) vs (1,-1)/sqrt(2), both through the origin
        want = math.sqrt(0.5 + (1.0 - 1.0 / math.sqrt(2.0)) ** 2)
        got = affine_metric(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.76537, abs=5e-6)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            p1 = rng.uniform(-1, 1, size=d)
            p2 = rng.uniform(-1, 1, size=d)
            assert affine_metric(p1, p2) == affine_metric(p2, p1)
            if not np.array_equal(p1, p2):
                assert affine_metric(p1, p2) > 0

    @pytest.mark.parametrize("gap", [1e-150, 1e-200, 2.9e-284])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tiny_gaps_stay_positive(self, gap, d):
        """Gaps whose squares underflow (below about 1e-154): a slope gap
        between planes through the origin (|normal difference| = gap), the
        same gap on every slope (sqrt(d - 1) gap), and an intercept gap.
        `min_separation` of each pair agrees, and so does that of the two
        points with these coordinates, whose distance is the same."""
        zero = np.zeros(d)
        for other, want in ((np.eye(d)[0] * gap, gap),
                            (np.append(np.full(d - 1, gap), 0.0), math.sqrt(d - 1) * gap),
                            (np.eye(d)[-1] * gap, gap)):
            got = float(affine_metric(zero, other))
            assert got == pytest.approx(want, rel=1e-15, abs=0) and got > 0
            assert affine_metric(other, zero) == got
            pair = Family(kind="hyperplanes", elements=np.array([zero, other]),
                          delta=gap, dim=d)
            assert min_separation(pair) == pytest.approx(want, rel=1e-15, abs=0)
            points = Family(kind="points", elements=np.array([zero, other]), delta=gap, dim=d)
            assert min_separation(points) == pytest.approx(want, rel=1e-15, abs=0)
        batch = affine_metric(zero, np.array([np.eye(d)[0] * gap, zero, np.full(d, 0.25)]))
        assert batch[0] == gap and batch[1] == 0.0 and batch[2] > 0.25

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(-30, 0))
    @settings(max_examples=60, deadline=None)
    def test_normal_range_is_the_plain_fold(self, d, seed, log_gap):
        """Where the sum of squares is normal, d_A is the plain left fold of
        squared normal differences, bit for bit."""
        rng = np.random.default_rng(seed)
        c1 = rng.uniform(-1, 1, size=(20, d))
        c2 = c1 + rng.uniform(-1, 1, size=(20, d)) * 10.0**log_gap
        n1, n2 = unit_normal_norms(c1), unit_normal_norms(c2)
        acc = (c1[:, 0] / n1 - c2[:, 0] / n2) ** 2
        for i in range(1, d - 1):
            acc = acc + (c1[:, i] / n1 - c2[:, i] / n2) ** 2
        acc = acc + (1.0 / n2 - 1.0 / n1) ** 2
        want = np.sqrt(acc) + np.abs(c1[:, -1] / n1 - c2[:, -1] / n2)
        assert np.array_equal(affine_metric(c1, c2), want)

    @given(st.data(), st.integers(2, 6), st.sampled_from(["equal", "intercept", "any"]))
    @settings(max_examples=100, deadline=None)
    def test_embedding_distance_brackets_the_metric(self, data, d, relation):
        """x <= d_A <= sqrt(2) x for the Euclidean distance x between
        (unit normal, normalised intercept) embeddings, within the relative
        CANDIDATE_MARGIN: the bound that `min_separation`'s and
        `construct_random`'s kd-tree candidate searches rest on."""
        # tiny and subnormal coordinates included: d_A rescales squares
        # that underflow (`root_sum_squares`)
        def coord(bound):
            return st.floats(-bound, bound)

        def plane():
            return data.draw(st.lists(coord(1.0), min_size=d - 1, max_size=d - 1)) + [
                data.draw(coord(2.0))]

        pi1 = np.array(plane())
        pi2 = pi1.copy()
        if relation == "intercept":
            pi2[-1] = data.draw(coord(2.0))
        elif relation == "any":
            pi2 = np.array(plane())
        embedded = [np.append(*unit_normals(pi)) for pi in (pi1, pi2)]
        x = math.hypot(*(embedded[0] - embedded[1]))
        d_a = float(affine_metric(pi1, pi2))
        assert x <= d_a * (1.0 + CANDIDATE_MARGIN)
        assert d_a <= math.sqrt(2.0) * x * (1.0 + CANDIDATE_MARGIN)
        if relation == "equal":
            assert x == d_a == 0.0


def test_code_coordinates_permutation():
    cp = code_coordinates(np.array([2.0, 3.0]))
    assert np.array_equal(cp, np.array([3.0, 2.0]))


def test_code_metric_is_max():
    c1 = np.array([0.0, 0.0])
    c2 = np.array([0.5, 0.2])
    assert code_metric(c1, c1) == 0.0
    assert code_metric(c1, c2) == 0.5


def test_code_vs_affine_equivalence_constant():
    # bounded slopes: the two metrics differ by at most a factor of 10
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 5))
        s1, s2 = rng.uniform(-1, 1, size=(2, d - 1))
        n1 = math.sqrt(float(s1 @ s1) + 1.0)
        n2 = math.sqrt(float(s2 @ s2) + 1.0)
        pi1 = np.append(s1, rng.uniform(-n1, n1))
        pi2 = np.append(s2, rng.uniform(-n2, n2))
        da = affine_metric(pi1, pi2)
        cm = code_metric(code_coordinates(pi1), code_coordinates(pi2))
        if da > 0 and cm > 0:
            worst = max(worst, da / cm, cm / da)
    assert worst <= 10.0


class TestDuality:
    def test_round_trip_bitwise(self):
        x = np.array([0.3, -0.1, 0.05])
        assert np.array_equal(dual_point(dual_plane(x)), x)
        pi = np.array([2.0, 3.0])
        assert np.array_equal(dual_plane(dual_point(pi)), pi)

    def test_dual_point_is_coefficients(self):
        assert np.array_equal(dual_point(np.array([2.0, 3.0])), np.array([2.0, 3.0]))
        assert np.array_equal(dual_point(np.zeros(3)), np.zeros(3))

    def test_quantified_separation_bound(self):
        # euclidean distance of dual points >= d_A / sqrt(5)
        rng = np.random.default_rng(17)
        bound = 1.0 / math.sqrt(5.0) - 1e-9
        for _ in range(2000):
            d = int(rng.integers(2, 5))
            s1, s2 = rng.uniform(-1, 1, size=(2, d - 1))
            n1 = math.sqrt(float(s1 @ s1) + 1.0)
            n2 = math.sqrt(float(s2 @ s2) + 1.0)
            pi1 = np.append(s1, rng.uniform(-n1, n1))
            pi2 = np.append(s2, rng.uniform(-n2, n2))
            da = affine_metric(pi1, pi2)
            if da == 0.0:
                continue
            euclid = float(np.linalg.norm(dual_point(pi1) - dual_point(pi2)))
            assert euclid / da >= bound


class TestPhongStein:
    def test_exact_against_fraction_oracle(self):
        """The bordered matrix has determinant exactly -1; verified by
        assembling the same partial derivatives over rationals and running
        exact elimination."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            x = [Fraction(int(v), 64) for v in rng.integers(-64, 64, size=d)]
            a = [Fraction(int(v), 64) for v in rng.integers(-64, 64, size=d)]
            grad_x = a[: d - 1] + [Fraction(-1)]
            grad_a = x[: d - 1] + [Fraction(1)]
            mixed = [
                [Fraction(1) if (i == j and i < d - 1) else Fraction(0) for j in range(d)]
                for i in range(d)
            ]
            rows = [[Fraction(0)] + grad_x]
            for i in range(d):
                rows.append([-grad_a[i]] + mixed[i])
            assert fraction_det(rows) == Fraction(-1)
            xf = np.array([float(v) for v in x])
            af = np.array([float(v) for v in a])
            assert np.allclose(
                phong_stein_matrix(xf, af), np.array(rows, dtype=float)
            )
            assert phong_stein_determinant(xf, af) == pytest.approx(-1.0, abs=1e-9)

    def test_abs_one_at_random_inputs(self):
        rng = np.random.default_rng(23)
        for d in range(2, 7):
            for _ in range(100):
                x = rng.uniform(-1, 1, size=d)
                a = rng.uniform(-1, 1, size=d)
                assert abs(phong_stein_determinant(x, a)) == pytest.approx(1.0, abs=1e-9)


class TestValidation:
    def test_slope_cap_names_the_row(self):
        coeffs = np.array([[0.0, 0.0], [11.0, 0.0]])
        with pytest.raises(ValueError, match="1"):
            check_plane_coeffs(coeffs)

    def test_slope_message_prints_a_plain_float(self):
        with pytest.raises(RowError) as err:
            check_plane_coeffs(np.array([[0.0, 0.0], [11.0, 0.0]]))
        assert err.value.row == 1
        assert str(err.value) == "plane 1: slope a_1 = 11.0 exceeds the bound 10.0"

    def test_ball_miss_rejected(self):
        with pytest.raises(ValueError, match="misses"):
            check_plane_coeffs(np.array([[0.0, 1.5]]))

    def test_offsets_match_direct_formula(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(50, 4))
        coeffs = rng.uniform(-1, 1, size=(30, 4))
        want = np.einsum("nd,md->nm", pts[:, :3], coeffs[:, :3]) - pts[:, [3]] + coeffs[:, 3]
        got = slab_offsets(pts[:, None, :], coeffs[None, :, :])
        assert np.allclose(got, want, atol=1e-12)


def scalar_fold(a, b):
    """a_0 b_0 + ... + a_{k-1} b_{k-1} as a left fold of Python floats."""
    acc = float(a[0]) * float(b[0])
    for x, y in zip(a[1:], b[1:]):
        acc = acc + float(x) * float(y)
    return acc


class TestFoldDot:
    """`fold_dot` is the one coordinate sum every exact path uses: each row
    must equal the scalar left fold, alone or in any batch."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_leaf_pass_shapes(self, d):
        rng = np.random.default_rng(d)
        k = d - 1
        halves = rng.uniform(0, 0.1, size=(40, 1, k))
        slopes = np.abs(rng.uniform(-1, 1, size=(1, 30, k)))
        batch = fold_dot(slopes, halves)
        assert batch.shape == (40, 30)
        for i in range(40):
            assert np.array_equal(fold_dot(slopes, halves[i : i + 1]), batch[i : i + 1])
            for j in range(30):
                assert batch[i, j] == scalar_fold(slopes[0, j], halves[i, 0])
        for j in range(30):
            assert np.array_equal(fold_dot(slopes[:, j : j + 1], halves), batch[:, j : j + 1])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_box_frame_shapes(self, d):
        rng = np.random.default_rng(10 + d)
        axes = np.linalg.qr(rng.normal(size=(d, d)))[0]
        offsets = rng.uniform(-1, 1, size=(60, d))
        batch = fold_dot(offsets[:, None, :], axes)
        assert batch.shape == (60, d)
        for r in range(60):
            assert np.array_equal(fold_dot(offsets[r : r + 1, None, :], axes), batch[r : r + 1])
            for j in range(d):
                assert batch[r, j] == scalar_fold(offsets[r], axes[j])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_offsets_and_norms_are_the_scalar_fold(self, d):
        rng = np.random.default_rng(20 + d)
        pts = rng.uniform(-1, 1, size=(50, d))
        coeffs = rng.uniform(-1, 1, size=(50, d))
        offsets = slab_offsets(pts, coeffs)
        norms = unit_normal_norms(coeffs)
        for p, c, got, norm in zip(pts, coeffs, offsets, norms):
            assert got == scalar_fold(p[:-1], c[:-1]) - float(p[-1]) + float(c[-1])
            assert norm == math.sqrt(scalar_fold(c[:-1], c[:-1]) + 1.0)


def _assert_unique_parts(rows):
    got = distinct_rows(rows)
    want = np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)
    for part, want_part in zip(got, want[1:]):
        assert part.dtype == np.int64
        assert np.array_equal(part, want_part.reshape(-1))


def _draw_rows(d, data):
    # int rows with duplicates, scaled by 1 (packed key) or 2^40 (lexsort),
    # and the same rows as floats with some zeros made -0.0, which must
    # fall in with 0.0
    rows = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=60))
    cells = np.array(rows, dtype=np.int64).reshape(-1, d)
    if len(cells):
        repeat = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=20))
        cells = np.vstack([cells, cells[repeat]])
    cells = cells * data.draw(st.sampled_from([1, 2**40]))
    floats = cells * 0.25
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    floats[(floats == 0) & (rng.random(floats.shape) < 0.5)] = -0.0
    return cells, floats


@given(d=st.integers(1, 6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_distinct_rows_equal_numpy_unique(d, data):
    for rows in _draw_rows(d, data):
        _assert_unique_parts(rows)


@given(d=st.integers(1, 6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_first_rows_are_distinct_rows_first(d, data):
    for rows in _draw_rows(d, data):
        got = first_rows(rows)
        assert got.dtype == np.int64
        assert np.array_equal(got, distinct_rows(rows)[0])


def test_rows_that_differ_only_in_a_later_column():
    # equal column 0 throughout each group; the rows differ, or hold 0.0
    # against -0.0, only in columns 1 and 2
    rows = np.array([[1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [1.0, 0.0, 3.0],
                     [0.5, 7.0, -0.0], [1.0, -0.0, 3.0], [0.5, 7.0, 0.0],
                     [0.5, 6.0, 0.0]])
    first, inverse, counts = distinct_rows(rows)
    assert first.tolist() == [6, 3, 0, 2]
    assert inverse.tolist() == [2, 2, 3, 1, 3, 1, 0]
    assert counts.tolist() == [1, 2, 2, 2]
    assert first_rows(rows).tolist() == [6, 3, 0, 2]
    _assert_unique_parts(rows)
    # the same pattern in integers too wide for the packed key
    wide = np.array([[2, 5, 1], [2, 5, 0], [2, 4, 1], [2, 5, 1], [-2, 5, 1]]) * 2**40
    assert distinct_rows(wide)[0].tolist() == [4, 2, 1, 0]
    assert distinct_rows(wide)[1].tolist() == [3, 2, 1, 3, 0]
    assert first_rows(wide).tolist() == [4, 2, 1, 0]
    _assert_unique_parts(wide)


def test_distinct_rows_signed_zeros_and_no_rows():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [0.0, 1.0], [1.0, 0.0]])
    first, inverse, counts = distinct_rows(rows)
    assert first.tolist() == [0, 2] and inverse.tolist() == [0, 0, 1, 0, 1]
    assert counts.tolist() == [3, 2]
    _assert_unique_parts(rows)
    for dtype in (np.int64, np.float64):
        assert [part.size for part in distinct_rows(np.empty((0, 3), dtype=dtype))] == [0, 0, 0]
        _assert_unique_parts(np.empty((0, 3), dtype=dtype))


def _sorts_by_lexsort(rows, monkeypatch):
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
    distinct_rows(rows)
    monkeypatch.undo()
    return bool(calls)


@pytest.mark.parametrize("rows", [
    np.array([[3, -7], [-2, 5], [3, -7], [-2, -9], [0, 0], [-2, 5]]),
    np.array([[4], [-1], [4], [-3], [-1]]),
    np.empty((0, 3), dtype=np.int64),
    np.array([[5, 1], [-5, 0], [5, 1]], dtype=np.int32),
], ids=["negative", "one-column", "empty", "int32"])
def test_packed_key_equals_numpy_unique(rows, monkeypatch):
    _assert_unique_parts(rows)
    assert _sorts_by_lexsort(rows, monkeypatch) == (len(rows) == 0)


@pytest.mark.parametrize("low, packed", [(0, True), (-1, False)])
def test_packed_key_stops_at_the_int64_edge(low, packed, monkeypatch):
    # one column spanning 2^63 - 1 values packs; spanning 2^63, it does not
    top = 2**63 - 2
    one = np.array([[top], [low], [top], [7], [low]], dtype=np.int64)
    # two columns whose box holds 2^31 (2^32 - 1) = 2^63 - 2^31 cells, then 2^63
    span = 2**32 - (1 if packed else 0)
    two = np.array([[0, 0], [2**31 - 1, span - 1], [0, 0], [5, span - 1], [5, 3]],
                   dtype=np.int64)
    for rows in (one, two):
        _assert_unique_parts(rows)
        assert _sorts_by_lexsort(rows, monkeypatch) != packed


def test_packed_key_reads_column_major_rows():
    rows = np.asfortranarray(np.random.default_rng(0).integers(-50, 50, size=(400, 3)))
    rows[200:] = rows[:200]
    _assert_unique_parts(rows)
