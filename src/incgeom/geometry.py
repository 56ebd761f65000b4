"""Primitive computations on points and hyperplanes in R^d.

A hyperplane is stored as its coefficient vector (a_1, ..., a_d) and means
{x : x_d = a_1 x_1 + ... + a_{d-1} x_{d-1} + a_d}; a_1..a_{d-1} are slopes,
a_d is the intercept.  Vertical hyperplanes have no such representation and
are rejected wherever input is parsed.  Points are plain coordinate arrays.
Everything in this module is a pure function of its arguments.

Two numeric rules keep every fast path bit for bit equal to the oracle:

- every sum over coordinate terms is `fold_dot`'s fixed left fold, so a
  row's value does not depend on the batch it is computed in;
- every candidate filter in front of an exact test is widened by the
  relative margin `CANDIDATE_MARGIN`.
"""

from __future__ import annotations

import numpy as np

# Slope cap for validated input: the code-space/affine-metric equivalence
# constant degrades as slopes grow, and every construction here uses slopes
# in [0, 1].  Enforced at parse/validation time, not inside the primitives.
SLOPE_BOUND = 10.0

MODES = ("euclidean", "psi")

# Rounding in the offset, box and distance arithmetic is at the 1e-16
# relative level; a candidate filter widened by this relative margin sends
# everything within it of its threshold on to the exact test, so the filter
# never drops a pair the test would keep.
CANDIDATE_MARGIN = 1e-9


def require_mode(mode):
    """Refuse an incidence mode other than those in MODES."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def fold_dot(a, b):
    """a_0 b_0 + ... + a_{k-1} b_{k-1} over the last axis of broadcastable
    arrays, as a fixed left fold of separate elementwise operations.  Unlike
    a BLAS product or `np.sum`, the value of a row is bitwise the same alone
    or in any batch, which is what the exact oracle/fast agreement rests on."""
    acc = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        acc = acc + a[..., i] * b[..., i]
    return acc


def slab_offsets(points, coeffs):
    """Signed slab offsets psi(p, pi) = a_1 p_1 + ... + a_{d-1} p_{d-1} - p_d + a_d.

    `points` and `coeffs` are (..., d) arrays with broadcastable leading
    shapes: `fold_dot` over the slope terms, then -p_d, then +a_d.
    """
    points = np.asarray(points, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    d = points.shape[-1]
    if coeffs.shape[-1] != d:
        raise ValueError(
            f"dimension mismatch: points have dim {d}, planes dim {coeffs.shape[-1]}"
        )
    if d < 2:
        raise ValueError("ambient dimension must be at least 2")
    return fold_dot(points[..., :-1], coeffs[..., :-1]) - points[..., -1] + coeffs[..., -1]


def unit_normal_norms(coeffs):
    """|u| for u = (a_1, ..., a_{d-1}, -1), the unnormalized plane normal."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return np.sqrt(fold_dot(coeffs[..., :-1], coeffs[..., :-1]) + 1.0)


def unit_normals(coeffs):
    """Unit normals u/|u| and offsets a_d/|u| of (..., d) planes: the plane
    is {x : normal . x + offset = 0}."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    norms = unit_normal_norms(coeffs)
    normals = np.concatenate([coeffs[..., :-1], np.full(coeffs.shape[:-1] + (1,), -1.0)], axis=-1)
    return normals / norms[..., None], coeffs[..., -1] / norms


def point_plane_distance(p, pi):
    """Euclidean distance from point(s) to hyperplane(s): |psi| / |u|."""
    return np.abs(slab_offsets(p, pi)) / unit_normal_norms(pi)


def incidence_mask(points, coeffs, cdelta, mode="euclidean", norms=None):
    """Vectorized inclusive incidence predicate; the one shared comparison.

    euclidean mode: |psi|/|u| <= cdelta.  psi mode: |psi| <= cdelta.
    `norms` may carry precomputed `unit_normal_norms(coeffs)` so that every
    caller divides by the exact same values.  Both incidence counters
    funnel through this expression; do not duplicate it.
    """
    require_mode(mode)
    offsets = np.abs(slab_offsets(points, coeffs))
    if mode == "euclidean":
        if norms is None:
            norms = unit_normal_norms(coeffs)
        offsets = offsets / norms
    return offsets <= cdelta


def incidence_predicate(p, pi, cdelta, mode="euclidean"):
    """Whether the point lies in the closed cdelta-neighborhood of the plane."""
    if not cdelta > 0:
        raise ValueError(f"cdelta must be positive, got {cdelta}")
    return bool(incidence_mask(p, pi, cdelta, mode))


def root_sum_squares(sq, make_diff):
    """np.sqrt(sq) for sq, the plain sum of squares of a difference vector
    over its last axis, kept positive where the squares underflow.  Where sq
    is zero or subnormal although some difference is not zero, the norm is
    taken of the differences scaled by their largest magnitude, as
    `math.hypot` does; everywhere else the result is np.sqrt(sq) bit for bit.
    `make_diff()` returns the differences and is called only in that case."""
    root = np.sqrt(sq)
    low = sq < np.finfo(np.float64).tiny
    if not np.any(low):
        return root
    diff = make_diff()
    scale = np.max(np.abs(diff), axis=-1)
    redo = low & (scale > 0)
    unit = diff / np.where(redo, scale, 1.0)[..., None]
    return np.where(redo, scale * np.sqrt(fold_dot(unit, unit)), root)[()]


def distinct_rows(rows):
    """The distinct rows of an (n, k) array, k >= 1, in lexicographic order:
    the index of each one's first occurrence, each row's index among them,
    and their multiplicities.  This is what `np.unique(rows, axis=0,
    return_index=True, return_inverse=True, return_counts=True)` returns
    besides the rows, from one stable lexsort over the columns and a row
    difference; rows compare by value, so -0.0 equals 0.0."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    starts = np.flatnonzero(new)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[starts], inverse, np.diff(np.append(starts, len(order)))


def affine_metric(coeffs1, coeffs2):
    """Distance between hyperplanes: |u/|u| - v/|v|| + |a_d/|u| - b_d/|v||.

    u, v are the unnormalized normals; the second term compares intercepts
    normalized by the same factors.  Symmetric and zero exactly on equal
    coefficient vectors.  Broadcasts over leading shapes.
    """
    coeffs1 = np.asarray(coeffs1, dtype=np.float64)
    coeffs2 = np.asarray(coeffs2, dtype=np.float64)
    d = coeffs1.shape[-1]
    if coeffs2.shape[-1] != d:
        raise ValueError(
            f"dimension mismatch: {d} vs {coeffs2.shape[-1]}"
        )
    n1 = unit_normal_norms(coeffs1)
    n2 = unit_normal_norms(coeffs2)

    def normal_diff(i):
        if i < d - 1:
            return coeffs1[..., i] / n1 - coeffs2[..., i] / n2
        return 1.0 / n2 - 1.0 / n1

    acc = normal_diff(0) ** 2
    for i in range(1, d):
        acc = acc + normal_diff(i) ** 2
    normal_part = root_sum_squares(
        acc, lambda: np.stack([normal_diff(i) for i in range(d)], axis=-1))
    intercept_part = np.abs(coeffs1[..., d - 1] / n1 - coeffs2[..., d - 1] / n2)
    return normal_part + intercept_part


def code_coordinates(coeffs):
    """Code-space view of a hyperplane: (a_d, a_1, ..., a_{d-1}).

    Vertical intercept first, then the slopes; the natural metric on these
    coordinates is the maximum metric, see `code_metric`.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return np.concatenate([coeffs[..., -1:], coeffs[..., :-1]], axis=-1)


def code_metric(c1, c2):
    """Maximum metric on code coordinates."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    if c1.shape[-1] != c2.shape[-1]:
        raise ValueError(f"dimension mismatch: {c1.shape[-1]} vs {c2.shape[-1]}")
    return np.max(np.abs(c1 - c2), axis=-1)


def dual_point(coeffs):
    """The point (a_1, ..., a_d) dual to the plane with those coefficients."""
    return np.array(coeffs, dtype=np.float64, copy=True)


def dual_plane(point):
    """The hyperplane whose coefficient vector is the given point.

    Exact inverse of `dual_point`: the round trip is a bitwise identity.
    No invariant checking happens here; the result is validated only when
    used as a family member.
    """
    return np.array(point, dtype=np.float64, copy=True)


def phong_stein_matrix(x, a):
    """Bordered matrix [[0, grad_x psi], [-grad_a psi, d2psi/(da dx)]].

    psi(x, a) = a_1 x_1 + ... + a_{d-1} x_{d-1} - x_d + a_d, so the top row
    is (0, a_1, ..., a_{d-1}, -1), the left column is -(x_1, ..., x_{d-1}, 1),
    and the mixed second-derivative block is the identity with its last
    diagonal entry zeroed.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if x.shape != a.shape or x.ndim != 1:
        raise ValueError("x and a must be 1-d arrays of the same length")
    d = x.shape[0]
    if d < 2:
        raise ValueError("ambient dimension must be at least 2")
    m = np.zeros((d + 1, d + 1))
    m[0, 1:d] = a[: d - 1]
    m[0, d] = -1.0
    m[1:d, 0] = -x[: d - 1]
    m[d, 0] = -1.0
    block = np.eye(d)
    block[d - 1, d - 1] = 0.0
    m[1:, 1:] = block
    return m


def phong_stein_determinant(x, a):
    """Determinant of the bordered matrix above; identically -1 for this psi."""
    return float(np.linalg.det(phong_stein_matrix(x, a)))


class RowError(ValueError):
    """A ValueError about one row of an element array; `row` is its index."""

    def __init__(self, row, message):
        super().__init__(message)
        self.row = row


def check_plane_coeffs(coeffs):
    """Validate hyperplane invariants: finite entries, slope cap, and
    intersection with the closed unit ball (|a_d|/|u| <= 1), each within 1e-9.

    Raises RowError naming the first offending plane (by row index).
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if not np.all(np.isfinite(c)):
        i = int(np.nonzero(~np.isfinite(c).all(axis=1))[0][0])
        raise RowError(i, f"plane {i}: non-finite coefficient")
    slopes = np.abs(c[:, :-1])
    bad = np.argwhere(slopes > SLOPE_BOUND + 1e-9)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise RowError(i, f"plane {i}: slope a_{j + 1} = {float(c[i, j])!r} "
                          f"exceeds the bound {SLOPE_BOUND}")
    dist0 = np.abs(c[:, -1]) / unit_normal_norms(c)
    far = np.nonzero(dist0 > 1.0 + 1e-9)[0]
    if far.size:
        i = int(far[0])
        raise RowError(i, f"plane {i}: distance {dist0[i]:.6g} from the origin, misses B(0,1)")
