"""Primitive computations on points and hyperplanes in R^d.

A hyperplane is stored as its coefficient vector (a_1, ..., a_d) and means
{x : x_d = a_1 x_1 + ... + a_{d-1} x_{d-1} + a_d}; a_1..a_{d-1} are slopes,
a_d is the intercept.  Vertical hyperplanes have no such representation and
are rejected wherever input is parsed.  Points are plain coordinate arrays.
Everything in this module is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

# Slope cap for validated input: the code-space/affine-metric equivalence
# constant degrades as slopes grow, and every construction here uses slopes
# in [0, 1].  Enforced at parse/validation time, not inside the primitives.
SLOPE_BOUND = 10.0

MODES = ("euclidean", "psi")


def slab_offsets(points, coeffs):
    """Signed slab offsets psi(p, pi) = a_1 p_1 + ... + a_{d-1} p_{d-1} - p_d + a_d.

    `points` and `coeffs` are (..., d) arrays with broadcastable leading
    shapes.  The accumulation is a fixed left fold over the slope terms,
    then -p_d, then +a_d, each as a separate elementwise operation.  That
    makes the result bitwise identical however the inputs are batched or
    sliced, which is what the exact oracle/fast counter agreement rests on.
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
    acc = points[..., 0] * coeffs[..., 0]
    for i in range(1, d - 1):
        acc = acc + points[..., i] * coeffs[..., i]
    acc = acc - points[..., d - 1]
    acc = acc + coeffs[..., d - 1]
    return acc


def unit_normal_norms(coeffs):
    """|u| for u = (a_1, ..., a_{d-1}, -1), the unnormalized plane normal.

    Same fixed fold order as `slab_offsets`, for the same reason.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    d = coeffs.shape[-1]
    acc = coeffs[..., 0] * coeffs[..., 0]
    for i in range(1, d - 1):
        acc = acc + coeffs[..., i] * coeffs[..., i]
    acc = acc + 1.0
    return np.sqrt(acc)


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
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
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
    acc = (coeffs1[..., 0] / n1 - coeffs2[..., 0] / n2) ** 2
    for i in range(1, d - 1):
        acc = acc + (coeffs1[..., i] / n1 - coeffs2[..., i] / n2) ** 2
    acc = acc + (1.0 / n2 - 1.0 / n1) ** 2
    normal_part = np.sqrt(acc)
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


def check_plane_coeffs(coeffs):
    """Validate hyperplane invariants: finite entries, slope cap, and
    intersection with the closed unit ball (|a_d|/|u| <= 1), each within 1e-9.

    Raises ValueError naming the first offending plane (by row index).
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if not np.all(np.isfinite(c)):
        i = int(np.nonzero(~np.isfinite(c).all(axis=1))[0][0])
        raise ValueError(f"plane {i}: non-finite coefficient")
    slopes = np.abs(c[:, :-1])
    bad = np.argwhere(slopes > SLOPE_BOUND + 1e-9)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise ValueError(
            f"plane {i}: slope a_{j + 1} = {c[i, j]!r} exceeds the bound {SLOPE_BOUND}"
        )
    dist0 = np.abs(c[:, -1]) / unit_normal_norms(c)
    far = np.nonzero(dist0 > 1.0 + 1e-9)[0]
    if far.size:
        i = int(far[0])
        raise ValueError(
            f"plane {i}: distance {dist0[i]:.6g} from the origin, misses B(0,1)"
        )
