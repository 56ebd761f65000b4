"""Covering the intersection of two plane slabs by thin boxes.

For planes pi1, pi2 at affine distance w > delta, the set
pi1(delta) & pi2(delta) & B(0,1) fits inside a union of congruent boxes
with one side of length ~ delta/w along the in-plane direction normal to
the fold line and the remaining sides of length ~ delta, about
delta^-(d-2) boxes in all.  The construction rotates pi1 to horizontal,
intersects the horizontal slab with the strip the second slab cuts in it,
and tiles that strip with one frame and an array of centres.  A sampling
verifier with its own rejection sampler checks the result by the exact test
of `Box.contains`; a kd-tree only proposes candidate boxes, so the verdict
never rests on the tiling arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg import block_diag
from scipy.spatial import cKDTree

from .family import require_int
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
    origin, with the shape of `centers` and the count bound.  `boxes` and
    `to_dict()` are per-box views built on demand without re-checking."""

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

    @property
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
    slab cuts the first."""
    n1, c1 = _normalize(pi1, "first plane")
    n2, c2 = _normalize(pi2, "second plane")
    d = n1.size
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
    # the strip's extent [lo, hi] along e_beta = m/|m| (the whole ball if m = 0)
    # and an orthonormal in-plane basis whose first column is +-e_beta
    if m_norm > 0.0:
        lo = max((-gamma - 2.0 * delta) / m_norm, -radius)
        hi = min((-gamma + 2.0 * delta) / m_norm, radius)
        e_beta = m / m_norm
    else:
        lo, hi, e_beta = -radius, radius, np.eye(d - 1)[0]
    return {
        "rotation": house,
        "vertical_center": -c1,
        "m": m,
        "m_norm": m_norm,
        "gamma": gamma,
        "w": w,
        "dim": d,
        "ball_radius": radius,
        "lo": lo,
        "hi": hi,
        "basis": np.linalg.qr(np.column_stack([e_beta, np.eye(d - 1)]))[0],
    }


def slab_intersection_cover(pi1, pi2, delta) -> BoxCover:
    """Boxes of half-lengths (delta/w, delta, ..., delta) covering
    pi1(delta) & pi2(delta) & B(0,1), for euclidean slabs at C = 1.

    Raises when w <= delta (the lemma's hypothesis) and in the
    near-parallel regime where the strip degenerates into a full-width
    pancake (only reachable for w < 4 delta); parallel planes whose slabs
    miss each other give an empty cover.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    fr = _frame(pi1, pi2, delta)
    w, d = fr["w"], fr["dim"]
    if w <= delta:
        raise ValueError(
            f"scales merge below separation: w = {w:.3e} <= delta = {delta:.3e}"
        )
    bound = COUNT_CONSTANT * float(delta) ** -(d - 2)
    empty = BoxCover(np.empty((0, d)), np.eye(d), np.full(d, delta), 0, w, float(delta), d, bound)
    m_norm, gamma, radius = fr["m_norm"], fr["gamma"], fr["ball_radius"]
    if m_norm < delta / 4.0:
        if abs(gamma) > 2.0 * delta + m_norm * radius:
            return empty
        raise ValueError(
            "near-parallel pancake: the second slab cuts the first in a "
            f"full-width sheet (|m| = {m_norm:.3e} < delta/4, w = {w:.3e}); "
            "no thin-box cover meets the count bound in this regime"
        )
    lo, hi = fr["lo"], fr["hi"]
    if lo > hi:
        return empty

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
    size, which also dwarfs `_CONTAINS_TOL`."""
    to_unit = cover.axes.T / cover.half_lengths
    size = 1.0 + max(np.abs(cover.centers).max(initial=0.0), np.abs(pts).max(initial=0.0))
    reach = 1.0 + CANDIDATE_MARGIN * size / cover.half_lengths.min()
    pairs = cKDTree(pts @ to_unit).sparse_distance_matrix(
        cKDTree(cover.centers @ to_unit), reach, p=np.inf, output_type="ndarray"
    )
    i, k = pairs["i"], pairs["j"]
    inside = _in_box(pts[i] - cover.centers[k], cover.axes, cover.half_lengths + _CONTAINS_TOL)
    return np.bincount(i[inside], minlength=len(pts)) > 0


def verify_cover(pi1, pi2, delta, cover: BoxCover, n_samples=10_000, seed=0):
    """Sample the true slab intersection uniformly and report the covered
    fraction.

    Proposals are drawn from a rotated-frame cylinder that provably
    contains the intersection, then filtered by the original euclidean
    slab predicates and the unit ball, so the accepted sample is uniform
    on the true region and independent of how the cover was built.  An
    empty region is a vacuous pass with the flag set."""
    require_int("n_samples", n_samples)
    fr = _frame(pi1, pi2, delta)
    d, radius, lo, hi = fr["dim"], fr["ball_radius"], fr["lo"], fr["hi"]
    if lo > hi or (fr["m_norm"] == 0.0 and abs(fr["gamma"]) > 2.0 * delta):
        return CoverageReport(1.0, n_samples, 0, 0, (), True, "empty intersection")
    q, house = fr["basis"], fr["rotation"]

    rng = np.random.default_rng(seed)
    budget = 2000 * n_samples
    drawn = 0
    batch = 8192
    samples = []
    got = 0
    while got < n_samples and drawn < budget:
        k = min(batch, budget - drawn)
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
