"""Families that realize the sharp incidence examples, plus test stock.

The 2D pair puts a product grid of points against a grid of lines in
(slope, intercept) space; the lift stacks 2*delta-spaced copies of the planar
configuration along each new coordinate while reusing the same line
coefficients, so per-layer incidences reproduce the planar count exactly.
Product grids and seeded random separated families round out the toolbox.

All spacings are powers of two and all coordinates are products of an
integer with a power of two, hence exact in binary floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .family import Family, require_delta, require_int
from .geometry import CANDIDATE_MARGIN, affine_metric, fold_dot, unit_normals


def _power_of_two_exponent(x, name):
    """x = 2**-j for an integer j >= 0, else ValueError."""
    mant, e = math.frexp(x) if x > 0 else (0.0, 0)
    if mant != 0.5 or e > 1:
        raise ValueError(f"{name} must be a power of two in (0, 1], got {x!r}")
    return 1 - e


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of one sharpness instance."""

    d: int
    delta: float
    s: float
    t: float

    def __post_init__(self):
        require_int("dimension", self.d, minimum=2)
        k = _power_of_two_exponent(self.delta, "delta")
        if k < 4:
            raise ValueError(f"delta must be at most 2^-4, got {self.delta!r}")
        for name, v in (("s", self.s), ("t", self.t)):
            if not 1.0 <= v <= 2.0:
                raise ValueError(f"{name} must lie in [1, 2], got {v}")


def _snap_exponent(k, x):
    # spacing delta^x realized as 2^-round(k x), clamped into [delta, 1]
    return min(max(round(k * x), 0), k)


def _dyadic_range(exponent):
    """Multiples of 2^-exponent in [0, 1], endpoints included."""
    step = 2.0**-exponent
    return np.arange((1 << exponent) + 1, dtype=np.float64) * step


def construct_sharp_2d(s, t, delta):
    """Point grid with spacings (delta^(s-1), delta) against the line grid
    with slopes on a delta^(t-1) net in [0, 1] and intercepts on the delta
    net in [-1, 1].  Fractional exponents snap to the nearest dyadic."""
    spec = ConstructionSpec(d=2, delta=delta, s=s, t=t)
    k = _power_of_two_exponent(delta, "delta")
    ex = _snap_exponent(k, s - 1.0)
    et = _snap_exponent(k, t - 1.0)
    xs = _dyadic_range(ex)
    ys = _dyadic_range(k)
    points = np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])
    slopes = _dyadic_range(et)
    intercepts = np.arange(-(1 << k), (1 << k) + 1, dtype=np.float64) * delta
    lines = np.column_stack(
        [np.repeat(slopes, intercepts.size), np.tile(intercepts, slopes.size)]
    )
    meta = {
        "s": s,
        "t": t,
        "point_spacing": 2.0**-ex,
        "slope_spacing": 2.0**-et,
    }
    pf = Family("points", points, delta, 2, meta=dict(meta))
    tf = Family("hyperplanes", lines, delta, 2, meta=dict(meta))
    return pf, tf


def construct_sharp(spec: ConstructionSpec):
    """Convenience wrapper: the 2D pair, lifted when spec.d > 2."""
    pf, tf = construct_sharp_2d(spec.s, spec.t, spec.delta)
    if spec.d == 2:
        return pf, tf
    return lift_to_dim(pf, tf, spec.d)


def lift_to_dim(points2, lines2, d):
    """Lift the planar pair, which shares one delta, to dimension d.

    Each line x2 = a x1 + e becomes the hyperplane
    x_d = a x1 + 0 x2 + ... + 0 x_{d-1} + e; each planar point (p1, p2)
    becomes (p1, y_2, ..., y_{d-1}, p2) with every new coordinate ranging
    over the 2-delta net in [0, 1].  Plane count is preserved exactly and
    the point count multiplies by (floor(1/(2 delta)) + 1)^(d-2).
    """
    require_int("dimension", d, minimum=3)
    if points2.kind != "points" or points2.dim != 2:
        raise ValueError("first argument must be a planar point family")
    if lines2.kind != "hyperplanes" or lines2.dim != 2:
        raise ValueError("second argument must be a planar line family")
    delta = points2.delta
    if lines2.delta != delta:
        raise ValueError(f"delta mismatch: points {delta!r}, lines {lines2.delta!r}")
    k = _power_of_two_exponent(delta, "delta")
    layers = _dyadic_range(k - 1)  # the 2-delta net
    base = points2.elements
    # one (planar point, layer, ..., layer, coordinate) array in C order,
    # each column written by broadcasting, then flattened to points
    pts = np.empty((len(base),) + (layers.size,) * (d - 2) + (d,))
    pts[..., 0] = base[(slice(None), 0) + (None,) * (d - 2)]
    pts[..., d - 1] = base[(slice(None), 1) + (None,) * (d - 2)]
    for i in range(d - 2):
        pts[..., 1 + i] = layers.reshape((-1,) + (1,) * (d - 3 - i))
    pts = pts.reshape(-1, d)
    coeffs2 = lines2.elements
    planes = np.zeros((len(coeffs2), d))
    planes[:, 0] = coeffs2[:, 0]
    planes[:, d - 1] = coeffs2[:, 1]
    meta = dict(points2.meta)
    meta["layers"] = int(layers.size)
    pf = Family("points", pts, delta, d, meta=meta)
    tf = Family("hyperplanes", planes, delta, d, meta=dict(meta))
    return pf, tf


def construct_grid(d, delta, spacings):
    """Product grid of the nets spacing_i * Z in [0, 1], endpoints included.

    Spacings must be powers of two in [delta, 1]; the result is a point
    family of dimension d at scale delta."""
    _power_of_two_exponent(delta, "delta")
    spacings = tuple(float(sp) for sp in spacings)
    if len(spacings) != d:
        raise ValueError(f"expected {d} spacings, got {len(spacings)}")
    exps = []
    for i, sp in enumerate(spacings):
        e = _power_of_two_exponent(sp, f"spacing {i}")
        if sp < delta:
            raise ValueError(f"spacing {i} is below delta: {sp!r} < {delta!r}")
        exps.append(e)
    axes = [_dyadic_range(e) for e in exps]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return Family("points", pts, delta, d, meta={"spacings": spacings})


# Rows per batch of draws: enough for the elements still needed at the
# acceptance rate seen so far, plus a floor, and never more than this cap.
_BATCH_FLOOR, _BATCH_CAP = 64, 2**16


def construct_random(kind, d, delta, n, seed):
    """Seeded rejection sampling of an n-element separated family.

    Points land in the unit ball and keep pairwise Euclidean distance
    >= delta; hyperplanes draw slopes in [-1, 1] and an intercept that
    keeps the plane within unit distance of the origin, and keep pairwise
    affine-metric distance >= delta.  The same seed always reproduces the
    same family; exhausting the retry budget of 1000 n draws raises.

    The family is the one a one-draw-at-a-time loop produces, byte for byte
    (the loop is the reference in tests/test_constructions.py):

    - Same stream.  Each attempt is one row of `rng.random((B, d))`, mapped
      as `rng.uniform` maps it: -1 + 2u for coordinates and slopes,
      -norm + (2 norm) u for the intercept.  Out-of-ball draws are attempts.
    - Tree candidates.  A cKDTree over the accepted elements, and
      `query_pairs` within the batch, propose every element within
      delta (1 + CANDIDATE_MARGIN): points by their coordinates, planes by
      the `unit_normals` embedding, whose distance is at most d_A.  Both
      distances come from the same coordinate differences as the exact
      test, so the relative margin covers their rounding.
    - The loop's decision.  Each candidate pair gets the loop's expression,
      squared distance >= delta^2 or d_A >= delta; in-batch conflicts are
      resolved in draw order, so a draw only meets the draws accepted
      before it.
    - Per-row dot products.  A 1-D `x @ x` (BLAS) differed from
      `geometry.fold_dot` in the last ulp on 17-28% of random rows for
      d = 2..6 where measured, so the plane norm sqrt(slopes @ slopes + 1) keeps the
      per-row `@`, and the ball test calls it on the rows whose fold lies
      within CANDIDATE_MARGIN of 1, where the fold cannot decide alone."""
    if kind not in ("points", "hyperplanes"):
        raise ValueError(f"unknown family kind {kind!r}")
    require_int("dimension", d, minimum=2)
    require_delta(delta)
    require_int("family size", n, minimum=0)
    points = kind == "points"
    rng = np.random.default_rng(seed)
    accepted = np.empty((n, d))
    embedded = np.empty((n, d if points else d + 1))
    radius = delta * (1.0 + CANDIDATE_MARGIN)
    budget = 1000 * max(n, 1)
    attempts = 0
    k = 0
    while k < n:
        if attempts >= budget:
            raise ValueError(
                f"could not place {n} delta-separated {kind} in {budget} draws "
                f"(placed {k} of {n}, d={d}, delta={delta!r}); the request looks infeasible"
            )
        size = min((n - k) * attempts // max(k, 1) + _BATCH_FLOOR, _BATCH_CAP, budget - attempts)
        attempts += size
        cands = _draw_points(rng, size, d) if points else _draw_planes(rng, size, d)
        emb = cands if points else np.column_stack(unit_normals(cands))
        if k:
            # one vectorised pass against the elements accepted before the batch
            near = cKDTree(emb).sparse_distance_matrix(
                cKDTree(embedded[:k]), radius, output_type="ndarray")
            i, j = near["i"], near["j"]
            free = np.ones(len(cands), dtype=bool)
            free[i[~_separated(points, cands[i], accepted[j], delta)]] = False
            cands, emb = cands[free], emb[free]
        # then the survivors against each other, in draw order
        i, j = cKDTree(emb).query_pairs(radius, output_type="ndarray").T
        clash = ~_separated(points, cands[j], cands[i], delta)
        i, j = i[clash], j[clash]
        order = np.argsort(j, kind="stable")
        ok = np.ones(len(cands), dtype=bool)
        for a, b in zip(i[order].tolist(), j[order].tolist()):
            if ok[a]:
                ok[b] = False
        new = np.flatnonzero(ok)[: n - k]
        accepted[k:k + len(new)] = cands[new]
        embedded[k:k + len(new)] = emb[new]
        k += len(new)
    return Family(kind, accepted, delta, d, meta={"seed": seed})


def _draw_points(rng, size, d):
    """The in-ball rows of `size` draws of rng.uniform(-1, 1, size=d)."""
    cands = -1.0 + 2.0 * rng.random((size, d))
    fold = fold_dot(cands, cands)
    inside = fold <= 1.0
    for r in np.flatnonzero(np.abs(fold - 1.0) <= CANDIDATE_MARGIN):
        inside[r] = not cands[r] @ cands[r] > 1.0
    return cands[inside]


def _draw_planes(rng, size, d):
    """`size` planes drawn as slopes = rng.uniform(-1, 1, size=d - 1), then
    intercept = rng.uniform(-norm, norm)."""
    u = rng.random((size, d))
    slopes = -1.0 + 2.0 * u[:, :-1]
    norm = np.array([math.sqrt(float(s @ s) + 1.0) for s in slopes])
    return np.column_stack([slopes, -norm + (2.0 * norm) * u[:, -1]])


def _separated(points, cands, others, delta):
    """The loop's acceptance test, row by row: cands[r] is far enough from
    others[r]."""
    if points:
        return np.sum((others - cands) ** 2, axis=1) >= delta * delta
    return affine_metric(cands, others) >= delta
