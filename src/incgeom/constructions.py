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

from .family import Family
from .geometry import affine_metric


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
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
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
    return lift_to_dim(pf, tf, spec.d, spec.delta)


def lift_to_dim(points2, lines2, d, delta):
    """Lift the planar pair to dimension d.

    Each line x2 = a x1 + e becomes the hyperplane
    x_d = a x1 + 0 x2 + ... + 0 x_{d-1} + e; each planar point (p1, p2)
    becomes (p1, y_2, ..., y_{d-1}, p2) with every new coordinate ranging
    over the 2-delta net in [0, 1].  Plane count is preserved exactly and
    the point count multiplies by (floor(1/(2 delta)) + 1)^(d-2).
    """
    if d < 3:
        raise ValueError(f"lift requires dimension at least 3, got {d}")
    if points2.kind != "points" or points2.dim != 2:
        raise ValueError("first argument must be a planar point family")
    if lines2.kind != "hyperplanes" or lines2.dim != 2:
        raise ValueError("second argument must be a planar line family")
    if not (points2.delta == delta == lines2.delta):
        raise ValueError(
            f"delta mismatch: {points2.delta!r}, {lines2.delta!r} vs {delta!r}"
        )
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


def construct_random(kind, d, delta, n, seed):
    """Seeded rejection sampling of an n-element separated family.

    Points land in the unit ball and keep pairwise Euclidean distance
    >= delta; hyperplanes draw slopes in [-1, 1] and an intercept that
    keeps the plane within unit distance of the origin, and keep pairwise
    affine-metric distance >= delta.  The same seed always reproduces the
    same family; exhausting the retry budget of 1000 n draws raises."""
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
                f"(d={d}, delta={delta!r}); the request looks infeasible"
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
