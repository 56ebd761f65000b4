"""Covering numbers, separation, and (delta, s, C)-regularity diagnostics.

Point families are measured with Euclidean geometry in ambient coordinates;
hyperplane families are measured in code coordinates (intercept, slopes)
under the maximum metric, which is equivalent to the affine plane metric up
to bounded factors on slope-capped families.  An exact affine-metric path
exists behind a flag for small cross-checks.

Ball counting is done at cell resolution: test balls are centered on the
occupied delta-grid cells and membership is decided by lattice distance
between cell positions.  For families whose coordinates lie on the
delta-lattice (every construction in this package) this equals the
element-centered count; in general it is a constant-factor proxy, in the
same spirit as counting occupied grid cells instead of covering balls.
The counts are exact integers.

A profile first plans every scale, then counts, so a family too large to
count exactly is refused before any counting work.  Every path reads the
scale's one integer threshold: the reach floor(ratio + 1e-9) of code-max
balls, or q = floor(ratio^2) of the Euclidean ball |o|^2 <= q.  One builder
makes both prefix grids, the table and the stencil's.  Each scale takes one
path:

- table: code-max balls are boxes, counted from one summed-area table of
  the occupancy (Crow 1984);
- full ball: a Euclidean scale at which some centre's ball holds every
  occupied cell has the cover as its maximum, attained first at the first
  such centre, and needs no grid.  The farthest corner of the cells'
  bounding box bounds a centre's farthest cell from above, and the extreme
  cells along the 2^d diagonal directions bound it from below, in exact
  int64 squared distances (for boxes under the 2^52 guard below, so that
  they are exact in float64 too).  The shortcut is taken only when the
  first centre the upper bound passes comes after centres that the lower
  bound all rule out, so its argmax is the one a full count would pick;
- filled: where the occupied cells fill their box [0, n) (cover = prod n),
  a centre c's count is the number of ball offsets o with 0 <= c + o < n:
  a box sum over the ball's own zero-led summed-area table, the table path
  with ball and occupancy swapped.  Each axis's window depends on c_k
  alone, so the table is differenced one axis at a time into a count grid
  over the box.  Its int32 sums are exact: each counts ball offsets, fewer
  than DENSE_LIMIT < 2^31.  The grid is read at u, so that the counts come
  in the cells' order, and the first argmax is the one every other path
  picks.  A scale takes it when every grid it makes, of max(n_k, 2 c_k + 2)
  cells along axis k, fits DENSE_LIMIT, whatever its FFT grid;
- stencil: a Euclidean scale whose lattice ball is small against its FFT
  grid is summed in exact integers.  The ball |o|^2 <= q splits into
  columns along the last axis, one per offset o' over the other axes with
  |o'|^2 <= q, of half-length h = isqrt(q - |o'|^2).  On a padded
  occupancy grid summed along its last axis, a centre's count is the sum
  over columns of two prefix differences.  A
  scale takes it when 3 * (cover + 1000) * columns <= P log2 P, P the
  scale's FFT grid, and both that grid and its own padded grid fit
  DENSE_LIMIT;
- FFT: the other Euclidean scales are a circular FFT convolution whose
  kernel is the stencil's columns, wrapped around the origin.  With n
  cells and c = min(reach, n - 1) on an axis, no two cells lie farther
  apart than n - 1, so a kernel clipped to |o| <= c loses nothing, and with
  period L >= n + c an offset past c wraps to at least L - (n - 1) > c, so
  no alias lands in a ball.  A count 0.25 or more from an integer raises,
  and so does one that rounds below 1, since a ball holds its own centre;
- tree: a scale whose table or FFT grid would exceed DENSE_LIMIT cells,
  and that no filled count takes, is counted by a kd-tree, up to TREE_LIMIT
  occupied cells;
- refusal: past both limits the profile raises ValueError.

The grids count on the family's own lattice.  With g_k the gcd of the
offsets along axis k (1 on an axis of one value), the offsets are g u, and
the table, filled, stencil and FFT grids, and DENSE_LIMIT and the
stencil's cost rule, see u: a grid smaller by about prod g_k than the
offsets' box, which the sharp points, on strides (4, 2, 1), fill one cell
in eight; their u fills its box.  A code-max
box of reach R spans R // g_k steps of u along axis k.  The Euclidean ball
is weighted, sum_k g_k^2 o_k^2 <= q, with the clip c_k = min(R // g_k,
n_k - 1) on u's n_k cells, and the column and alias arguments above hold on
u as they stand.  The full-ball shortcut and the tree measure the offsets
g u: the shortcut on u, weighted by g_k^2 and along diagonal directions
scaled by g, the tree on g u, scaled when it is built.  The stride is
taken only while dim (n - 1)^2 < 2^52, n the widest axis of the offsets'
box: each g_k^2 o_k^2 is then at most (n_k - 1)^2, so q, clamped to
sum_k g_k^2 c_k^2, and every weighted square stay exact in int64, float64
and the stencil's integer square roots.  The same guard keeps the
shortcut's squared distances exact.  Past it g = 1, and a dense
grid, within DENSE_LIMIT < 2^26 cells, bounds sum_k c_k^2 below 2^52.

Cells are floor(x / rho) in int64.  Where one falls outside [-2^63, 2^63)
the cast would wrap, so covering numbers and both profiles refuse the
family with ValueError instead.

Point separation is found on the lattice, with no distance evaluated, when
delta is a power of two no smaller than 2^-537, every coordinate is a
multiple of it (floor(x / delta) == x / delta), the guard above holds and
no cell holds two points.  Then each coordinate difference (c - c') delta,
its square and their sum are exact floats, in a kd-tree as in a scan, so
the least distance is sqrt(q delta^2) bit for bit, q the least weighted
length sum_k g_k^2 o_k^2 of a step o of u that joins two occupied cells.
With no sort, an occupancy grid of u padded by 2 shows one point per cell
(as many occupied cells as points) and tests the steps with |o_k| <= 2 in
the half-space o > 0 (lexicographically), in increasing q, with one gather
each: the first hit is the minimum.  Only steps with q < 9 min_k g_k^2 are
tested: a step longer than 2 on some axis k has q >= 9 g_k^2, so below that
bound none is missed.  A family that fails a condition, whose padded grid
exceeds DENSE_LIMIT, or with no hit takes a kd-tree.

Hyperplane separation is exact at any size: embedded as (unit normal,
normalised intercept), planes are no farther apart than in the affine
metric and at least 1/sqrt(2) as far, so a kd-tree proposes every pair that
can hold the minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.signal import fftconvolve  # noqa: F401  (perfbench/tracing.py wraps this name)
from scipy.spatial import cKDTree

from .family import Family, require_exponent
from .geometry import (CANDIDATE_MARGIN, affine_metric, code_coordinates, distinct_rows,
                       first_rows, require_positive, root_sum_squares, unit_normals)

# Cells a dense count may allocate (the code-max summed-area table, or the
# Euclidean stencil or FFT grid of one scale) and the fallback tree limit;
# past both, exact profiles are refused rather than approximated.  The
# int32 prefix grids and float64 square roots are exact below 2^27 cells.
DENSE_LIMIT = 64_000_000
TREE_LIMIT = 60_000
AFFINE_LIMIT = 4_000
# Pairs per row block of the affine-metric profile's distance matrix.
_AFFINE_BLOCK = 2**19
# A Euclidean scale takes the column stencil when _STENCIL_WEIGHT * (cover
# + _COLUMN_COST) * columns <= P log2 P, P its FFT grid: two gathers per
# column and centre against one transform pass over the grid, where one
# column's loop step costs as much as _COLUMN_COST centres' gathers (about
# 3 us against 3 ns; CHANGES.md has the timings).
_STENCIL_WEIGHT = 3
_COLUMN_COST = 1000


@dataclass(frozen=True)
class RegularityReport:
    """Worst-case ball/covering ratios over dyadic scales.

    `variant` is "standard" (denominator r^s |E|_delta) or "katz-tao"
    (denominator (r/delta)^s); `metric` names the ball metric used.
    """

    s: float
    c_star: float
    worst_scale: float
    worst_center: int
    per_scale: tuple
    metric: str
    variant: str = "standard"

    def to_dict(self):
        return {**asdict(self), "per_scale": [[r, ratio] for r, ratio in self.per_scale]}


def measurement_coordinates(fam: Family):
    """Coordinates in which a family is measured: ambient for points, code
    space for hyperplanes."""
    if fam.kind == "points":
        return fam.elements
    return code_coordinates(fam.elements)


def covering_number(fam: Family, rho) -> int:
    """Number of occupied cells of the rho-grid anchored at the origin."""
    require_positive("rho", rho)
    if len(fam) == 0:
        return 0
    return int(first_rows(_floor_cells(measurement_coordinates(fam), rho)).size)


def min_separation(fam: Family) -> float:
    """Minimum pairwise distance: Euclidean for points, affine metric for
    hyperplanes.  Returns +inf for families with fewer than two elements.
    Points on their delta-lattice are measured there, with no distance
    evaluated, where the lattice argument of the module docstring holds;
    any other points family takes a kd-tree, whose pairs with a squared
    distance that underflows to 0 are measured again with
    `geometry.root_sum_squares`, so distinct points stay apart.
    Planes embed as (unit normal, normalised intercept) vectors x, and
    sqrt(a^2 + b^2) <= a + b <= sqrt(2 (a^2 + b^2)) gives |x - x'| <= d_A <=
    sqrt(2) |x - x'|: the pairs within sqrt(2) times the least embedded
    distance, widened by `CANDIDATE_MARGIN`, hold the minimum, and
    `geometry.affine_metric` is evaluated on those alone."""
    n = len(fam)
    if n < 2:
        return math.inf
    if fam.kind == "points":
        least = _lattice_separation(fam)
        if least is not None:
            return least
        # sliding-midpoint splits and uncompacted nodes build and query
        # faster on lattice families; the distances are the same
        tree = cKDTree(fam.elements, balanced_tree=False, compact_nodes=False)
        dist, _ = tree.query(fam.elements, k=2, workers=-1)
        least = float(dist[:, 1].min())
        if least > 0.0:
            return least
        # squared distances can underflow to 0: measure those pairs again
        i, j = tree.query_pairs(0.0, output_type="ndarray").T
        diff = fam.elements[i] - fam.elements[j]
        return float(root_sum_squares(np.sum(diff * diff, axis=-1), lambda: diff).min())
    normals, verts = unit_normals(fam.elements)
    tree = cKDTree(np.column_stack([normals, verts]))
    dist, _ = tree.query(tree.data, k=2, workers=-1)
    reach = math.sqrt(2.0) * float(dist[:, 1].min()) * (1.0 + CANDIDATE_MARGIN)
    i, j = tree.query_pairs(reach, output_type="ndarray").T
    return float(affine_metric(fam.elements[i], fam.elements[j]).min())


def _floor_cells(coords, rho):
    """floor(coords / rho) as int64: the cells of the rho-grid anchored at
    the origin.  The (n, d) result is a view of a (d, n) array, so that
    per-axis reductions run over contiguous rows.  Refuses with ValueError
    when some floor(x / rho) lies outside [-2^63, 2^63), where the cast
    would wrap."""
    with np.errstate(over="ignore"):
        floored = np.divide(coords.T, rho, order="C")
    np.floor(floored, out=floored)
    # NaN fails both tests
    if not (floored.min() >= -(2.0**63) and floored.max() < 2.0**63):
        raise ValueError(
            f"cell index overflows int64 at cell width {rho!r}: |x / rho| reaches "
            f"{float(np.max(np.abs(floored))):.3g}"
        )
    return floored.astype(np.int64).T


def _lattice(cols):
    """The lattice of a (d, m) int64 cell array (module docstring), which it
    owns and turns into u in place: whether squared lattice distances in the
    cells' box are exact, the per-axis stride g, u = (cells - least) // g as
    an (m, d) view, and u's box.  Min, max and gcd over repeated cells are
    those over the distinct cells, so repeats leave the lattice as it is."""
    cols -= cols.min(axis=1, keepdims=True)
    span = cols.max(axis=1)
    # while every squared distance within the box is below 2^52, so is every
    # weighted square of the plan: exact in int64, float64 and _isqrt
    exact = len(span) * int(span.max()) ** 2 < 2**52
    stride = np.maximum(np.gcd.reduce(cols, axis=1), 1) if exact else np.ones_like(span)
    cols //= stride[:, None]
    return exact, stride, cols.T, span // stride + 1


def _lattice_separation(fam: Family):
    """The kd-tree's minimum distance of a points family, found on its
    lattice (module docstring), or None where the argument does not apply:
    a delta that is no power of two or whose square is not exact, cells
    past int64, coordinates off the delta-lattice, squared distances past
    the `exact` guard, a padded grid over DENSE_LIMIT, two points in one
    cell, or no hit among the offsets searched."""
    mantissa, exponent = math.frexp(fam.delta)
    # delta = 2^(exponent - 1); its square, and the square's integer
    # multiples below 2^53, are exact down to the least subnormal 2^-1074
    if mantissa != 0.5 or 2 * (exponent - 1) < -1074:
        return None
    try:
        cells = _floor_cells(fam.elements, fam.delta)
    except ValueError:  # cells past int64
        return None
    if not np.array_equal(cells, fam.elements / fam.delta):
        return None
    exact, stride, u, u_shape = _lattice(cells.T)
    pad = 2  # the steps searched per axis
    if not exact or math.prod((u_shape + 2 * pad).tolist()) > DENSE_LIMIT:
        return None
    grid, centres = _prefix_grid(u, u_shape, pad, ())
    # one point per cell: as many occupied cells as points
    if np.count_nonzero(grid) != len(fam):
        return None
    strides = np.array(grid.strides) // grid.itemsize
    keys = centres @ strides
    # the steps after the origin in lexicographic order are the half-space
    # o > 0 lexicographically, which meets every pair once
    steps = np.array(list(itertools.product(range(-pad, pad + 1), repeat=fam.dim)))
    steps = steps[len(steps) // 2 + 1:]
    q = np.sum((steps * stride) ** 2, axis=1)
    # a step past pad on axis k has q >= (pad + 1)^2 g_k^2: below this bound
    # the steps searched are every step there is
    kept = np.flatnonzero(q < (pad + 1) ** 2 * int(stride.min()) ** 2)
    kept = kept[np.argsort(q[kept], kind="stable")]
    for shift, least in zip((steps[kept] @ strides).tolist(), q[kept].tolist()):
        if grid.take(keys + shift).any():
            return math.sqrt(least * (fam.delta * fam.delta))
    return None


def _scale_radii(delta):
    radii = []
    r = float(delta)
    while r < 1.0:
        radii.append(r)
        r *= 2.0
    radii.append(1.0)
    return np.asarray(radii)


def _box_counts(table, offsets, reach):
    """Code-max ball counts from a zero-led summed-area table (Crow 1984):
    one difference per axis over [i - reach, i + reach] clipped to the
    grid, taken by inclusion-exclusion over the window's 2^d corners.
    `reach` is a scalar or one value per axis; on a strided family it is
    reach // g_k, the lattice steps within reach along axis k."""
    hi = np.minimum(offsets + reach + 1, np.asarray(table.shape) - 1)
    lo = np.maximum(offsets - reach, 0)
    counts = np.zeros(len(offsets), dtype=np.int64)
    for corner in itertools.product((False, True), repeat=offsets.shape[1]):
        sign = (-1) ** (len(corner) - sum(corner))
        counts += sign * table[tuple(np.where(corner, hi, lo).T)]
    return counts


def _ball_counts(offsets, cols, halves, period):
    """Euclidean ball counts by a circular FFT convolution whose kernel is
    the stencil's lattice ball, the columns `cols` of half-lengths `halves`
    that `_ball_columns` built, wrapped around the origin; a `period` of at
    least n_k + clip_k per axis keeps aliases out (module docstring)."""
    # one grid holds the occupancy, then the kernel: three grids live at once
    grid = np.zeros(period)
    grid[tuple(offsets.T)] = 1.0
    spectrum = rfftn(grid)
    # the wrapped column o' holds the last-axis cells j with min(j, L - j)
    # <= its half-length, as L >= 2 clip_d + 1; other rows hold none
    halves_at = np.full(period[:-1], -1, dtype=np.int64)
    halves_at[tuple((cols % period[:-1]).T)] = halves
    j = np.arange(period[-1])
    np.less_equal(np.minimum(j, period[-1] - j), halves_at[..., None], out=grid)
    spectrum *= rfftn(grid)
    del grid
    vals = irfftn(spectrum, period)[tuple(offsets.T)]
    counts = np.rint(vals)
    # the guard sees drift to mid-integer only; a ball holds its own centre,
    # so a count rounded below 1 is wrong by more than 0.5 and raises too
    if np.any(np.abs(vals - counts) >= 0.25) or np.any(counts < 1):
        raise FloatingPointError("FFT ball counts are not within 0.25 of positive integers")
    return counts.astype(np.int64)


def _isqrt(x):
    """floor(sqrt(x)) of int64 values in [0, 2^52), exactly: such an x is
    exact in float64, and its correctly rounded root lies in [k, k + 1)
    when x lies in [k^2, (k + 1)^2).  The profile's arguments are at most
    q, clamped to sum_k g_k^2 clip_k^2, which the module docstring's guard
    keeps below 2^52 on a strided family, and a dense grid on any other."""
    return np.sqrt(x.astype(np.float64)).astype(np.int64)


def _ball_columns(q, clip, weights):
    """The weighted lattice ball sum_k w_k o_k^2 <= q clipped to |o_k| <=
    clip_k, as columns along the last axis: an (m, d - 1) array of offsets
    o' over the other axes, and each column's half-length isqrt(min(rest //
    w_d, clip_d^2)), rest = q - sum_{k<d} w_k o_k^2: the stencil's columns
    and the FFT's kernel.  Axis by axis, each partial offset extends by
    every o_k with o_k^2 <= rest // w_k, so no partial offset is built that
    holds no column.  The weights are the squared strides g_k^2, so w_k
    o_k^2 is an unscaled squared distance; every isqrt argument is at most
    q < 2^52 (module docstring), where `_isqrt` is exact, and clips stay
    below 2^26, as the grids they pad do."""
    cols = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([q], dtype=np.int64)
    for c, w in zip(clip[:-1], weights[:-1]):
        reach = _isqrt(np.minimum(rest // w, c * c))
        width = 2 * reach + 1
        row = np.repeat(np.arange(len(cols)), width)
        o = np.arange(row.size) - np.repeat(np.cumsum(width) - width + reach, width)
        cols = np.column_stack([cols[row], o])
        rest = rest[row] - w * o * o
    return cols, _isqrt(np.minimum(rest // weights[-1], clip[-1] * clip[-1]))


def _prefix_grid(offsets, shape, pad, axes):
    """The occupancy summed along `axes` on a grid padded by `pad` on every
    side and by one more below along each summed axis; and the occupied
    cells' index rows in it.  Summed along every axis with no pad it is the
    code-max summed-area table; summed along the last axis, every stencil
    reaching at most `pad` reads inside it.  A sum is int32: its values
    count cells, so they stay below DENSE_LIMIT < 2^31.  Summed along no
    axis, the separation's grid, it is bool, one byte per cell."""
    lead = np.zeros(len(shape), dtype=np.int64) + pad
    lead[list(axes)] += 1
    prefix = np.zeros(tuple(shape + pad + lead), dtype=np.int32 if len(axes) else bool)
    centres = offsets + lead
    prefix[tuple(centres.T)] = 1
    for k in axes:
        np.cumsum(prefix, axis=k, out=prefix)
    return prefix, centres


def _stencil_counts(prefix, centres, cols, halves):
    """Euclidean ball counts by columns (module docstring): at centre (b',
    b) each column o' of half-length h adds prefix[b' + o', b + h] -
    prefix[b' + o', b - h - 1].  A count never exceeds the cover, and the
    prefix values of any set of columns add up to at most the grid size, so
    running sums stay exact in int32 on grids within DENSE_LIMIT < 2^30."""
    strides = np.array(prefix.strides) // prefix.itemsize
    flat = prefix.reshape(-1)
    top = cols @ strides[:-1] + halves
    below = top - 2 * halves - 1
    # shift the flat indices so that every column's reads start at a view
    low = int(below.min())
    top, below, base = top - low, below - low, centres @ strides + low
    counts = np.zeros(len(centres), dtype=np.int32)
    for t, b in zip(top, below):
        counts += flat[t:].take(base)
        counts -= flat[b:].take(base)
    return counts.astype(np.int64)


def _filled_counts(keys, shape, clip, cols, halves):
    """Euclidean ball counts of the cells at C-order `keys` of a filled box
    of `shape` (module docstring): a centre c counts the ball offsets o with
    0 <= c_k + o_k < n_k, one box sum over the ball's zero-led summed-area
    table, differenced one axis at a time into a count grid over the box.
    The last axis is summed in closed form: the column o' of half-length h
    holds min(c + h, n - 1) - max(c - h, 0) + 1 cells of [0, n) around c."""
    c = np.arange(shape[-1])
    h = halves[:, None]
    grid = np.zeros((*(2 * clip[:-1] + 2), shape[-1]), dtype=np.int32)
    grid[tuple((cols + clip[:-1] + 1).T)] = np.minimum(c + h, c[-1]) - np.maximum(c - h, 0) + 1
    for k, (n, reach) in enumerate(zip(shape[:-1], clip[:-1])):
        np.cumsum(grid, axis=k, out=grid)
        c = np.arange(n)
        # o_k runs over [max(-c, -reach), min(n - 1 - c, reach)], rows
        # reach + 1 + o_k of the table
        window = grid.take(np.minimum(reach + n - c, 2 * reach + 1), axis=k)
        window -= grid.take(np.maximum(reach - c, 0), axis=k)
        grid = window
    return grid.reshape(-1).take(keys).astype(np.int64)


def _counts_tree(tree, ratio, metric):
    p = np.inf if metric == "chebyshev" else 2.0
    counts = tree.query_ball_point(tree.data, r=ratio, p=p, return_length=True, workers=-1)
    return np.asarray(counts, dtype=np.int64)


def _full_ball_centre(u, stride, corner2, q):
    """Row of the first centre whose lattice ball |g o|^2 <= q holds every
    occupied cell of u, when the corner and diagonal bounds of the module
    docstring decide it; None when they do not.  `corner2` holds each
    centre's squared distance to its farthest bounding-box corner.  Both
    bounds measure the offsets g u, in exact int64 squared distances."""
    passes = corner2 <= q
    k0 = int(np.argmax(passes))
    if not passes[k0]:
        return None
    if k0 == 0:
        return 0
    lower = np.zeros(k0, dtype=np.int64)
    for signs in itertools.product((1, -1), repeat=u.shape[1] - 1):
        proj = u @ (stride * np.array((1,) + signs))
        for far in (u[np.argmax(proj)], u[np.argmin(proj)]):
            lower = np.maximum(lower, np.sum((stride * (u[:k0] - far)) ** 2, axis=1))
    return k0 if np.all(lower > q) else None


def _scale_profile(fam: Family):
    """Per-scale maxima of occupied-cell counts in balls around occupied
    cells.  Returns (radii, max_counts, argmax element index per scale,
    covering number).  Independent of the exponent s, so one profile serves
    every regularity variant and the bisection in `best_dimension`.

    Every scale's path is planned before anything is counted (module
    docstring): the summed-area table for code-max balls; for Euclidean
    balls the full-ball shortcut where `_full_ball_centre` finds a centre,
    else the filled-box count where the cells fill u's box and its grids
    fit DENSE_LIMIT, else the column stencil where its grid and the scale's
    FFT grid, of P cells, fit DENSE_LIMIT and _STENCIL_WEIGHT * (cover +
    _COLUMN_COST) * columns <= P log2 P, else the circular FFT; a kd-tree
    for a scale whose table or FFT grid would exceed DENSE_LIMIT cells; and
    a ValueError, raised before any count, when that tree would exceed
    TREE_LIMIT cells.  A filled scale, or one whose FFT grid fits, builds
    its ball columns once, in the plan, for whichever of the filled count,
    the stencil and the FFT counts it.  The code-max tree takes the table's
    reach as its radius.  The table, filled, stencil and FFT grids hold u =
    offsets // g, the offsets on the family's own lattice; the shortcut
    weighs u by g^2, and the tree holds g u."""
    if len(fam) == 0:
        raise ValueError("regularity profile of an empty family")
    delta = fam.delta
    metric = "euclidean" if fam.kind == "points" else "chebyshev"
    cells = _floor_cells(measurement_coordinates(fam), delta)
    first_idx = first_rows(cells)
    exact, stride, u, u_shape = _lattice(cells.T.take(first_idx, axis=1))
    del cells
    cover = first_idx.size
    weights = stride * stride

    radii = _scale_radii(delta)
    corner2 = None
    if metric == "euclidean" and exact:
        # each centre's squared distance to its farthest box corner, the
        # shortcut's upper bound
        corner2 = np.sum(weights * np.maximum(u, u_shape - 1 - u) ** 2, axis=1)
    # every cell of u's box is occupied
    filled = cover == math.prod(u_shape.tolist())
    last = np.eye(fam.dim, dtype=np.int64)[-1]
    # grid sizes are products of Python ints: an int64 product can wrap to
    # a size that fits DENSE_LIMIT
    table_cells = math.prod((u_shape + 1).tolist())
    plan = []
    for r in radii:
        ratio = r / delta
        reach = int(math.floor(ratio + 1e-9))
        if metric == "chebyshev":
            step, dense, radius = ("table", reach // stride), table_cells, reach
        else:
            q = math.floor(ratio * ratio)
            centre = None if corner2 is None else _full_ball_centre(u, stride, corner2, q)
            if centre is not None:
                plan.append(("full", centre))
                continue
            clip = np.minimum(reach // stride, u_shape - 1)
            # past sum(g^2 clip^2), q admits every clipped offset alike
            q = min(q, int(np.sum(weights * clip * clip)))
            if filled and math.prod(np.maximum(u_shape, 2 * clip + 2).tolist()) <= DENSE_LIMIT:
                plan.append(("filled", clip, *_ball_columns(q, clip, weights)))
                continue
            period = [next_fast_len(int(n + c)) for n, c in zip(u_shape, clip)]
            dense, radius = math.prod(period), ratio
            if dense <= DENSE_LIMIT:
                cols, halves = _ball_columns(q, clip, weights)
                step = ("fft", cols, halves, period)
                if (math.prod((u_shape + 2 * clip + last).tolist()) <= DENSE_LIMIT
                        and _STENCIL_WEIGHT * (cover + _COLUMN_COST) * len(cols)
                        <= dense * math.log2(dense)):
                    step = ("stencil", clip, cols, halves)
        if dense <= DENSE_LIMIT:
            plan.append(step)
        elif cover <= TREE_LIMIT:
            plan.append(("tree", radius, metric))
        else:
            raise ValueError(
                f"family too large for an exact regularity profile at scale r={float(r)!r} "
                f"({cover} occupied cells; the dense count would allocate {dense} "
                f"cells, over DENSE_LIMIT={DENSE_LIMIT})"
            )

    table = tree = keys = None
    max_counts = np.empty(radii.size, dtype=np.int64)
    argmax_elem = np.empty(radii.size, dtype=np.int64)
    for j, (path, *args) in enumerate(plan):
        if path == "full":
            max_counts[j], argmax_elem[j] = cover, first_idx[args[0]]
            continue
        if path == "table":
            if table is None:
                table, _ = _prefix_grid(u, u_shape, 0, range(fam.dim))
            counts = _box_counts(table, u, *args)
        elif path == "stencil":
            clip, cols, halves = args
            counts = _stencil_counts(*_prefix_grid(u, u_shape, clip, [-1]), cols, halves)
        elif path == "fft":
            counts = _ball_counts(u, *args)
        elif path == "filled":
            if keys is None:
                keys = np.ravel_multi_index(tuple(u.T), u_shape)
            counts = _filled_counts(keys, u_shape, *args)
        else:
            if tree is None:
                tree = cKDTree((u * stride).astype(np.float64))
            counts = _counts_tree(tree, *args)
        k = int(np.argmax(counts))
        max_counts[j] = counts[k]
        argmax_elem[j] = first_idx[k]
    return radii, max_counts, argmax_elem, cover


def _affine_profile(fam: Family):
    """Cross-check profile for hyperplane families using the exact affine
    metric for ball membership (centers at elements); covering cells stay in
    code space.  Quadratic in the family size, so capped."""
    n = len(fam)
    if fam.kind != "hyperplanes":
        raise ValueError("the affine-metric profile applies to hyperplane families")
    if n > AFFINE_LIMIT:
        raise ValueError(
            f"affine-metric profile refused for {n} hyperplanes (limit {AFFINE_LIMIT})"
        )
    if n == 0:
        raise ValueError("regularity profile of an empty family")
    delta = fam.delta
    _, inverse, sizes = distinct_rows(_floor_cells(code_coordinates(fam.elements), delta))
    # columns grouped by cell, so that one reduceat per scale gives the
    # (element, cell) hits
    by_cell = fam.elements[np.argsort(inverse, kind="stable")][None, :, :]
    starts = np.cumsum(sizes) - sizes
    radii = _scale_radii(delta)
    counts = np.empty((radii.size, n), dtype=np.int64)
    # pair distances are elementwise, so row blocks of the pair matrix give
    # the same counts with about ten block-sized float64 temporaries alive
    rows = max(1, _AFFINE_BLOCK // n)
    for r0 in range(0, n, rows):
        pair = affine_metric(fam.elements[r0:r0 + rows, None, :], by_cell)
        for j, r in enumerate(radii):
            counts[j, r0:r0 + rows] = np.logical_or.reduceat(
                pair <= r, starts, axis=1).sum(axis=1)
    # the first maximum; each element's own cell makes every count >= 1
    argmax_elem = np.argmax(counts, axis=1)
    return radii, counts.max(axis=1), argmax_elem, sizes.size


def _build_report(fam, s, variant, use_affine_metric):
    require_exponent("s", s, fam.dim)
    if use_affine_metric:
        radii, counts, centers, cover = _affine_profile(fam)
        metric = "affine"
    else:
        radii, counts, centers, cover = _scale_profile(fam)
        metric = "euclidean" if fam.kind == "points" else "code-max"
    if variant == "standard":
        denom = radii**s * cover
    else:
        denom = (radii / fam.delta) ** s
    ratios = counts / denom
    k = int(np.argmax(ratios))
    return RegularityReport(
        s=float(s),
        c_star=float(ratios[k]),
        worst_scale=float(radii[k]),
        worst_center=int(centers[k]),
        per_scale=tuple((float(r), float(q)) for r, q in zip(radii, ratios)),
        metric=metric,
        variant=variant,
    )


def regularity_constant(fam: Family, s, use_affine_metric=False) -> RegularityReport:
    """Worst ratio |E cap B(x, r)|_delta / (r^s |E|_delta) over dyadic scales
    r in {delta, 2 delta, ..., 1} and centers on the occupied cells of E.

    Centering only at the family loses at most a factor 2^s against balls
    centered anywhere (a ball meeting E sits inside a double ball centered
    at a member); that slack is documented, not corrected for.
    """
    return _build_report(fam, s, "standard", use_affine_metric)


def katz_tao_constant(fam: Family, s, use_affine_metric=False) -> RegularityReport:
    """As `regularity_constant` but against the denominator (r/delta)^s."""
    return _build_report(fam, s, "katz-tao", use_affine_metric)


def best_dimension(fam: Family, c_max) -> float:
    """Largest s in [0, dim] with regularity_constant(E, s).c_star <= c_max,
    located by bisection to 1e-3.  Monotonicity in s holds exactly because
    every tested radius is <= 1.  Returns 0.0 if even s = 0 fails."""
    if not c_max >= 1:
        raise ValueError(f"c_max must be at least 1, got {c_max}")
    radii, counts, _, cover = _scale_profile(fam)

    def c_star(s):
        return float(np.max(counts / (radii**s * cover)))

    d = float(fam.dim)
    if c_star(0.0) > c_max:
        return 0.0
    if c_star(d) <= c_max:
        return d
    lo, hi = 0.0, d
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if c_star(mid) <= c_max:
            lo = mid
        else:
            hi = mid
    return lo
