"""Exact incidence counting between point and hyperplane families.

Two counters produce the count I = #{(p, pi) : p in the closed
cdelta-neighborhood of pi}: a brute-force oracle over all pairs and an
accelerated counter.  The accelerated counter splits the planes into
parallel classes (equal slope vectors a, found by `distinct_rows`, which
compares by value, so a signed zero never splits a class) and sends each
class down one of two paths:

- A class of at least `SWEEP_MIN_CLASS` planes is a stack of parallel
  slabs, so its count is a 1-D range count (Agarwal and Erickson 1999).
  Each point's offset s = a . p - p_d is folded exactly as `slab_offsets`
  folds it, the distinct offsets are sorted once, and a plane with
  intercept b and threshold thr takes the offsets in [-b - w, -b + w] as
  candidates, w = thr widened by `CANDIDATE_MARGIN`, and each candidate
  is decided by the oracle's own predicate on one point with that offset.
  Coordinates whose slope is 0 in every swept plane add exact zeros to the
  fold, so they are dropped first: points that differ only there (the
  lifted sharp pair's layers) are swept once, with their multiplicity.
- Every other plane meets every leaf box of scipy's `cKDTree` of the
  points (Bentley 1975) in one broadcast pass, with no descent.  A leaf
  skips a plane only when its box, widened by `CANDIDATE_MARGIN`, lies
  outside the plane's slab; the oracle's predicate runs on the points of
  every other leaf.

Both filters are one-sided: a window or a box test only drops pairs that
lie farther from the slab than the margin, which the predicate would
refuse, and every pair it keeps is decided by the predicate.  So every
incidence either path reports is a predicate hit on the oracle's operand
values, and both paths agree with the oracle bit for bit on every input,
worker count and leaf size.

Also here: the dyadic annulus decomposition of a hyperplane family around a
center plane, bucketed by the affine metric.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .family import Family, require_int
from .geometry import (CANDIDATE_MARGIN, affine_metric, check_plane_coeffs, distinct_rows,
                       fold_dot, incidence_mask, require_mode, slab_offsets,
                       unit_normal_norms)

DEFAULT_LEAF_SIZE = 128

# A block of the oracle, the leaf pass or a sweep's window loop holds at
# most this many pairs (or one leaf or plane), so transient
# arrays stay at tens of megabytes regardless of family size.
_BATCH_CAP = 2**21


@dataclass(frozen=True)
class IncidenceReport:
    """Counts plus sparse histograms of per-plane and per-point incidences.

    `per_plane` and `per_point` are sorted (value, multiplicity) pairs; the
    total mass of each equals `count`.  `ratio` is count / (delta |P| |Pi|).
    """

    count: int
    cdelta: float
    mode: str
    ratio: float
    per_plane: tuple
    per_point: tuple

    def to_dict(self):
        return {
            "count": self.count,
            "cdelta": self.cdelta,
            "mode": self.mode,
            "ratio": self.ratio,
            "per_plane": [[v, m] for v, m in self.per_plane],
            "per_point": [[v, m] for v, m in self.per_point],
        }


def _histogram(values):
    if values.size == 0:
        return ()
    vals, mult = np.unique(values, return_counts=True)
    return tuple((int(v), int(m)) for v, m in zip(vals, mult))


def _prepare(points_fam: Family, planes_fam: Family, cdelta, mode, workers):
    require_int("workers", workers)
    require_mode(mode)
    if points_fam.kind != "points":
        raise ValueError(f"first family must be points, got {points_fam.kind!r}")
    if planes_fam.kind != "hyperplanes":
        raise ValueError(f"second family must be hyperplanes, got {planes_fam.kind!r}")
    if points_fam.dim != planes_fam.dim:
        raise ValueError(
            f"dimension mismatch: points dim {points_fam.dim}, planes dim {planes_fam.dim}"
        )
    if points_fam.delta != planes_fam.delta:
        raise ValueError(
            f"scale mismatch: points delta {points_fam.delta!r}, planes delta {planes_fam.delta!r}"
        )
    if not cdelta > 0:
        raise ValueError(f"cdelta must be positive, got {cdelta}")
    if not np.isfinite(points_fam.elements).all():
        raise ValueError("points must have finite coordinates")
    if not np.isfinite(planes_fam.elements).all():
        raise ValueError("planes must have finite coefficients")


def _assemble(count, per_plane, per_point, cdelta, mode, delta):
    denom = delta * per_point.size * per_plane.size
    ratio = count / denom if denom > 0 else 0.0
    return IncidenceReport(
        count=int(count),
        cdelta=float(cdelta),
        mode=mode,
        ratio=float(ratio),
        per_plane=_histogram(per_plane),
        per_point=_histogram(per_point),
    )


def _thread_count(workers, n_chunks):
    """Threads for `n_chunks` pieces of work: at most the CPUs, pieces and `workers`."""
    return max(1, min(workers, os.cpu_count() or 1, n_chunks))


def _summed_over_threads(fn, items, workers):
    """Split `items` into `_thread_count(workers, len(items))` chunks, one
    per thread, and add up the tuples of integer arrays `fn(chunk)` returns:
    integer sums do not depend on the split."""
    chunks = np.array_split(items, _thread_count(workers, len(items)))
    if len(chunks) == 1:
        return fn(chunks[0])
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return tuple(sum(parts) for parts in zip(*pool.map(fn, chunks)))


def count_incidences_oracle(points_fam, planes_fam, cdelta, mode="euclidean", workers=1):
    """Ground-truth count: the shared predicate over every (point, plane)
    pair, evaluated in plane blocks.  Parallelism only splits the blocks;
    all reductions are integer sums, so the report is worker-independent."""
    _prepare(points_fam, planes_fam, cdelta, mode, workers)
    pts = points_fam.elements
    coeffs = planes_fam.elements
    n, m = len(pts), len(coeffs)
    norms = unit_normal_norms(coeffs)
    block = max(1, min(_BATCH_CAP // max(n, 1), m))

    def run(starts):
        per_plane = np.zeros(m, dtype=np.int64)
        per_point = np.zeros(n, dtype=np.int64)
        for j0 in starts:
            j1 = min(j0 + block, m)
            mask = incidence_mask(
                pts[:, None, :], coeffs[None, j0:j1, :], cdelta, mode,
                norms=norms[None, j0:j1],
            )
            per_plane[j0:j1] = mask.sum(axis=0, dtype=np.int64)
            per_point += mask.sum(axis=1, dtype=np.int64)
        return per_plane, per_point

    per_plane, per_point = _summed_over_threads(run, np.arange(0, m, block), workers)
    return _assemble(per_plane.sum(), per_plane, per_point, cdelta, mode, points_fam.delta)


class _PointTree:
    """The leaves of `cKDTree(points, leafsize=leaf_size)` (Bentley 1975).

    Leaf i holds `points[lo[i]:hi[i]]` of the `perm`-permuted points, and
    the leaves tile [0, n) in increasing `lo`.  Each leaf box is exact: one
    `reduceat` over the leaf slices."""

    def __init__(self, points, leaf_size):
        kd = cKDTree(points, leafsize=leaf_size)
        self.perm = kd.indices
        self.points = points[self.perm]
        starts, stack = [], [kd.tree]
        while stack:  # pre-order, lesser child first
            node = stack.pop()
            if node.split_dim < 0:
                starts.append(node.start_idx)
            else:
                stack += [node.greater, node.lesser]
        self.lo = np.array(starts, dtype=np.int64)
        self.hi = np.append(self.lo[1:], len(points))
        bmin = np.minimum.reduceat(self.points, self.lo)
        bmax = np.maximum.reduceat(self.points, self.lo)
        self.centers = 0.5 * (bmin + bmax)
        self.halves = 0.5 * (bmax - bmin)


def _plane_thresholds(coeffs, cdelta, mode):
    """Unit-normal norms and the |psi| threshold of each plane."""
    norms = unit_normal_norms(coeffs)
    thresholds = cdelta * norms if mode == "euclidean" else np.full(len(coeffs), float(cdelta))
    return norms, thresholds


def _count_chunk(tree, coeffs, norms, thresholds, cdelta, mode, plane_ids, m):
    """Counts of the planes `plane_ids` in O(leaves x planes): blocks of
    leaves meet every one of these planes, a leaf skips each plane whose
    slab its widened box misses, and the predicate runs on the leaf's
    points against every other plane, once per leaf."""
    per_plane = np.zeros(m, dtype=np.int64)
    per_point = np.zeros(tree.points.shape[0], dtype=np.int64)
    planes = coeffs[None, plane_ids]
    slopes = np.abs(coeffs[None, plane_ids, :-1])
    thr = thresholds[plane_ids]
    step = max(1, _BATCH_CAP // plane_ids.size)
    for l0 in range(0, tree.lo.size, step):
        block = slice(l0, l0 + step)
        apsic = np.abs(slab_offsets(tree.centers[block, None], planes))
        halves = tree.halves[block, None]
        spread = fold_dot(slopes, halves[..., :-1]) + halves[..., -1]
        margin = CANDIDATE_MARGIN * (apsic + spread + thr)
        near = apsic - spread - margin <= thr
        for leaf, row in enumerate(near, start=l0):
            pl = plane_ids[row]
            if not pl.size:
                continue
            b0, b1 = tree.lo[leaf], tree.hi[leaf]
            mask = incidence_mask(
                tree.points[b0:b1, None, :], coeffs[None, pl, :], cdelta, mode,
                norms=norms[None, pl],
            )
            per_plane[pl] += mask.sum(axis=0, dtype=np.int64)
            per_point[b0:b1] += mask.sum(axis=1, dtype=np.int64)
    return per_plane, per_point


def _kd_counts(pts, coeffs, cdelta, mode, plane_ids, workers, leaf_size):
    """Per-plane and per-point counts of the planes `plane_ids` by the leaf
    pass over the points' kd-tree, the planes split into one chunk per thread."""
    n, m = len(pts), len(coeffs)
    tree = _PointTree(pts, leaf_size)
    norms, thresholds = _plane_thresholds(coeffs, cdelta, mode)

    def run(chunk):
        return _count_chunk(tree, coeffs, norms, thresholds, cdelta, mode, chunk, m)

    per_plane, per_point_perm = _summed_over_threads(run, plane_ids, workers)
    per_point = np.empty(n, dtype=np.int64)
    per_point[tree.perm] = per_point_perm
    return per_plane, per_point


# Parallel classes of at least this many planes are swept, the rest go
# through the leaf pass.  On random points (nothing to drop), 5,000-20,000
# of them, 1,536 planes, best of 7, 2-core x86, the sweep draws level with
# the leaf pass at 64 planes per class in d = 3, leads only from 128-256 in
# d = 2 and trails up to 256 in d = 4 at cdelta = 0.125.  64 stays because
# lattice classes are larger and collapse under the coordinate drop: the
# d = 3 sharp pair at 2^-6 takes 0.008 s swept, 0.11 s on the leaf pass.
SWEEP_MIN_CLASS = 64


def _sweep_class(distinct, first, mult, kept, pts, coeffs, norms, thresholds,
                 cdelta, mode, planes, per_plane, per_distinct):
    """Counts for one parallel class `planes` over the `distinct` points,
    which stand for `mult` points each; `first` maps them to input rows."""
    # s = fold(a, p) - p_d, bit for bit as in slab_offsets (the + 0.0
    # intercept is exact); dropped coordinates would only have added zeros
    s = slab_offsets(distinct, np.append(coeffs[planes[0], kept], 0.0))
    # points with equal s share one verdict, so the first of them stands for
    # the rest, with their multiplicities summed in exact int64
    at, s_inv, _ = distinct_rows(s[:, None])
    values, rep = s[at], first[at]
    weight = np.zeros(values.size, dtype=np.int64)
    np.add.at(weight, s_inv, mult)

    b = coeffs[planes, -1]
    thr = thresholds[planes]
    w = thr + CANDIDATE_MARGIN * (np.abs(b) + thr + 1.0)
    lo = np.searchsorted(values, -b - w, side="left")
    lengths = np.searchsorted(values, -b + w, side="right") - lo
    per_value = np.zeros(values.size, dtype=np.int64)
    step = max(1, _BATCH_CAP // max(int(lengths.max()), 1))
    for j0 in range(0, planes.size, step):
        pl, ln = planes[j0:j0 + step], lengths[j0:j0 + step]
        ends = np.cumsum(ln)
        pair_plane = np.repeat(pl, ln)
        pair_value = np.arange(ends[-1]) + np.repeat(lo[j0:j0 + step] - (ends - ln), ln)
        hit = incidence_mask(
            pts[rep[pair_value]], coeffs[pair_plane], cdelta, mode,
            norms=norms[pair_plane],
        )
        cum = np.concatenate([[0], np.cumsum(np.where(hit, weight[pair_value], 0))])
        per_plane[pl] = cum[ends] - cum[ends - ln]
        per_value += np.bincount(pair_value[hit], minlength=values.size)
    per_distinct += per_value[s_inv]


def _sweep_counts(pts, coeffs, cdelta, mode, plane_ids, classes, workers):
    """Per-plane and per-point counts of the planes `plane_ids`, whose
    parallel-class labels are `classes`, by one sorted sweep per class;
    the classes are split into one chunk per thread."""
    d = pts.shape[1]
    m = len(coeffs)
    norms, thresholds = _plane_thresholds(coeffs, cdelta, mode)
    kept = np.flatnonzero((coeffs[plane_ids, :-1] != 0).any(axis=0))
    if kept.size == 0:  # slab_offsets needs one slope column
        kept = np.zeros(1, dtype=np.int64)
    rows = pts[:, np.append(kept, d - 1)]
    first, inv, mult = distinct_rows(rows)
    distinct = rows[first]
    order = np.argsort(classes, kind="stable")
    groups = np.split(plane_ids[order], np.flatnonzero(np.diff(classes[order])) + 1)

    def run(chunk):
        per_plane = np.zeros(m, dtype=np.int64)
        per_distinct = np.zeros(len(distinct), dtype=np.int64)
        for g in chunk:
            _sweep_class(distinct, first, mult, kept, pts, coeffs, norms, thresholds,
                         cdelta, mode, groups[g], per_plane, per_distinct)
        return per_plane, per_distinct

    per_plane, per_distinct = _summed_over_threads(run, np.arange(len(groups)), workers)
    return per_plane, per_distinct[inv]


def count_incidences_fast(points_fam, planes_fam, cdelta, mode="euclidean",
                          workers=1, leaf_size=DEFAULT_LEAF_SIZE):
    """Accelerated counter; identical report to the oracle, bit for bit.

    Parallel classes of at least `SWEEP_MIN_CLASS` planes are counted by a
    sorted sweep over the points' offsets, every other plane by the kd-tree
    leaf pass.  Neither path counts a pair that the predicate has not
    accepted: their filters only drop pairs outside a slab widened by
    `CANDIDATE_MARGIN`, and the predicate decides every other pair on the
    same operand values as the oracle (see the module docstring).
    Per-plane results never depend on the chunking, and per-point counts
    are integer sums, so any worker count or leaf size yields the same
    report."""
    _prepare(points_fam, planes_fam, cdelta, mode, workers)
    require_int("leaf_size", leaf_size)
    pts = points_fam.elements
    coeffs = planes_fam.elements
    n, m = len(pts), len(coeffs)
    per_plane = np.zeros(m, dtype=np.int64)
    per_point = np.zeros(n, dtype=np.int64)
    if n and m:
        _, classes, sizes = distinct_rows(coeffs[:, :-1])
        swept = sizes[classes] >= SWEEP_MIN_CLASS
        parts = []
        if swept.any():
            ids = np.flatnonzero(swept)
            parts.append(_sweep_counts(pts, coeffs, cdelta, mode, ids, classes[ids], workers))
        if not swept.all():
            ids = np.flatnonzero(~swept)
            parts.append(_kd_counts(pts, coeffs, cdelta, mode, ids, workers, leaf_size))
        for plane_part, point_part in parts:
            per_plane += plane_part
            per_point += point_part
    return _assemble(per_plane.sum(), per_plane, per_point, cdelta, mode, points_fam.delta)


@dataclass(frozen=True)
class AnnulusPartition:
    """Dyadic shells around a center plane under the affine metric.

    `buckets` maps i >= 1 to indices of planes with distance in
    [2^(i-1) delta, 2^i delta), and 0 to sub-separation stragglers with
    distance < delta; only nonempty buckets are stored.  The center plane
    itself (exact coefficient match) is excluded, so the stored indices
    partition the rest of the family."""

    center: np.ndarray
    delta: float
    buckets: dict


def annulus_partition(planes_fam: Family, center) -> AnnulusPartition:
    if planes_fam.kind != "hyperplanes":
        raise ValueError(f"annulus partition expects hyperplanes, got {planes_fam.kind!r}")
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (planes_fam.dim,):
        raise ValueError(
            f"center plane has shape {center.shape}, expected ({planes_fam.dim},)"
        )
    check_plane_coeffs(center)
    delta = planes_fam.delta
    elements = planes_fam.elements
    others = np.flatnonzero(~np.all(elements == center, axis=1))
    buckets = {}
    if others.size:
        w = np.asarray(affine_metric(center, elements[others]))
        # i = the number of edges delta 2^j <= w, each edge exact; the
        # largest w lies below delta 2^top
        top = np.frexp(w.max() / delta)[1]
        idx = np.searchsorted(delta * np.exp2(np.arange(top)), w, side="right")
        for i in np.unique(idx):
            buckets[int(i)] = others[idx == i]
    return AnnulusPartition(center=center, delta=delta, buckets=buckets)


def annulus_growth_check(planes_fam: Family, center, t):
    """K = max_i |bucket_i| / ((2^i delta)^t |Pi|) plus the per-bucket table.

    Rows are (i, 2^i delta, bucket size, ratio); K = 0.0 for a family with
    no plane besides the center."""
    part = annulus_partition(planes_fam, center)
    m = len(planes_fam)
    table = []
    best = 0.0
    for i in sorted(part.buckets):
        r = part.delta * 2.0**i
        size = int(part.buckets[i].size)
        ratio = size / (r**t * m)
        table.append((i, r, size, ratio))
        best = max(best, ratio)
    return best, table
