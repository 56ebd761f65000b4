"""Exact incidence counting between point and hyperplane families.

Two counters produce the count I = #{(p, pi) : p in the closed
cdelta-neighborhood of pi}: a brute-force oracle over all pairs and an
accelerated counter over scipy's `cKDTree` of the points.  The accelerated
path classifies whole subtrees against each slab with conservatively inflated
bounds and falls back to the oracle's exact predicate expression at the
leaves, so the two agree bit for bit on every input, worker count and
leaf size.

Also here: the dyadic annulus decomposition of a hyperplane family around a
center plane, bucketed by the affine metric.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .family import Family
from .geometry import affine_metric, incidence_mask, slab_offsets, unit_normal_norms

DEFAULT_LEAF_SIZE = 64

# Relative safety margin for subtree classification.  Rounding errors in the
# center/spread arithmetic are at the 1e-16 relative level; anything within
# 1e-9 of the threshold is sent to the leaf predicate instead of being
# classified, so classification can never disagree with the predicate.
_CLASSIFY_MARGIN = 1e-9


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


def _prepare(points_fam: Family, planes_fam: Family, cdelta):
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


def _map_threads(fn, chunks, workers):
    """`[fn(c) for c in chunks]`, on `_thread_count(workers, len(chunks))` threads."""
    threads = _thread_count(workers, len(chunks))
    if threads == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, chunks))


def count_incidences_oracle(points_fam, planes_fam, cdelta, mode="euclidean", workers=1):
    """Ground-truth count: the shared predicate over every (point, plane)
    pair, evaluated in plane blocks.  Parallelism only splits the blocks;
    all reductions are integer sums, so the report is worker-independent."""
    _prepare(points_fam, planes_fam, cdelta)
    pts = points_fam.elements
    coeffs = planes_fam.elements
    n, m = len(pts), len(coeffs)
    per_plane = np.zeros(m, dtype=np.int64)
    per_point = np.zeros(n, dtype=np.int64)
    if n and m:
        norms = unit_normal_norms(coeffs)
        block = int(np.clip((1 << 21) // max(n, 1), 1, m))
        spans = [(j, min(j + block, m)) for j in range(0, m, block)]

        def run(span):
            j0, j1 = span
            mask = incidence_mask(
                pts[:, None, :], coeffs[None, j0:j1, :], cdelta, mode,
                norms=norms[None, j0:j1],
            )
            return j0, j1, mask.sum(axis=0, dtype=np.int64), mask.sum(axis=1, dtype=np.int64)

        for j0, j1, plane_part, point_part in _map_threads(run, spans, workers):
            per_plane[j0:j1] = plane_part
            per_point += point_part
    return _assemble(per_plane.sum(), per_plane, per_point, cdelta, mode, points_fam.delta)


class _PointTree:
    """Flat arrays of `cKDTree(points, leafsize=leaf_size)` (Bentley 1975).

    Nodes are in pre-order, lesser child first: node 0 is the root, node i
    holds `points[lo[i]:hi[i]]` of the `perm`-permuted points, `left`/`right`
    are -1 at leaves, and the leaves tile [0, n) in increasing `lo`.  Box
    bounds are exact: one `reduceat` over the leaf slices, then each internal
    node from its two children, deepest level first."""

    def __init__(self, points, leaf_size):
        kd = cKDTree(points, leafsize=leaf_size)
        self.perm = kd.indices
        self.points = points[self.perm]
        rows, right = [], []
        stack = [(kd.tree, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                right[parent] = len(rows)
            rows.append((node.start_idx, node.end_idx, node.level))
            right.append(-1)
            if node.split_dim >= 0:
                stack += [(node.greater, len(rows) - 1), (node.lesser, -1)]
        self.lo, self.hi, level = np.array(rows, dtype=np.int64).T.copy()
        self.right = np.asarray(right, dtype=np.int64)
        inner = self.right >= 0
        self.left = np.where(inner, np.arange(self.lo.size) + 1, -1)

        bmin, bmax = np.empty((2, self.lo.size, points.shape[1]))
        starts = self.lo[~inner]
        bmin[~inner] = np.minimum.reduceat(self.points, starts)
        bmax[~inner] = np.maximum.reduceat(self.points, starts)
        for depth in range(level.max() - 1, -1, -1):
            at = np.flatnonzero(inner & (level == depth))
            l, r = self.left[at], self.right[at]
            bmin[at] = np.minimum(bmin[l], bmin[r])
            bmax[at] = np.maximum(bmax[l], bmax[r])
        self.centers = 0.5 * (bmin + bmax)
        self.halves = 0.5 * (bmax - bmin)


def _fold_spread(abs_slopes, halves):
    d = halves.shape[-1]
    acc = abs_slopes[..., 0] * halves[..., 0]
    for i in range(1, d - 1):
        acc = acc + abs_slopes[..., i] * halves[..., i]
    return acc + halves[..., d - 1]


# Descent batches are capped so transient classification arrays stay at
# tens of megabytes regardless of family size.
_BATCH_CAP = 1 << 21


def _count_chunk(tree, coeffs, norms, abs_slopes, thresholds, cdelta, mode, plane_ids, m):
    pts = tree.points
    n = pts.shape[0]
    per_plane = np.zeros(m, dtype=np.int64)
    per_point = np.zeros(n, dtype=np.int64)
    accept_diff = np.zeros(n + 1, dtype=np.int64)
    count = 0

    stack = [(np.zeros(plane_ids.size, dtype=np.int64), plane_ids)]
    while stack:
        nodes, planes = stack.pop()
        psic = slab_offsets(tree.centers[nodes], coeffs[planes])
        spread = _fold_spread(abs_slopes[planes], tree.halves[nodes])
        thr = thresholds[planes]
        apsic = np.abs(psic)
        margin = _CLASSIFY_MARGIN * (apsic + spread + thr)
        accept = apsic + spread + margin <= thr
        reject = apsic - spread - margin > thr
        if accept.any():
            an = nodes[accept]
            sizes = tree.hi[an] - tree.lo[an]
            np.add.at(per_plane, planes[accept], sizes)
            np.add.at(accept_diff, tree.lo[an], 1)
            np.add.at(accept_diff, tree.hi[an], -1)
            count += int(sizes.sum())
        keep = ~(accept | reject)
        nodes = nodes[keep]
        planes = planes[keep]

        at_leaf = tree.left[nodes] < 0
        if at_leaf.any():
            count += _leaf_eval(
                tree, nodes[at_leaf], planes[at_leaf], coeffs, norms,
                cdelta, mode, per_plane, per_point,
            )
            nodes = nodes[~at_leaf]
            planes = planes[~at_leaf]
        if nodes.size:
            child_nodes = np.concatenate([tree.left[nodes], tree.right[nodes]])
            child_planes = np.concatenate([planes, planes])
            if child_nodes.size > _BATCH_CAP:
                half = child_nodes.size // 2
                stack.append((child_nodes[:half], child_planes[:half]))
                stack.append((child_nodes[half:], child_planes[half:]))
            else:
                stack.append((child_nodes, child_planes))
    per_point += np.cumsum(accept_diff[:-1])
    return count, per_plane, per_point


def _leaf_eval(tree, leaf_nodes, leaf_planes, coeffs, norms, cdelta, mode, per_plane, per_point):
    """Exact predicate evaluation for (leaf, plane) pairs, grouped by leaf.
    Within one leaf the plane list is duplicate-free, so plain fancy-index
    accumulation is safe."""
    order = np.argsort(leaf_nodes, kind="stable")
    ln = leaf_nodes[order]
    lp = leaf_planes[order]
    bounds = np.flatnonzero(np.diff(ln)) + 1
    count = 0
    for i0, i1 in zip(np.r_[0, bounds], np.r_[bounds, ln.size]):
        node = ln[i0]
        b0, b1 = tree.lo[node], tree.hi[node]
        pl = lp[i0:i1]
        mask = incidence_mask(
            tree.points[b0:b1, None, :], coeffs[None, pl, :], cdelta, mode,
            norms=norms[None, pl],
        )
        per_plane[pl] += mask.sum(axis=0, dtype=np.int64)
        per_point[b0:b1] += mask.sum(axis=1, dtype=np.int64)
        count += int(mask.sum())
    return count


def count_incidences_fast(points_fam, planes_fam, cdelta, mode="euclidean",
                          workers=1, leaf_size=DEFAULT_LEAF_SIZE):
    """Accelerated counter; identical report to the oracle, bit for bit.

    Subtrees are accepted or rejected wholesale only when the slab offset at
    the box center clears the threshold by more than the box's worst-case
    offset spread plus a safety margin; everything else descends, and leaf
    pairs run the oracle's own predicate expression on the same operand
    values.  Per-plane decisions never depend on the plane chunking, so any
    worker count yields the same report."""
    _prepare(points_fam, planes_fam, cdelta)
    if isinstance(leaf_size, bool) or not isinstance(leaf_size, numbers.Integral) or leaf_size < 1:
        raise ValueError(f"leaf_size must be an integer >= 1, got {leaf_size!r}")
    pts = points_fam.elements
    coeffs = planes_fam.elements
    n, m = len(pts), len(coeffs)
    per_plane = np.zeros(m, dtype=np.int64)
    per_point = np.zeros(n, dtype=np.int64)
    count = 0
    if n and m:
        tree = _PointTree(pts, leaf_size)
        norms = unit_normal_norms(coeffs)
        abs_slopes = np.abs(coeffs[:, :-1])
        thresholds = cdelta * norms if mode == "euclidean" else np.full(m, float(cdelta))
        chunks = np.array_split(np.arange(m, dtype=np.int64), _thread_count(workers, m))

        def run(chunk):
            return _count_chunk(
                tree, coeffs, norms, abs_slopes, thresholds, cdelta, mode, chunk, m
            )

        per_point_perm = np.zeros(n, dtype=np.int64)
        for c_part, plane_part, point_part in _map_threads(run, chunks, workers):
            count += c_part
            per_plane += plane_part
            per_point_perm += point_part
        per_point[tree.perm] = per_point_perm
    return _assemble(count, per_plane, per_point, cdelta, mode, points_fam.delta)


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
    delta = planes_fam.delta
    elements = planes_fam.elements
    others = np.flatnonzero(~np.all(elements == center, axis=1))
    buckets = {}
    if others.size:
        w = np.asarray(affine_metric(center, elements[others]))
        idx = np.zeros(others.size, dtype=np.int64)
        above = w >= delta
        ii = np.floor(np.log2(w[above] / delta)).astype(np.int64) + 1
        # floor(log2) can sit one off at exact powers of two; nudge until the
        # half-open interval [2^(i-1) delta, 2^i delta) really holds
        ii[w[above] >= delta * np.exp2(ii)] += 1
        ii[w[above] < delta * np.exp2(ii - 1)] -= 1
        idx[above] = ii
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
