"""Nondominated sorting of point clouds and PDE-based ranking.

A point p dominates q when p <= q coordinatewise and p != q; exact
duplicates never dominate each other and always share a front. Front k is
the set of coordinatewise minimal points once fronts 1..k-1 are removed,
equivalently 1 + the length of the longest domination chain ending at the
point.

Peeling is one sweep (`_fronts`): the points in lexicographic order, so
every dominator of a point comes before it, exact duplicates grouped, and a
binary search over the fronts for the first one holding no dominator. Two
kernels test a front for a dominator. `_peel_staircases` serves n <= 3 with
a 2-d staircase per front: O(N log N) for n <= 2, where each staircase holds
one entry, and O(N log^2 N) comparisons for n=3. `_peel_buckets` serves
n >= 4 with a scan of every point of each probed front: O(N^2) worst case.

pde_rank assigns each point the multilinearly interpolated value of a solved
grid field; its level sets approximate the fronts, and rank_agreement
measures how often the two orderings agree over point pairs, by sorting and
merge-counting in O(N log^2 N).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .grid import GridField


class CloudFormatError(ValueError):
    """Malformed point-cloud file; carries the 1-based line number."""

    def __init__(self, message, line: int | None = None):
        super().__init__(message)
        self.line = line


class PointsOutsideDomainError(ValueError):
    """Query points fell outside [0,1]^n; carries their indices."""

    def __init__(self, message, indices):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, n), float64, all finite

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2:
            raise ValueError(f"expected a (N, n) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def normalized(self) -> "PointCloud":
        """Map each axis to [0,1] by min/max; a constant axis maps to 0.5.
        Strictly increasing per-axis maps leave domination unchanged."""
        pts = self.points
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = hi - lo
        out = np.empty_like(pts)
        for j in range(pts.shape[1]):
            if span[j] > 0.0:
                out[:, j] = (pts[:, j] - lo[j]) / span[j]
            else:
                out[:, j] = 0.5
        return PointCloud(out)


def load_cloud_csv(path, n: int) -> PointCloud:
    """One point per row, n comma-separated finite coordinates, no header."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n:
                raise CloudFormatError(
                    f"{path}: line {lineno}: expected {n} columns, got {len(parts)}",
                    line=lineno)
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise CloudFormatError(
                    f"{path}: line {lineno}: non-numeric value", line=lineno) from None
            if not all(map(math.isfinite, row)):
                raise CloudFormatError(
                    f"{path}: line {lineno}: non-finite value", line=lineno)
            rows.append(row)
    if not rows:
        raise CloudFormatError(f"{path}: empty point cloud", line=None)
    return PointCloud(np.asarray(rows, dtype=np.float64))


def save_ranked_csv(path, cloud: PointCloud, fronts: np.ndarray,
                    ranks: np.ndarray | None) -> None:
    """Input rows with the front index (and rank, if given) appended;
    coordinates and ranks with 17 significant digits."""
    cols = [*cloud.points.T.tolist(), np.asarray(fronts).tolist()]
    fmt = ",".join(["%.17g"] * cloud.n + ["%d"])
    if ranks is not None:
        cols.append(np.asarray(ranks).tolist())
        fmt += ",%.17g"
    fmt += "\n"
    with open(path, "w") as fh:
        fh.writelines(fmt % row for row in zip(*cols))


# ---------------------------------------------------------------------------
# Front peeling
# ---------------------------------------------------------------------------

def _peel_staircases(tails: np.ndarray) -> list[int]:
    """n <= 3 kernel. A point is dominated by a front iff the front's 2-d
    staircase of (y, z) minima has an entry <= (y, z). Each staircase is two
    lists, y ascending and z strictly descending, so the check is one
    bisection. Clouds with n < 3 are padded with constant zero coordinates,
    which changes no domination; a staircase then holds one entry."""
    cols = tails.T.tolist() + [[0.0] * len(tails)] * (2 - tails.shape[1])
    labels: list[int] = []
    stairs_y: list[list[float]] = []
    stairs_z: list[list[float]] = []
    for y, z in zip(*cols):
        lo, hi = 0, len(stairs_y)
        while lo < hi:
            mid = (lo + hi) // 2
            pos = bisect_right(stairs_y[mid], y)
            if pos and stairs_z[mid][pos - 1] <= z:
                lo = mid + 1
            else:
                hi = mid
        labels.append(lo + 1)
        if lo == len(stairs_y):
            stairs_y.append([y])
            stairs_z.append([z])
            continue
        ys, zs = stairs_y[lo], stairs_z[lo]
        # entries with y' >= y start at `first`; those with z' >= z are a
        # contiguous run there, now dominated by (y, z)
        first = bisect_left(ys, y)
        last = first
        while last < len(ys) and zs[last] >= z:
            last += 1
        ys[first:last] = [y]
        zs[first:last] = [z]
    return labels


def _peel_buckets(tails: np.ndarray) -> list[int]:
    """Any-dimension kernel: a front dominates a point iff one of its points
    is <= it on the trailing coordinates. Each front keeps its points in an
    array grown by doubling. O(N^2) worst case."""
    labels: list[int] = []
    fronts: list[np.ndarray] = []
    sizes: list[int] = []
    for q in tails:
        lo, hi = 0, len(fronts)
        while lo < hi:
            mid = (lo + hi) // 2
            if np.all(fronts[mid][:sizes[mid]] <= q, axis=1).any():
                lo = mid + 1
            else:
                hi = mid
        labels.append(lo + 1)
        if lo == len(fronts):
            fronts.append(np.empty((64, len(q))))
            sizes.append(0)
        elif sizes[lo] == len(fronts[lo]):
            fronts[lo] = np.concatenate([fronts[lo], np.empty_like(fronts[lo])])
        fronts[lo][sizes[lo]] = q
        sizes[lo] += 1
    return labels


def _fronts(points: np.ndarray, peel) -> np.ndarray:
    """The sweep: sort lexicographically, so every dominator of a point comes
    before it, and group exact duplicates, which share a front. Every point
    seen so far is distinct and has a first coordinate no larger, so `peel`
    gets only the trailing coordinates of the distinct points, in sweep
    order, and returns their 1-based labels. A dominator in front k implies
    one in every earlier front, so a kernel binary-searches the fronts for
    the first one holding no dominator."""
    N = len(points)
    order = np.lexsort(points.T[::-1])
    P = points[order]
    starts = np.flatnonzero(np.r_[True, np.any(P[1:] != P[:-1], axis=1)])
    tails = P[starts, 1:]
    del P  # not held while peeling
    labels = peel(tails)
    fronts = np.empty(N, dtype=np.int64)
    fronts[order] = np.repeat(labels, np.diff(np.r_[starts, N]))
    return fronts


def pareto_fronts(cloud: PointCloud) -> np.ndarray:
    """1-based front index per point (empty cloud allowed -> empty labels).
    A raw array is checked as a PointCloud first, so non-finite coordinates
    or a shape other than (N, n) raise ValueError."""
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud, dtype=np.float64))
    pts = cloud.points
    if pts.size == 0:
        return np.empty(0, dtype=np.int64)
    return _fronts(pts, _peel_staircases if cloud.n <= 3 else _peel_buckets)


# ---------------------------------------------------------------------------
# PDE ranking
# ---------------------------------------------------------------------------

_SNAP = 1e-9  # grid units; points this close to a node interpolate exactly


def check_in_unit_cube(cloud: PointCloud) -> None:
    """Raise PointsOutsideDomainError, with their indices, if any points lie
    outside [0,1]^n (beyond a 1e-12 tolerance)."""
    pts = cloud.points
    bad = np.nonzero(np.any((pts < -1e-12) | (pts > 1.0 + 1e-12), axis=1))[0]
    if bad.size:
        raise PointsOutsideDomainError(
            f"{bad.size} point(s) outside [0,1]^n (first indices "
            f"{bad[:10].tolist()})", indices=bad)


def pde_rank(cloud: PointCloud, u_field: GridField) -> np.ndarray:
    """Multilinear interpolation of the solved field at each point.

    Points must lie in [0,1]^n (the cloud is normally normalized on ingest);
    offenders are rejected with their index list.
    """
    pts = cloud.points
    spec = u_field.spec
    if pts.shape[1] != spec.n:
        raise ValueError(f"cloud dimension {pts.shape[1]} != grid dimension {spec.n}")
    check_in_unit_cube(cloud)

    m = spec.m
    g = np.clip(pts, 0.0, 1.0) * m
    near = np.round(g)
    g = np.where(np.abs(g - near) <= _SNAP, near, g)
    base = np.minimum(np.floor(g), m - 1).astype(np.int64)
    frac = g - base

    vals = np.zeros(len(pts))
    flat = u_field.flat
    strides = np.array([(m + 1) ** (spec.n - 1 - ax) for ax in range(spec.n)])
    for corner in range(1 << spec.n):
        idx = np.zeros(len(pts), dtype=np.int64)
        weight = np.ones(len(pts))
        for ax in range(spec.n):
            if corner >> ax & 1:
                idx += (base[:, ax] + 1) * strides[ax]
                weight = weight * frac[:, ax]
            else:
                idx += base[:, ax] * strides[ax]
                weight = weight * (1.0 - frac[:, ax])
        vals += weight * flat[idx]
    return vals


def _ascending_pairs(r: np.ndarray) -> int:
    """Number of pairs i < j with r[i] < r[j], for integers 0 <= r < len(r).

    Bottom-up merge count: at width w, each right half of a 2w-block counts
    the smaller values of its left half by one search in the sorted left
    halves, whose keys are offset by block so that blocks never mix."""
    N = len(r)
    pos = np.arange(N)
    count = 0
    w = 1
    while w < N:
        block = pos // (2 * w)
        right = (pos // w) % 2 == 1
        left_keys = np.sort(block[~right] * N + r[~right])
        base = block[right] * N
        count += int(np.sum(np.searchsorted(left_keys, base + r[right])
                            - np.searchsorted(left_keys, base)))
        w *= 2
    return count


def rank_agreement(fronts: np.ndarray, ranks: np.ndarray) -> float:
    """Fraction of point pairs with distinct front indices whose rank order
    matches their front order (strictly; rank ties and NaN ranks count as
    disagreement).

    Sorted by front ascending and rank descending, a pair i < j agrees iff
    rank i < rank j: pairs within one front are never counted, and across
    fronts the earlier front must have the strictly smaller rank."""
    fronts = np.asarray(fronts)
    ranks = np.asarray(ranks, dtype=np.float64)
    if fronts.shape != ranks.shape or fronts.ndim != 1:
        raise ValueError("fronts and ranks must be 1-d arrays of equal length")
    N = len(fronts)
    if N < 2:
        raise ValueError("rank agreement undefined for fewer than 2 points")
    sizes = np.unique(fronts, return_counts=True)[1].tolist()
    total = N * (N - 1) // 2 - sum(c * (c - 1) // 2 for c in sizes)
    if total == 0:
        raise ValueError("all points share one front; agreement undefined")
    ranked = ~np.isnan(ranks)
    fronts, ranks = fronts[ranked], ranks[ranked]
    dense = np.unique(ranks, return_inverse=True)[1]
    order = np.lexsort((-dense, fronts))
    return _ascending_pairs(dense[order]) / total
