"""Nondominated sorting of point clouds and PDE-based ranking.

A point p dominates q when p <= q coordinatewise and p != q; exact
duplicates never dominate each other and always share a front. Front k is
the set of coordinatewise minimal points once fronts 1..k-1 are removed,
equivalently 1 + the length of the longest domination chain ending at the
point.

pde_rank assigns each point the multilinearly interpolated value of a solved
grid field; its level sets approximate the fronts, and rank_agreement
measures how often the two orderings agree over point pairs.
"""

from __future__ import annotations

from bisect import bisect_right
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
    """One point per row, n comma-separated coordinates, no header."""
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
                rows.append([float(p) for p in parts])
            except ValueError:
                raise CloudFormatError(
                    f"{path}: line {lineno}: non-numeric value", line=lineno) from None
    if not rows:
        raise CloudFormatError(f"{path}: empty point cloud", line=None)
    return PointCloud(np.asarray(rows, dtype=np.float64))


def save_ranked_csv(path, cloud: PointCloud, fronts: np.ndarray,
                    ranks: np.ndarray | None) -> None:
    """Input rows with the front index (and rank, if given) appended."""
    with open(path, "w") as fh:
        for i in range(len(cloud)):
            cells = [f"{v:.17g}" for v in cloud.points[i]]
            cells.append(str(int(fronts[i])))
            if ranks is not None:
                cells.append(f"{ranks[i]:.17g}")
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Front peeling
# ---------------------------------------------------------------------------

class _FrontBucket:
    """Points of one front, in an amortized-growth array."""

    __slots__ = ("data", "size")

    def __init__(self, n: int):
        self.data = np.empty((64, n))
        self.size = 0

    def add(self, q: np.ndarray) -> None:
        if self.size == len(self.data):
            grown = np.empty((2 * len(self.data), self.data.shape[1]))
            grown[:self.size] = self.data
            self.data = grown
        self.data[self.size] = q
        self.size += 1

    def dominates(self, q: np.ndarray) -> bool:
        view = self.data[:self.size]
        return bool(np.any(np.all(view <= q, axis=1) & np.any(view < q, axis=1)))


def _fronts_generic(points: np.ndarray) -> np.ndarray:
    """Any dimension. Process points in lexicographic order (so dominators
    come first) and binary-search the front stack: a point belongs to the
    first front that contains no dominator of it. O(N^2) worst case."""
    N, n = points.shape
    order = np.lexsort(points.T[::-1])
    fronts = np.empty(N, dtype=np.int64)
    buckets: list[_FrontBucket] = []
    for pos in range(N):
        q = points[order[pos]]
        lo, hi = 0, len(buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if buckets[mid].dominates(q):
                lo = mid + 1
            else:
                hi = mid
        if lo == len(buckets):
            buckets.append(_FrontBucket(n))
        buckets[lo].add(q)
        fronts[order[pos]] = lo + 1
    return fronts


def _fronts_2d(points: np.ndarray) -> np.ndarray:
    """n=2 fast path: sweep in lexicographic order keeping, per front, the
    smallest second coordinate seen; that sequence is nondecreasing, so the
    front index of each point is found by binary search. Groups of exact
    duplicates are assigned together (duplicates never dominate)."""
    N = len(points)
    order = np.lexsort((points[:, 1], points[:, 0]))
    P = points[order]
    fronts_sorted = np.empty(N, dtype=np.int64)
    mins: list[float] = []
    i = 0
    while i < N:
        j = i
        while j < N and P[j, 0] == P[i, 0] and P[j, 1] == P[i, 1]:
            j += 1
        y = P[i, 1]
        k = bisect_right(mins, y)
        fronts_sorted[i:j] = k + 1
        if k == len(mins):
            mins.append(y)
        else:
            mins[k] = y
        i = j
    fronts = np.empty(N, dtype=np.int64)
    fronts[order] = fronts_sorted
    return fronts


def pareto_fronts(cloud: PointCloud) -> np.ndarray:
    """1-based front index per point (empty cloud allowed -> empty labels),
    by the 2-d sweep for n=2 and generic peeling otherwise."""
    pts = np.asarray(cloud.points if isinstance(cloud, PointCloud) else cloud,
                     dtype=np.float64)
    if pts.size == 0:
        return np.empty(0, dtype=np.int64)
    return _fronts_2d(pts) if pts.shape[1] == 2 else _fronts_generic(pts)


# ---------------------------------------------------------------------------
# PDE ranking
# ---------------------------------------------------------------------------

_SNAP = 1e-9  # grid units; points this close to a node interpolate exactly


def pde_rank(cloud: PointCloud, u_field: GridField) -> np.ndarray:
    """Multilinear interpolation of the solved field at each point.

    Points must lie in [0,1]^n (the cloud is normally normalized on ingest);
    offenders are rejected with their index list.
    """
    pts = cloud.points
    spec = u_field.spec
    if pts.shape[1] != spec.n:
        raise ValueError(f"cloud dimension {pts.shape[1]} != grid dimension {spec.n}")
    bad = np.nonzero(np.any((pts < -1e-12) | (pts > 1.0 + 1e-12), axis=1))[0]
    if bad.size:
        raise PointsOutsideDomainError(
            f"{bad.size} point(s) outside [0,1]^n (first indices "
            f"{bad[:10].tolist()})", indices=bad)

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


def rank_agreement(fronts: np.ndarray, ranks: np.ndarray) -> float:
    """Fraction of point pairs with distinct front indices whose rank order
    matches their front order (strictly; rank ties count as disagreement).

    Pairs are counted in row blocks, each boolean block about 4 MiB."""
    fronts = np.asarray(fronts)
    ranks = np.asarray(ranks, dtype=np.float64)
    if fronts.shape != ranks.shape or fronts.ndim != 1:
        raise ValueError("fronts and ranks must be 1-d arrays of equal length")
    N = len(fronts)
    if N < 2:
        raise ValueError("rank agreement undefined for fewer than 2 points")
    block = max(1, (4 << 20) // N)
    match = 0
    total = 0
    for start in range(0, N, block):
        fl = fronts[start:start + block, None]
        rl = ranks[start:start + block, None]
        f_lt = fl < fronts[None, :]
        f_gt = fl > fronts[None, :]
        r_lt = rl < ranks[None, :]
        r_gt = rl > ranks[None, :]
        total += int(np.count_nonzero(f_lt | f_gt))
        match += int(np.count_nonzero((f_lt & r_lt) | (f_gt & r_gt)))
    if total == 0:
        raise ValueError("all points share one front; agreement undefined")
    return match / total
