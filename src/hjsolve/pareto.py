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

Memory: the layer holds no Python object per point. Its working set is the
cloud's arrays, a few N-sized integer arrays (the sweep order and the
labels; the sort keys of rank_agreement) and temporaries of _CHUNK rows:
the loader parses with NumPy's reader, and peeling, pde_rank, the domain
check, the merge count and save_ranked_csv go through the points _CHUNK
rows at a time. Beyond that a kernel keeps its fronts: the staircases'
Python floats (n <= 3; two per entry, about 8 % of a uniform 3-d cloud at
N = 20k and 4 % at 200k) or the buckets' copies of the trailing
coordinates (n >= 4). `hjsolve pareto` reports the process's peak resident
set as `peak_rss_bytes`.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .grid import GridField

_CHUNK = 4096  # rows per chunk of every per-point pass


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
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise ValueError(f"expected a (N, n) array with n >= 1, got shape {pts.shape}")
        if not _all_finite(pts):
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
                np.subtract(pts[:, j], lo[j], out=out[:, j])
                out[:, j] /= span[j]
            else:
                out[:, j] = 0.5
        return PointCloud(out)


def _all_finite(pts: np.ndarray) -> bool:
    return all(np.isfinite(pts[a:a + _CHUNK]).all()
               for a in range(0, len(pts), _CHUNK))


def load_cloud_csv(path, n: int) -> PointCloud:
    """One point per row, n comma-separated finite coordinates, no header.

    NumPy's reader parses the file, giving the correctly rounded values that
    float() gives. Whatever it rejects, or reads as anything but N >= 1 rows
    of n finite values (an empty file, a wrong width, a non-finite value, a
    form such as 1_0 that float() accepts and NumPy does not), is read again
    line by line, which returns float()'s values or raises CloudFormatError
    with the line number."""
    with open(path) as fh:
        try:
            with warnings.catch_warnings():
                # an empty file: the line loop reports it
                warnings.simplefilter("ignore", UserWarning)
                pts = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                 dtype=np.float64)
        except ValueError:
            pts = None
        if pts is None or pts.shape[0] == 0 or pts.shape[1] != n or not _all_finite(pts):
            fh.seek(0)
            pts = _parse_lines(fh, path, n)
    return PointCloud(pts)


def _parse_lines(fh, path, n: int) -> np.ndarray:
    rows = []
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
    return np.asarray(rows, dtype=np.float64)


def save_ranked_csv(path, cloud: PointCloud, fronts: np.ndarray,
                    ranks: np.ndarray | None) -> None:
    """Input rows with the front index (and rank, if given) appended;
    coordinates and ranks with 17 significant digits."""
    fronts = np.asarray(fronts)
    fmt = ",".join(["%.17g"] * cloud.n + ["%d"])
    if ranks is not None:
        ranks = np.asarray(ranks)
        fmt += ",%.17g"
    fmt += "\n"
    with open(path, "w") as fh:
        for a in range(0, len(cloud), _CHUNK):
            rows = slice(a, a + _CHUNK)
            cols = [*cloud.points[rows].T.tolist(), fronts[rows].tolist()]
            if ranks is not None:
                cols.append(ranks[rows].tolist())
            fh.writelines(fmt % row for row in zip(*cols))


# ---------------------------------------------------------------------------
# Front peeling
# ---------------------------------------------------------------------------

def _peel_staircases():
    """n <= 3 kernel. A point is dominated by a front iff the front's 2-d
    staircase of (y, z) minima has an entry <= (y, z). Each staircase is two
    lists, y ascending and z strictly descending, so the check is one
    bisection. Clouds with n < 3 are padded with constant zero coordinates,
    which changes no domination; a staircase then holds one entry."""
    stairs_y: list[list[float]] = []
    stairs_z: list[list[float]] = []

    def label(tails: np.ndarray) -> list[int]:
        cols = tails.T.tolist() + [[0.0] * len(tails)] * (2 - tails.shape[1])
        labels: list[int] = []
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

    return label


def _peel_buckets():
    """Any-dimension kernel: a front dominates a point iff one of its points
    is <= it on the trailing coordinates. Each front keeps its points in an
    array grown by doubling. O(N^2) worst case."""
    fronts: list[np.ndarray] = []
    sizes: list[int] = []

    def label(tails: np.ndarray) -> list[int]:
        labels: list[int] = []
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

    return label


def _fronts(points: np.ndarray, peel) -> np.ndarray:
    """The sweep: sort lexicographically, so every dominator of a point comes
    before it, and group exact duplicates, which share a front. Every point
    seen so far is distinct and has a first coordinate no larger, so the
    kernel `peel()` builds gets only the trailing coordinates of the
    distinct points, in sweep order and _CHUNK rows at a time, and returns
    their 1-based labels; a duplicate takes the label of the point before
    it. A dominator in front k implies one in every earlier front, so a
    kernel binary-searches the fronts for the first one holding no
    dominator."""
    N = len(points)
    order = np.lexsort(points.T[::-1])
    fronts = np.empty(N, dtype=np.int64)
    label = peel()
    last, last_label = None, 0
    for a in range(0, N, _CHUNK):
        idx = order[a:a + _CHUNK]
        P = points[idx]
        new = np.empty(len(P), dtype=bool)
        new[0] = last is None or bool(np.any(P[0] != last))
        np.any(P[1:] != P[:-1], axis=1, out=new[1:])
        labels = np.array([last_label] + label(P[new, 1:]))[np.cumsum(new)]
        fronts[idx] = labels
        last, last_label = P[-1], labels[-1]
    return fronts


def pareto_fronts(cloud: PointCloud) -> np.ndarray:
    """1-based front index per point (empty cloud allowed -> empty labels).
    A raw array is checked as a PointCloud first, so non-finite coordinates
    or a shape other than (N, n) with n >= 1 raise ValueError."""
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud, dtype=np.float64))
    return _fronts(cloud.points, _peel_staircases if cloud.n <= 3 else _peel_buckets)


# ---------------------------------------------------------------------------
# PDE ranking
# ---------------------------------------------------------------------------

_SNAP = 1e-9  # grid units; points this close to a node interpolate exactly


def check_in_unit_cube(cloud: PointCloud) -> None:
    """Raise PointsOutsideDomainError, with their indices, if any points lie
    outside [0,1]^n (beyond a 1e-12 tolerance)."""
    pts = cloud.points
    outside = np.empty(len(pts), dtype=bool)
    for a in range(0, len(pts), _CHUNK):
        c = pts[a:a + _CHUNK]
        np.any((c < -1e-12) | (c > 1.0 + 1e-12), axis=1, out=outside[a:a + _CHUNK])
    bad = np.flatnonzero(outside)
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
    flat = u_field.flat
    strides = np.array([(m + 1) ** (spec.n - 1 - ax) for ax in range(spec.n)])
    vals = np.zeros(len(pts))
    for a in range(0, len(pts), _CHUNK):
        g = np.clip(pts[a:a + _CHUNK], 0.0, 1.0) * m
        near = np.round(g)
        g = np.where(np.abs(g - near) <= _SNAP, near, g)
        base = np.minimum(np.floor(g), m - 1).astype(np.int64)
        frac = g - base
        v = vals[a:a + _CHUNK]
        for corner in range(1 << spec.n):
            idx = np.zeros(len(g), dtype=np.int64)
            weight = np.ones(len(g))
            for ax in range(spec.n):
                if corner >> ax & 1:
                    idx += (base[:, ax] + 1) * strides[ax]
                    weight = weight * frac[:, ax]
                else:
                    idx += base[:, ax] * strides[ax]
                    weight = weight * (1.0 - frac[:, ax])
            v += weight * flat[idx]
    return vals


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """0-based index of each value among the distinct values, in an int64
    array; values that compare equal (-0.0 and 0.0) share one."""
    perm = np.argsort(values)
    dense = np.empty(len(values), dtype=np.int64)
    top, prev = -1, None
    for a in range(0, len(values), _CHUNK):
        p = perm[a:a + _CHUNK]
        v = values[p]
        step = np.empty(len(v), dtype=np.int64)
        step[0] = prev is None or v[0] != prev
        np.not_equal(v[1:], v[:-1], out=step[1:])
        np.cumsum(step, out=step)
        step += top
        dense[p] = step
        top, prev = step[-1], v[-1]
    return dense


def _ascending_pairs(r: np.ndarray) -> int:
    """Number of pairs i < j with r[i] < r[j], for integers 0 <= r < len(r).
    r is int64 and serves as the work buffer: it is overwritten.

    Bottom-up merge count on g = r + N * (start of the block), in place. At
    width w every w-block of g is sorted, so g is sorted as a whole and each
    block holds its values in a range of its own. A right half of a 2w-block
    counts the smaller values of its left half, which starts w before it, by
    one search of its values less w*N in g. It then drops w*N into its left
    half's range, and one sort of g makes the 2w-blocks."""
    N = len(r)
    g = r
    for a in range(0, N, _CHUNK):
        g[a:a + _CHUNK] += np.arange(a, min(a + _CHUNK, N)) * N
    count = 0
    w = 1
    while w < N:
        shift = w * N
        for a in range(0, N, _CHUNK):
            pos = np.arange(a, min(a + _CHUNK, N))
            right = pos[pos // w % 2 == 1]
            count += int(np.sum(np.searchsorted(g, g[right] - shift)
                                - (right - right % w - w)))
        full = N - N % (2 * w)
        g[:full].reshape(-1, 2 * w)[:, w:] -= shift
        g[full + w:] -= shift
        g.sort()
        w *= 2
    return count


def rank_agreement(fronts: np.ndarray, ranks: np.ndarray) -> float:
    """Fraction of point pairs with distinct front indices whose rank order
    matches their front order (strictly; rank ties and NaN ranks count as
    disagreement).

    Sorted by front ascending and rank descending, a pair i < j agrees iff
    rank i < rank j: pairs within one front are never counted, and across
    fronts the earlier front must have the strictly smaller rank. The sort
    is one sort of the int64 keys front * M + (M - 1 - dense rank), for M
    ranked points; front indices other than integers in 0..N are first
    replaced by their dense ranks."""
    fronts = np.asarray(fronts)
    ranks = np.asarray(ranks, dtype=np.float64)
    if fronts.shape != ranks.shape or fronts.ndim != 1:
        raise ValueError("fronts and ranks must be 1-d arrays of equal length")
    N = len(fronts)
    if N < 2:
        raise ValueError("rank agreement undefined for fewer than 2 points")
    if fronts.dtype.kind not in "iu" or fronts.min() < 0 or fronts.max() > N:
        fronts = _dense_ranks(fronts)
    sizes = np.bincount(fronts.astype(np.intp, copy=False)).tolist()
    total = N * (N - 1) // 2 - sum(c * (c - 1) // 2 for c in sizes)
    if total == 0:
        raise ValueError("all points share one front; agreement undefined")
    ranked = ~np.isnan(ranks)
    if not ranked.all():
        fronts, ranks = fronts[ranked], ranks[ranked]
    del ranked
    key = _dense_ranks(ranks)
    M = len(key)
    np.subtract(M - 1, key, out=key)
    for a in range(0, M, _CHUNK):
        key[a:a + _CHUNK] += fronts[a:a + _CHUNK].astype(np.int64) * M
    key.sort()
    if M:
        key %= M
    np.subtract(M - 1, key, out=key)  # the dense ranks, in sorted order
    return _ascending_pairs(key) / total
