"""Monotone single-pass schemes for the gradient-product equation.

Three node-update rules are provided, each defining the node value as the
largest root of a scalar monotone equation in terms of the backward-neighbor
values a_i and the right-hand side f at the node:

  S1:  prod_i (t - a_i)_+            = h^n f      (zero boundary condition)
  S2:  prod_i (t - a_i)_+            = h^n f t^(n-1)   (zero boundary condition)
  S3:  prod_i ((1+c_i) t - c_i a_i)_+ = f,  c_i = n x_i / h   (no boundary condition)

In dimension 2 every update is a quadratic solved in closed form. In higher
dimensions the root is bracketed and bisected until the residual product lands
in the multiplicative band [target, (1+h)*target], which keeps the iteration
error below the truncation error of the scheme. Each equation is written once,
as the (product, target) pair of _residual; the one bisection kernel and the
residual certificate both evaluate it. Where a root lands inside the band
moves the n = 3 errors by up to a third, so the kernel keeps the plain
bisection path (the same midpoints for every node, however it is batched)
and saves only on bookkeeping: select-free bracket updates and lazy
compaction of the batch (_band_root).

One engine solves the grid. Every backward neighbor of a node with index
digit-sum d has digit-sum d-1, so the fronts d = 0, 1, ..., n*m are solved in
order, each vectorized over its nodes and computed from front d-1 alone. The
engine walks them in blocks of consecutive fronts: each block's right-hand
side is read and checked (finite, nonnegative) once, its fronts are updated
in order, its residual is folded into the certificate (at n = 2 in two
halves, which bounds the temporaries), and its values are written once,
into the full field or, with rolling storage, only into the final i_1 = m
slab. At n >= 3 a block is one front, a set of index
arrays into the field (_Fronts, _FrontWalk). At n = 2 it is up to _BLOCK
fronts (_BlockWalk): node (i, d - i) is entry i*m + d of the flat field, so
the block is one strided view of the field, heads by fronts, whose off-grid
entries lie in two small end triangles that are masked; per front only the
closed form runs, on slices of a value block that holds the front before
the block, so no index array is built. The certificate is a max-reduction
(_max_violation), which falls back to the per-node _violation only where a
target is <= 0 or the result is not finite. A node whose rhs is invalid, or
whose value, product or target is not finite, stops the solve with a
SolveError naming the first such node in front order (by front, then by
head); a non-finite value stops it at its own front.

Work over the whole grid runs in i_1-slabs: runs of whole rows of the first
index, about _SLAB_NODES nodes each, on the sparse mesh (GridSpec.mesh()
sliced on axis 0). With full storage the right-hand side is written into the
output field slab by slab before the pass, each block reads its rhs from
there, and the error is folded over the same slabs after the pass. Rolling
storage reads a GridField's values as full storage reads its field, through
the same index arrays or strided views. It calls a callable or constant f
per front at n >= 3 and, at n = 2, through a band of B fronts (_band_rhs),
filled on sparse rectangles of at most T rows by T+B-1 columns whose skewed
diagonal strips hold the band's nodes, so f's per-axis work runs on
coordinate vectors, for O(B*(m+1)) extra memory. A rolling solve folds the
error per block on the block's own coordinates: at n >= 3 the front's
gathered coordinates, at n = 2 pieces of K/4 fronts by all their heads,
whose x_2 is a skewed view of a padded coordinate table, with the off-grid
triangles kept out of the max; all three folds are one expression
(_fold_error). residual_stats runs over the same slabs as full storage:
each is copied into one buffer, zero-padded on the low face of every axis,
whose shifted views are the backward neighbors for all three schemes, and
the S1/S2 zero boundary is checked once, on the n faces of the field. So a
callable f and an error_fn must be elementwise on broadcastable coordinate
arrays: the value at a node may not depend on how nodes are batched.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GridField, GridSpec

BISECTION_CAP = 200
_SLAB_NODES = 1 << 14  # nodes per i_1-slab, rounded to at least one row
_COMPACT = 0.5  # gather the bisection batch once at most this share is live
_BAND = 64  # fronts per rhs band of an n = 2 rolling solve (_band_rhs)
_TILE = 64  # rows per rectangle that fills the band
_BLOCK = 16  # fronts per block of an n = 2 solve (_BlockWalk)
# Peak traced bytes of a solve beyond its field, in float64 arrays of one work
# unit (working_set_bytes): the front index, the per-front gathers, updates
# and certificate, and the slab-wise rhs and error. tracemalloc measured at
# most 47 on cases f1-f3 with the u-scale error, n = 2..6, either storage
# (34-42 at n = 3, 4 once a slab is one row).
WORK_ARRAYS = 56
# Peak traced bytes of the n = 2 pass beyond the field and the rolling band
# and its fill, in float64 arrays of one block, K by m+2: U, the rhs block,
# the certificate's temporaries on half a block, the closed form's on one
# front, and a rolling solve's error fold on a quarter block (_fold, whose
# own excess is at most 1.8 blocks). tracemalloc measured at most 5.06 at
# m = 1000 and 5.21 at m = 300 (5.9-9.2 at m = 15..65, where the fixed
# bytes take the rest), f1-f3 and const with and without the u-scale
# error, S1-S3, callable and GridField rhs, rolling storage; the most is
# f1 with S3 and the error, whose zero rhs sends the certificate to
# _violation.
_BLOCK_ARRAYS = 6
# Rectangles of one band fill (_band_rhs) alive at once, counting f's
# results: tracemalloc measured at most 7.17 on 64 by 127 rectangles (7.93
# on the 16 by 31 rectangles of m = 15), f1-f3 and const, S1-S3.
_RECT_ARRAYS = 8
# Bytes a solve holds at any size (array headers, front index, closures):
# tracemalloc measured at most 12.8 KB above the work arrays on m = 1..3,
# n = 2..6, f1-f3 and const with the u-scale error (n = 4, m = 1, rolling).
SOLVE_FIXED_BYTES = 32 * 1024


class SchemeDomainError(ValueError):
    """Negative or non-finite input fed to an update."""


class BisectionCapError(RuntimeError):
    """Bisection failed to enter the acceptance band within the cap."""

    def __init__(self, message, local_indices=None):
        super().__init__(message)
        self.local_indices = local_indices


class SolveError(RuntimeError):
    """Update failure during a solve, annotated with the offending node."""

    def __init__(self, message, multi_index=None):
        super().__init__(message)
        self.multi_index = multi_index


class SchemeKind(enum.Enum):
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"

    @classmethod
    def parse(cls, name) -> "SchemeKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown scheme {name!r}; expected s1, s2 or s3") from None

    @property
    def has_boundary_condition(self) -> bool:
        return self is not SchemeKind.S3


@dataclass(frozen=True)
class UpdateInputs:
    """One node update: dimension, mesh size, node coordinates, rhs value and
    the n backward-neighbor values (0 across the zero-boundary for S1/S2)."""

    n: int
    h: float
    x: tuple[float, ...]
    f_x: float
    a: tuple[float, ...]

    def validate(self) -> None:
        if self.n < 2:
            raise SchemeDomainError(f"n must be >= 2, got {self.n}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise SchemeDomainError(f"h must be positive and finite, got {self.h}")
        if len(self.a) != self.n:
            raise SchemeDomainError(f"expected {self.n} neighbor values, got {len(self.a)}")
        if not (self.f_x >= 0.0 and math.isfinite(self.f_x)):
            raise SchemeDomainError(
                f"negative or non-finite right-hand side f={self.f_x}")
        if not all(ai >= 0.0 and math.isfinite(ai) for ai in self.a):
            raise SchemeDomainError(
                f"negative or non-finite neighbor value in a={self.a}")


# ---------------------------------------------------------------------------
# Closed forms (n = 2).  These kernels accept scalars or arrays; the exact
# staging of the arithmetic is shared by the engine and the scalar updates so
# that results are bit-identical regardless of how nodes are batched.
# ---------------------------------------------------------------------------

def _s1_closed(a1, a2, h, f):
    d = a1 - a2
    return 0.5 * (a1 + a2) + 0.5 * np.sqrt(d * d + (4.0 * (h * h)) * f)


def _s2_closed(a1, a2, h, f):
    b = (h * h) * f
    A = a1 + a2
    B = a1 - a2
    return 0.5 * (A + b) + 0.5 * np.sqrt(B * B + 2.0 * b * A + b * b)


def _s3_closed(x1, x2, a1, a2, h, f):
    # Largest root of ((2x1+h)t - 2x1*a1)((2x2+h)t - 2x2*a2) = h^2 f,
    # normalized by the leading coefficient (2x1+h)(2x2+h).
    q1 = 2.0 * x1 + h
    q2 = 2.0 * x2 + h
    A1 = (x1 * q2) * a1
    A2 = (x2 * q1) * a2
    C = A1 + A2
    D = A1 - A2
    P = q1 * q2
    return (C + np.sqrt(D * D + P * ((h * h) * f))) / P


def _closed(kind, A, x, f, h):
    """Closed-form n = 2 update of `kind` for neighbors A and coordinates x."""
    if kind is SchemeKind.S1:
        return _s1_closed(A[0], A[1], h, f)
    if kind is SchemeKind.S2:
        return _s2_closed(A[0], A[1], h, f)
    return _s3_closed(x[0], x[1], A[0], A[1], h, f)


# ---------------------------------------------------------------------------
# Scheme residual and band bisection (n >= 3).  A is the list of n
# backward-neighbor arrays in axis order; C (S3 only) the per-axis weights
# c_i = n*x_i/h; b the scaled right-hand side.
# ---------------------------------------------------------------------------

def _pow_int(base: float, exponent: int) -> float:
    out = base
    for _ in range(exponent - 1):
        out = out * base
    return out


def _scaled_rhs(kind, f, h, n):
    """The right-hand side b of the node equation: h^n f for S1/S2, f for
    S3. h^n f is C-contiguous even where f is a strided view, so the
    residual's arithmetic meets no mixed layouts, which NumPy buffers."""
    return f if kind is SchemeKind.S3 else np.multiply(_pow_int(h, n), f, order="C")


def _residual(kind, t, A, C, b, n, clip=True):
    """(product, target) of the node equation of the module docstring at t,
    with b in place of h^n f (S1, S2) or f (S3). The root finder and the
    certificate both evaluate the equation here, so they agree bit for bit.
    clip=False leaves out the (.)_+ of the S1/S2 factors t - a_i, which is
    exact where t >= every a_i, as everywhere inside the bisection bracket."""
    prod = None
    for j, a in enumerate(A):
        if kind is SchemeKind.S3:
            fac = (1.0 + C[j]) * t
            fac -= C[j] * a
            np.maximum(fac, 0.0, out=fac)
        else:
            fac = t - a
            if clip:
                np.maximum(fac, 0.0, out=fac)
        if prod is None:
            prod = fac
        else:
            prod *= fac
    if kind is SchemeKind.S2:
        return prod, b * _pow_int(t, n - 1)
    return prod, b


class _BisectStats:
    __slots__ = ("nodes", "iters_total", "iters_max")

    def __init__(self):
        self.nodes = 0
        self.iters_total = 0
        self.iters_max = 0


def _band_root(kind, t, act, A, C, b, lo, hi, h, n, stats):
    """Bisect the batch nodes `act` into the band [target, (1+h)*target] of
    their residual and write the roots into t[act].

    A, C, b, lo and hi hold the values of the nodes in `act`; lo and hi are
    overwritten. Preconditions: product < target at lo, product >= target at
    hi, and 0 <= lo <= hi; for S1/S2 also lo >= every a_i, so their residual
    is taken unclipped. The upper endpoint is accepted outright when it
    already lies in the band. A node whose interval collapses to float
    resolution takes its upper endpoint, whose product is >= target.

    Every node sees the midpoints of plain bisection, however it is batched.
    The bookkeeping is lazy: a finished node stays in the arrays, masked out
    of `live`, until at most _COMPACT of the rows are live, and then every
    array is gathered at once. The bracket moves without selects, with
    high = product > upper and low = ~high (so a nan product moves lo):
    lo = max(lo, mid * low) and hi = fmin(hi, mid / high). Both are exact
    because 0 <= lo <= mid <= hi, so max(lo, 0) = lo and min(hi, mid) = mid,
    and because mid / 0 is +inf (nan where mid = 0), which fmin skips.
    """
    stats.nodes += act.size
    upper = None if kind is SchemeKind.S2 else (1.0 + h) * b  # target is b
    prod, target = _residual(kind, hi, A, C, b, n, clip=False)
    done = prod <= (1.0 + h) * target if upper is None else prod <= upper
    t[act[done]] = hi[done]
    live = ~done
    count = act.size - int(np.count_nonzero(done))
    it = 0
    while count:
        if count <= _COMPACT * act.size:
            keep = np.nonzero(live)[0]
            act, b, lo, hi = act[keep], b[keep], lo[keep], hi[keep]
            A = [a[keep] for a in A]
            if C is not None:
                C = [c[keep] for c in C]
            if upper is not None:
                upper = upper[keep]
            live = np.ones(count, dtype=bool)
        it += 1
        if it > BISECTION_CAP:
            raise BisectionCapError(
                f"bisection exceeded {BISECTION_CAP} iterations for "
                f"{count} node(s)", local_indices=act[live])
        mid = lo + hi
        mid *= 0.5
        prod, target = _residual(kind, mid, A, C, b, n, clip=False)
        up = (1.0 + h) * target if upper is None else upper
        high = prod > up
        low = ~high
        ok = prod >= target
        ok &= low
        take = mid <= lo
        take |= mid >= hi
        take |= ok
        take &= live
        if take.any():
            sel = np.nonzero(take)[0]
            t[act[sel]] = np.where(ok[sel], mid[sel], hi[sel])
            stats.iters_total += it * sel.size
            stats.iters_max = max(stats.iters_max, it)
            live[sel] = False
            count -= sel.size
        # prod is spent: it holds mid * low, then mid / high
        np.maximum(lo, np.multiply(mid, low, out=prod), out=lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.fmin(hi, np.divide(mid, high, out=prod), out=hi)


def _update_vec(kind, A, C, f, h, n, stats: _BisectStats) -> np.ndarray:
    """Largest roots of the node equation for a batch of nodes; nodes with
    f = 0 keep the lower bracket. BisectionCapError carries batch indices."""
    b = _scaled_rhs(kind, f, h, n)
    if kind is SchemeKind.S3:
        lo = C[0] * A[0] / (1.0 + C[0])
        for j in range(1, n):
            np.maximum(lo, C[j] * A[j] / (1.0 + C[j]), out=lo)
    else:
        lo = A[0].copy()
        for a in A[1:]:
            np.maximum(lo, a, out=lo)
    t = lo.copy()
    pos = b > 0.0
    if kind is SchemeKind.S2:
        corner = pos & (lo <= 0.0)
        t[corner] = b[corner]  # all a_i = 0: t^n = b t^(n-1)
        pos &= lo > 0.0
    nz = np.nonzero(pos)[0]
    if nz.size:
        A = [a[nz] for a in A]
        lo = lo[nz]
        if kind is SchemeKind.S1:
            hi = lo + h * np.power(f[nz], 1.0 / n)
        elif kind is SchemeKind.S2:
            hi = sum(A[1:], A[0]) + b[nz]  # S(a, b) <= sum a_i + b
        else:
            C = [c[nz] for c in C]
            hi = lo + np.power(f[nz] / math.prod(1.0 + c for c in C), 1.0 / n)
        _band_root(kind, t, nz, A, C, b[nz], lo, hi, h, n, stats)
    return t


# ---------------------------------------------------------------------------
# Scalar updates (public operations)
# ---------------------------------------------------------------------------

def _update(kind: SchemeKind, inp: UpdateInputs, method: str, cs=None) -> float:
    """One node update by closed form or bisection. The bisection runs the
    engine's batch kernel on length-1 arrays; for S3 the weights default to
    c_i = n*x_i/h, and `cs` overrides them."""
    inp.validate()
    if kind is SchemeKind.S3:
        if len(inp.x) != inp.n:
            raise SchemeDomainError(f"expected {inp.n} coordinates, got {len(inp.x)}")
        if not all(xi >= 0.0 and math.isfinite(xi) for xi in inp.x):
            raise SchemeDomainError(f"negative or non-finite coordinate in x={inp.x}")
    if method == "auto":
        method = "closed" if inp.n == 2 else "bisect"
    if method == "closed":
        if inp.n != 2:
            raise ValueError("closed form only available in n=2")
        return float(_closed(kind, inp.a, inp.x, inp.f_x, inp.h))
    if method != "bisect":
        raise ValueError(f"unknown method {method!r}; expected auto, closed or bisect")
    A = [np.array([ai], dtype=np.float64) for ai in inp.a]
    C = None
    if kind is SchemeKind.S3:
        if cs is None:
            cs = [inp.n * xi / inp.h for xi in inp.x]
        C = [np.array([c], dtype=np.float64) for c in cs]
    f = np.array([inp.f_x], dtype=np.float64)
    return float(_update_vec(kind, A, C, f, inp.h, inp.n, _BisectStats())[0])


def s1_update(inp: UpdateInputs, method: str = "auto") -> float:
    """Largest t with prod (t - a_i)_+ = h^n f. Closed form in n=2."""
    return _update(SchemeKind.S1, inp, method)


def s2_update(inp: UpdateInputs, method: str = "auto") -> float:
    """Maximal root of prod (t - a_i)_+ = (h^n f) t^(n-1). Closed form in n=2."""
    return _update(SchemeKind.S2, inp, method)


def s3_update(inp: UpdateInputs, method: str = "auto") -> float:
    """Largest t with prod ((1+c_i) t - c_i a_i)_+ = f, c_i = n x_i / h.

    Factors with x_i = 0 collapse to t alone; at the origin the update is
    exactly f^(1/n).
    """
    return _update(SchemeKind.S3, inp, method)


# ---------------------------------------------------------------------------
# Right-hand-side plumbing
# ---------------------------------------------------------------------------

def _as_rhs(f):
    """Normalize a constant (a Python or NumPy real scalar) or a callable f
    into a callable taking a tuple of broadcastable coordinate arrays."""
    if isinstance(f, (int, float, np.integer, np.floating)):
        c = float(f)
        if c < 0.0:
            raise SchemeDomainError(f"negative constant right-hand side {c}")
        return lambda xs: np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                                for x in xs))[0] * 0.0 + c
    if callable(f):
        return f
    raise TypeError(f"unsupported rhs type {type(f)!r}")


def _check_rhs_spec(f, spec: GridSpec) -> None:
    if isinstance(f, GridField) and f.spec != spec:
        raise ValueError(f"rhs field spec {f.spec} != solve spec {spec}")


def _slab_rows(spec: GridSpec) -> int:
    """i_1-rows per slab: about _SLAB_NODES nodes, at least one row."""
    return min(spec.m + 1, max(1, _SLAB_NODES // (spec.m + 1) ** (spec.n - 1)))


def _slabs(spec: GridSpec):
    """Yield (i0, i1, x): the i_1-rows [i0, i1) of one slab (_slab_rows) and
    their sparse-mesh coordinates, in row order."""
    R = spec.m + 1
    rows = _slab_rows(spec)
    mesh = spec.mesh()
    for i0 in range(0, R, rows):
        i1 = min(i0 + rows, R)
        yield i0, i1, (mesh[0][i0:i1],) + mesh[1:]


def _slab_rhs(f, spec: GridSpec, i0, i1, x) -> np.ndarray:
    """f on the i_1-rows [i0, i1) with coordinates x, broadcast to the slab."""
    if isinstance(f, GridField):
        return f.values[i0:i1]
    F = np.asarray(_as_rhs(f)(x), dtype=np.float64)
    return np.broadcast_to(F, (i1 - i0,) + spec.shape[1:])


def _fold_error(linf, error_fn, vals, x, where=True) -> float:
    """linf folded with the max of error_fn(vals, x) over the entries of
    vals where `where` holds. The result, which may be a view of vals, is
    only read, and a scalar or a broadcastable result is broadcast to
    vals' shape. Full storage folds i_1-slabs, a rolling solve its blocks."""
    E = np.asarray(error_fn(vals, x), dtype=np.float64)
    if E.shape != vals.shape:
        E = np.broadcast_to(E, vals.shape)
    return float(np.maximum(linf, np.max(E, where=where, initial=-math.inf)))


def _band_dims(m: int) -> tuple[int, int]:
    """(B, T): fronts per band and rows per rectangle of _band_rhs."""
    return min(_BAND, m + 1), min(_TILE, m + 1)


def _padded(table: np.ndarray, k: int) -> np.ndarray:
    """A read-only copy of table with k copies of its end values on either
    side, so that views of it past the grid read grid coordinates."""
    out = np.pad(table, k, mode="edge")
    out.flags.writeable = False
    return out


def _strip(A, t: int, B: int) -> np.ndarray:
    """The skewed diagonal strip of A, broadcast to t by W = t+B-1, as a t
    by B float64 array: entry (r, k) is A[r, t - 1 - r + k], which is flat
    entry r*(W - 1) + t - 1 + k, so rows of W - 1 entries from flat entry
    t - 1 on hold the strip in their first B columns (at t = 1 the strip is
    A)."""
    W = t + B - 1
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (t, W):
        A = np.broadcast_to(A, (t, W))
    if t == 1:
        return A
    return A.reshape(-1)[t - 1:t - 1 + t * (W - 1)].reshape(t, W - 1)[:, :B]


def _band_rhs(fn, spec: GridSpec, xs: np.ndarray):
    """rows(d0, d1): the rhs of the fronts [d0, d1) of an n = 2 rolling
    solve with a callable or constant f, by fronts and heads, read from a
    band of B fronts: band[d - D, i] is f at node (i, d - i), for the
    fronts d in [D, D + B) with D a multiple of B. The fronts [d0, d1) lie
    in one band, and where d0 = D fn fills it, from blocks of at most T
    rows [r0, r1): f on the sparse rectangle x[r0:r1] by
    x[c0:c0 + t + B - 1], with t = r1 - r0 and c0 = D - r1 + 1, holds front
    D + k of row r0 + r at (r, t - 1 - r + k), a skewed diagonal strip
    (_strip). So f evaluates its per-axis work on (t + B - 1)-long
    coordinate vectors instead of on every node. Columns past either end
    of the axis read the end coordinates, so f sees grid coordinates only;
    those entries are off the grid."""
    m = spec.m
    B, T = _band_dims(m)
    xpad = _padded(xs, B - 1)
    band = np.empty((B, m + 1))

    def rows(d0, d1):
        D = d0 - d0 % B
        if d0 == D:
            last = min(m, D + B - 1) + 1  # rows [max(0, D - m), last) meet the band
            for r0 in range(max(0, D - m), last, T):
                t = min(T, last - r0)
                c0 = D - r0 - t + B  # D - r1 + 1 on the axis, shifted by the padding
                X = (xs[r0:r0 + t, None], xpad[None, c0:c0 + t + B - 1])
                band[:, r0:r0 + t] = _strip(fn(X), t, B).T
        return band[d0 - D:d1 - D]
    return rows


# ---------------------------------------------------------------------------
# Residual certificate
# ---------------------------------------------------------------------------

def _violation(product, target, band):
    """Per node, how far the residual product falls outside
    [target, (1+band)*target], relative to target; absolute where
    target == 0; infinite where the product or target is not finite. It
    names the offending node; _max_violation reduces it. It works in place
    on one result and one temporary. The invalid operations of non-finite
    inputs (inf - inf) raise no warning, as their results are replaced by
    inf."""
    with np.errstate(invalid="ignore"):
        out = np.empty(np.broadcast_shapes(np.shape(product), np.shape(target)))
        np.multiply(target, 1.0 + band, out=out)
        np.subtract(product, out, out=out)
        np.maximum(np.subtract(target, product), out, out=out)
        np.maximum(out, 0.0, out=out)
        pos = target > 0.0
        np.divide(out, target, out=out, where=pos)
        np.copyto(out, product, where=~pos)
        finite = np.isfinite(product) & np.isfinite(target)
        np.copyto(out, math.inf, where=~finite)
    return out


def _max_violation(product, target, band) -> float:
    """_violation(product, target, band).max(initial=0.0), bit for bit.

    Where every target is > 0 this is the max over nodes of
    max(target - product, product - (1+band)*target) / target, clipped at
    0.0, with a few temporaries: max(a, 0)/t == max(a/t, 0) for t > 0, and
    0.0 goes first into the clip so that a -0.0 never leaks. Otherwise (a
    target <= 0, or a result that is not finite: nan fails < inf) it falls
    back to _violation itself. The engine runs it once per block of fronts,
    residual_stats once per face and once per slab."""
    if product.size and np.minimum.reduce(target, axis=None) > 0.0:
        a = target - product
        b = (1.0 + band) * target
        np.maximum(a, np.subtract(product, b, out=b), out=a)
        a /= target
        worst = float(np.maximum.reduce(a, axis=None))
        if worst < math.inf:
            return max(0.0, worst)
    return float(_violation(product, target, band).max(initial=0.0))


def residual_stats(field: GridField, kind: SchemeKind, f) -> float:
    """Max band-violation of the scheme's residual over the whole field.

    Zero (up to float dust) certifies that every node is either inside the
    (1+h) acceptance band or solved exactly (closed form / degenerate cases);
    any non-finite value, product or target makes it infinite. S1/S2
    boundary nodes (a zero index) must hold exactly zero; that is checked
    once, on the n faces of the field. The residual runs over i_1-slabs, each
    copied into a buffer P padded with one leading layer on every axis:
    P's low faces are zero, except its leading i_1-row, which holds the row
    before the slab. So the axis-j neighbors of the slab S = P[1:, ..., 1:]
    are the view of P shifted by one on axis j, for every scheme. S3 (whose
    weights vanish on the faces) takes the whole slab, S1/S2 its interior.
    """
    spec = field.spec
    _check_rhs_spec(f, spec)
    kind = SchemeKind.parse(kind)
    n, h = spec.n, spec.h
    V = field.values
    worst = 0.0
    if kind.has_boundary_condition:
        worst = max(_max_violation(np.abs(V[(slice(None),) * ax + (0,)]), 0.0, h)
                    for ax in range(n))
    cs = n * np.arange(spec.m + 1, dtype=np.float64)  # S3 weights n x_i / h
    C = [cs.reshape((-1,) + (1,) * (n - 1 - ax)) for ax in range(n)]
    pad = (slice(1, None),) * n
    P = np.zeros((_slab_rows(spec) + 1,) + (spec.m + 2,) * (n - 1))
    for i0, i1, x in _slabs(spec):
        Q = P[:i1 - i0 + 1]
        Q[(slice(0 if i0 else 1, None),) + pad[1:]] = V[max(i0 - 1, 0):i1]
        A = [Q[pad[:ax] + (slice(None, -1),) + pad[ax + 1:]] for ax in range(n)]
        if kind.has_boundary_condition:  # the nodes off every face
            inner = (slice(0 if i0 else 1, None),) + pad[1:]
        else:
            inner = (slice(None),) * n
        b = _scaled_rhs(kind, _slab_rhs(f, spec, i0, i1, x)[inner], h, n)
        worst = max(worst, _max_violation(*_residual(
            kind, Q[pad][inner], [a[inner] for a in A], [C[0][i0:i1]] + C[1:],
            b, n), h))
    return worst


# ---------------------------------------------------------------------------
# Solve report
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    spec: GridSpec
    kind: SchemeKind
    storage: str
    field: GridField | None
    max_band_violation: float
    bisect_nodes: int
    bisect_iters_max: int
    bisect_iters_mean: float
    wall_time: float
    linf_error: float | None = None
    final_slab: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "scheme": self.kind.value,
            "n": self.spec.n,
            "m": self.spec.m,
            "h": self.spec.h,
            "storage": self.storage,
            "max_band_violation": self.max_band_violation,
            "bisect_nodes": self.bisect_nodes,
            "bisect_iters_max": self.bisect_iters_max,
            "bisect_iters_mean": self.bisect_iters_mean,
            "wall_time_s": self.wall_time,
            "linf_error": self.linf_error,
        }


# ---------------------------------------------------------------------------
# Front-streaming engine
# ---------------------------------------------------------------------------

class _Front(NamedTuple):
    """Front d of _Fronts.front, as index arrays."""

    lo: int  # head positions [lo, hi)
    hi: int
    flat: np.ndarray  # the nodes' positions in the flat field
    heads: list  # per head axis, the nodes' indices into an axis table
    tail: np.ndarray  # the nodes' indices into the reversed last-axis table
    inner: np.ndarray  # the S1/S2 update batch: inner nodes, within the front
    dest: object  # where vals[src] lands in the engine's output
    src: object


class _Fronts:
    """Heads (i_1, ..., i_{n-1}) sorted by digit sum, stably, so each front
    of equal node digit-sum d is one contiguous run of head positions.

    Front d holds the heads with sum in [max(0, d-m), min(d, (n-1)m)], each
    with last index d - sum(head). The backward neighbor along head axis j
    sits at position back[j], along the last axis at the same position, both
    on front d-1. Where i_j = 0 (or the last index is 0) that position holds
    some finite value of the wrong node: S1/S2 gather inner nodes only, and
    S3 weights it by c_j = n*i_j = 0, so it drops out exactly. The engine
    walks this index at n >= 3 (_FrontWalk); n = 2 needs none (_BlockWalk).
    """

    def __init__(self, spec: GridSpec, rolling: bool = False):
        n, m = self.n, self.m = spec.n, spec.m
        self.rolling = rolling
        R = m + 1
        digits = np.indices((R,) * (n - 1)).reshape(n - 1, -1)
        total = digits.sum(axis=0)
        order = np.argsort(total, kind="stable")
        counts = np.bincount(total, minlength=(n - 1) * m + 1)
        self.start = np.concatenate(([0], np.cumsum(counts)))
        self.sum = total[order]
        self.row = order  # linear index of the head among all heads
        digits = digits[:, order]
        self.idx = list(digits)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        self.back = [pos[np.where(i >= 1, order - R ** (n - 2 - j), order)]
                     for j, i in enumerate(self.idx)]
        self.inner = np.all(digits >= 1, axis=0)

    def span(self, d: int) -> tuple[int, int]:
        """Head positions [lo, hi) of front d."""
        n, m = self.n, self.m
        return (int(self.start[max(0, d - m)]),
                int(self.start[min(d, (n - 1) * m) + 1]))

    def node(self, p: int, d: int) -> tuple[int, ...]:
        """Multi-index of the node at head position p on front d."""
        return tuple(int(i[p]) for i in self.idx) + (d - int(self.sum[p]),)

    def front(self, d: int) -> _Front:
        """Front d. Its output goes to the flat field, or with rolling to
        the final i_1 = m slab (dest, for the front's nodes src)."""
        m = self.m
        lo, hi = self.span(d)
        s = self.sum[lo:hi]
        flat = self.row[lo:hi] * (m + 1) + (d - s)
        heads = [i[lo:hi] for i in self.idx]
        tail = m - d + s
        inner = np.nonzero(self.inner[lo:hi] & (s < d))[0]
        if not self.rolling:
            return _Front(lo, hi, flat, heads, tail, inner, flat, slice(None))
        offset = m * (m + 1) ** (self.n - 1)
        keep = flat >= offset
        return _Front(lo, hi, flat, heads, tail, inner, flat[keep] - offset, keep)

    def neighbors(self, prev, lo, hi, sel):
        """The n backward neighbors, in axis order, of the nodes sel of the
        front whose heads are [lo, hi). prev holds front d-1 by head
        position behind one fixed 0: head p at prev[p + 1]."""
        return ([prev[1:][b[lo:hi][sel]] for b in self.back]
                + [prev[1 + lo:1 + hi][sel]])


def _axis_tables(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table over one axis's indices and its reversed copy, both
    read-only, since views of them go to f and error_fn."""
    rev = table[::-1].copy()
    table.flags.writeable = rev.flags.writeable = False
    return table, rev


class _FrontWalk:
    """The engine's steps at n >= 3 (_solve_fronts), where a block is one
    front of _Fronts: read its rhs from src or call fn on its coordinates,
    update it by bisection from front d-1 (prev, by head position behind
    one fixed 0), fold error_fn over it (a rolling solve) and write it to
    the field or the final slab."""

    def __init__(self, spec, kind, src, fn, out, rolling, error_fn):
        n, m = spec.n, spec.m
        self.spec, self.kind, self.out = spec, kind, out
        self.src, self.fn, self.error_fn = src, fn, error_fn
        self.fronts = _Fronts(spec, rolling)
        self.prev = np.zeros(1 + (m + 1) ** (n - 1))
        self.xs, self.xs_rev = _axis_tables(spec.axis_coords())
        self.cw, self.cw_rev = _axis_tables(n * np.arange(m + 1.0))  # S3 c_i

    def spans(self):
        return ((d, d + 1) for d in range(self.spec.n * self.spec.m + 1))

    def read(self, d0, d1):
        """The rhs of front d0, contiguous; node() names its entries."""
        fr = self.fr = self.fronts.front(d0)
        self.d, self.sel = d0, slice(None)
        if self.fn is not None or self.error_fn is not None:
            self.x = (tuple(self.xs[i] for i in fr.heads)
                      + (self.xs_rev[fr.tail],))  # f's and error_fn's coordinates
        if self.src is not None:
            return self.src[fr.flat]
        F = np.asarray(self.fn(self.x), dtype=np.float64)
        return np.ascontiguousarray(np.broadcast_to(F, (fr.hi - fr.lo,)))

    def update(self, F, stats):
        """Solve the front by bisection; yield the certificate's inputs
        (t, A, C, f, True): its update batch and their values."""
        spec, kind, fr = self.spec, self.kind, self.fr
        C = None
        if kind.has_boundary_condition:
            self.sel = fr.inner
        else:
            C = [self.cw[i] for i in fr.heads] + [self.cw_rev[fr.tail]]
        fs = F[self.sel]
        A = self.fronts.neighbors(self.prev, fr.lo, fr.hi, self.sel)
        try:
            self.t = _update_vec(kind, A, C, fs, spec.h, spec.n, stats)
        except BisectionCapError as exc:
            bad = self.node(int(exc.local_indices[0]))
            raise SolveError(f"{exc} (first at node {bad})",
                             multi_index=bad) from exc
        yield self.t, A, C, fs, True

    def node(self, k):
        """Multi-index of entry k of the rhs, or of the update batch once
        update() has run."""
        fr = self.fr
        return self.fronts.node(fr.lo + int(np.arange(fr.hi - fr.lo)[self.sel][k]),
                                self.d)

    def mask(self, product, target):
        """Every entry of the batch is a node: nothing to mask."""

    def write(self, linf):
        fr = self.fr
        if self.kind.has_boundary_condition:
            vals = np.zeros(fr.hi - fr.lo)
            vals[self.sel] = self.t
        else:
            vals = self.t
        if self.error_fn is not None:
            linf = _fold_error(linf, self.error_fn, vals, self.x)
        self.prev[1 + fr.lo:1 + fr.hi] = vals
        self.out[fr.dest] = vals[fr.src]
        return linf


def _window(P, s, mask, value):
    """Set P[k, s + c] to value (a scalar, or an array shaped like P, read
    at the same entry) where mask[k, c], over the columns of P that the
    window [s, s + mask.shape[1]) covers."""
    a, b = max(s, 0), min(s + mask.shape[1], P.shape[1])
    if a < b:
        np.copyto(P[:, a:b], value if np.isscalar(value) else value[:, a:b],
                  where=mask[:, a - s:b - s])


class _BlockWalk:
    """The engine's steps at n = 2 (_solve_fronts), where a block is up to
    K = min(_BLOCK, m + 1) consecutive fronts [d0, d1) and never crosses a
    band of _band_rhs. Front d holds the heads i in [max(0, d - m),
    min(d, m)], node (i, d - i), which is entry i*m + d of the flat field.
    So the heads [lo, hi) by fronts of a block are one strided view of the
    field with strides (m, 1) entries (_view): one copy reads the block's
    rhs, and three write its values back. The view's off-grid entries,
    i > d (j < 0) or i < d - m (j > m), alias other nodes: they lie in two
    end triangles of at most K by K entries, which the block masks on its
    own arrays with K by K triangular masks (_window): 0.0 in the rhs, so
    they pass its check, and 1.0 in the certificate's product and target,
    which gives them no violation. The field's own entries there keep their
    values.

    U holds the values, K+1 rows by heads behind one fixed 0: row 0 is
    front d0 - 1, row k + 1 front d0 + k, head i at column i + 1. So the
    backward neighbors of heads [a, b) of row k + 1 are the slices
    U[k, a:b] and U[k, a + 1:b + 1]. S1/S2 update inner nodes only; their
    boundary entries keep U's initial 0, since a row's column i + 1 is
    written only by the fronts after i. Off-grid entries of U hold finite
    values (S3 weights them by 0). A rolling solve reads a GridField
    through the same view of its values and a callable f from the rows of
    _band_rhs; it folds error_fn over U's rows (_fold) and copies U's last
    column into the final slab."""

    def __init__(self, spec, kind, src, fn, out, rolling, error_fn):
        m = spec.m
        K = self.K = min(_BLOCK, m + 1)
        self.spec, self.kind, self.out = spec, kind, out
        self.src, self.rolling, self.error_fn = src, rolling, error_fn
        self.U = np.zeros((K + 1, m + 2))
        self.ge = np.triu(np.ones((K, K), dtype=bool))  # entries c >= k
        self.lt = ~self.ge
        self.xs, self.xs_rev = _axis_tables(spec.axis_coords())
        # tables over j in [-K, m + K], which _skew reads by front and head;
        # onpad is True on the grid, 0 <= j <= m
        if kind is SchemeKind.S3:
            self.cw = 2.0 * np.arange(m + 1)  # c_1 = 2 i
            self.cpad = _padded(self.cw, K)  # c_2 = 2 j
        if error_fn is not None:
            self.xpad = _padded(self.xs, K)  # x_2 = j / m
            self.onpad = np.pad(np.ones(m + 1, dtype=bool), K)
        if src is None:
            self.band_rows = _band_rhs(fn, spec, self.xs)
        else:
            self.G = np.empty((m + 1, K))  # the rhs, by heads and fronts

    def spans(self):
        N = 2 * self.spec.m + 1
        B = _band_dims(self.spec.m)[0]
        for D in range(0, N, B):
            for d0 in range(D, min(D + B, N), self.K):
                yield d0, min(d0 + self.K, D + B, N)

    def _heads(self, d0, d1):
        """Heads [lo, hi) of the fronts [d0, d1)."""
        m = self.spec.m
        return max(0, d0 - m), min(d1 - 1, m) + 1

    def _view(self, src):
        """The block's heads by fronts in the flat field src: entry (c, k)
        is src[(lo + c)*m + d0 + k]. NumPy checks that it stays inside."""
        m, lo, s = self.spec.m, self.lo, src.itemsize
        return np.ndarray((self.hi - lo, self.d1 - self.d0), np.float64, src,
                          (lo * m + self.d0) * s, (m * s, s))

    def read(self, d0, d1):
        """The rhs of the fronts [d0, d1) by heads [lo, hi), 0.0 off the
        grid; node() names its entries."""
        self.d0, self.d1 = d0, d1
        lo, hi = self.lo, self.hi = self._heads(d0, d1)
        self.p0, self.c0, self.ph = d0, lo, hi
        if self.src is None:
            F = self.band_rows(d0, d1)[:, lo:hi]
        else:  # copied in the view's order: its rows are runs of the field
            G = self.G[:hi - lo, :d1 - d0]
            np.copyto(G, self._view(self.src))
            F = G.T
        self._off_grid(F, d0, lo, 0, 0.0)
        return F

    def _off_grid(self, P, p0, c0, j0, value):
        """Set the entries of P, by the fronts from p0 and heads from c0, to
        value where j > m or j < j0."""
        r = P.shape[0]
        _window(P, p0 - self.spec.m - c0, self.lt[:r, :r], value)  # j > m
        _window(P, p0 + 1 - j0 - c0, self.ge[:r, :r], value)  # j < j0

    def node(self, k):
        """Multi-index of entry k, row-major, of the fronts from p0 by the
        heads [c0, ph): those of the rhs, or of the certificate's piece."""
        r, c = divmod(k, self.ph - self.c0)
        return (self.c0 + c, self.p0 + r - self.c0 - c)

    def update(self, F, stats):
        """Solve the block's fronts in order by their closed forms, straight
        into U, until one holds a value that is not finite; then yield the
        certificate's inputs (t, A, C, f, finite) over the fronts solved, in
        pieces of at most K/2 fronts by their heads [c0, ph) (the inner ones
        for S1/S2), which bounds its temporaries."""
        spec, kind, U = self.spec, self.kind, self.U
        m, h, d0, lo = spec.m, spec.h, self.d0, self.lo
        bc = kind.has_boundary_condition
        s3 = kind is SchemeKind.S3
        xs, xs_rev = self.xs, self.xs_rev
        rows, finite = self.d1 - d0, True
        for k in range(rows):
            d = d0 + k
            a, b = max(0, d - m), min(d, m) + 1
            if bc:  # inner nodes: i >= 1 and d - i >= 1
                a, b = max(a, 1), min(b, d)
            t = _closed(kind, (U[k, a:b], U[k, a + 1:b + 1]),
                        (xs[a:b], xs_rev[m - d + a:m - d + b]) if s3 else None,
                        F[k, a - lo:b - lo], h)
            U[k + 1, a + 1:b + 1] = t
            if not np.maximum.reduce(t, initial=0.0) < math.inf:
                rows, finite = k + 1, False  # no later front runs
                break
        for r0, r1, c0, hi in self._pieces(rows, max(1, self.K // 2)):
            p0 = self.p0 = d0 + r0
            c0 = self.c0 = max(c0, 1) if bc else c0
            self.ph = hi
            C = ([self.cw[c0:hi], self._skew(self.cpad, p0, c0, r1 - r0, hi)]
                 if s3 else None)
            yield (U[r0 + 1:r1 + 1, c0 + 1:hi + 1],
                   [U[r0:r1, c0:hi], U[r0:r1, c0 + 1:hi + 1]], C,
                   F[r0:r1, c0 - lo:hi - lo], finite or r1 < rows)

    def _pieces(self, rows, step):
        """(r0, r1, lo, hi) of the block's fronts d0 + [r0, r1), step of
        the first `rows` at a time, with their heads [lo, hi)."""
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            yield (r0, r1) + self._heads(self.d0 + r0, self.d0 + r1)

    def _skew(self, table, p0, c0, rows, hi):
        """A table over j in [-K, m + K] by the fronts from p0 and heads
        [c0, hi): entry (k, c) is table[K + p0 + k - c0 - c], which is j's
        entry for node (c0 + c, p0 + k - c0 - c), a view with strides
        (1, -1)."""
        s = table.itemsize
        return np.ndarray((rows, hi - c0), table.dtype, table,
                          (self.K + p0 - c0) * s, (s, -s))

    def mask(self, product, target):
        """1.0 off the grid, and for S1/S2 on the j = 0 face: no violation."""
        j0 = 1 if self.kind.has_boundary_condition else 0
        self._off_grid(product, self.p0, self.c0, j0, 1.0)
        self._off_grid(target, self.p0, self.c0, j0, 1.0)

    def write(self, linf):
        d0, d1, lo, hi, m = self.d0, self.d1, self.lo, self.hi, self.spec.m
        K1, U = d1 - d0, self.U
        if not self.rolling:
            S = U[1:K1 + 1, lo + 1:hi + 1]
            V = self._view(self.out).T
            s, u = d0 - m - lo, d0 + 1 - lo
            _window(V, s, self.ge[:K1, :K1], S)  # on the grid: i >= d0 + k - m
            V[:, max(s + K1, 0):u] = S[:, max(s + K1, 0):u]
            _window(V, u, self.lt[:K1, :K1], S)  # on the grid: i <= d0 + k
        else:
            if self.error_fn is not None:
                linf = self._fold(linf)
            if d1 > m:  # the fronts' last heads, i = m
                k = max(d0, m) - d0
                self.out[d0 + k - m:d1 - m] = U[1 + k:K1 + 1, m + 1]
        U[0] = U[K1]
        return linf

    def _fold(self, linf):
        """linf folded with error_fn over the block's values in pieces of
        K/4 fronts by all their heads, on the pieces' own coordinates: x_1
        = xs[lo:hi] as a row and x_2 a _skew view of xpad. The entries off
        the grid, two end triangles of stale values of U at the end
        coordinates, go to error_fn too; the _skew view of onpad keeps them
        out of the max."""
        for r0, r1, lo, hi in self._pieces(self.d1 - self.d0, max(1, self.K // 4)):
            p0, rows = self.d0 + r0, r1 - r0
            x = (self.xs[lo:hi], self._skew(self.xpad, p0, lo, rows, hi))
            linf = _fold_error(linf, self.error_fn,
                               self.U[r0 + 1:r1 + 1, lo + 1:hi + 1], x,
                               self._skew(self.onpad, p0, lo, rows, hi))
        return linf


def _fill_rhs(field, f, spec: GridSpec) -> None:
    """Write f into the field slab by slab (_slabs); no slab outlives it."""
    for i0, i1, x in _slabs(spec):
        field[i0:i1] = _slab_rhs(f, spec, i0, i1, x)


def _certify(kind, walk, t, A, C, f, finite, h, n) -> float:
    """The largest band violation of the update batch whose values are t,
    neighbors A, S3 weights C and rhs f, with walk's entries off the grid
    masked out; a batch that is not finite, or whose violation is
    infinite, raises SolveError naming its first offending node in front
    order. Its temporaries go when it returns."""
    residual = _residual(kind, t, A, C, _scaled_rhs(kind, f, h, n), n)
    walk.mask(*residual)
    worst = _max_violation(*residual, h) if finite else math.inf
    if worst == math.inf:
        bad = walk.node(int(np.argmax(_violation(*residual, h))))
        raise SolveError(f"non-finite value, product or target at node {bad}",
                         multi_index=bad)
    return worst


def _solve_fronts(spec, kind, f, rolling, error_fn):
    """Single pass over the fronts d = 0..n*m, in blocks of consecutive
    fronts: K of them at n = 2 (_BlockWalk), one at n >= 3 (_FrontWalk).
    Each block's rhs is checked once, its fronts are solved in order, each
    from the one before, its residual is certified (_certify, at n = 2 in
    two halves), and its values go to the full field or, with rolling
    storage, only into the final i_1 = m slab. With full storage the field
    holds the rhs until a block overwrites it with its solution."""
    n, m, h = spec.n, spec.m, spec.h
    _check_rhs_spec(f, spec)
    out = np.zeros((m + 1) ** (n - 1) if rolling else spec.num_nodes)
    src = fn = None  # the flat field that holds the rhs, or f as a callable
    if not rolling:
        _fill_rhs(out.reshape(spec.shape), f, spec)
        src = out
    elif isinstance(f, GridField):
        src = f.values.reshape(-1)
    else:
        fn = _as_rhs(f)
    walk = (_BlockWalk if n == 2 else _FrontWalk)(
        spec, kind, src, fn, out, rolling, error_fn if rolling else None)
    stats = _BisectStats()
    cert = 0.0
    linf = 0.0

    for d0, d1 in walk.spans():
        F = walk.read(d0, d1)
        if not (np.minimum.reduce(F, axis=None, initial=0.0) >= 0.0
                and np.maximum.reduce(F, axis=None, initial=0.0) < math.inf):
            k = int(np.argmin(np.isfinite(F) & (F >= 0.0)))
            node = walk.node(k)
            raise SolveError(f"invalid right-hand side f={F.flat[k]} at node {node}",
                             multi_index=node)
        # no piece outlives its certificate
        cert = max(cert, *(_certify(kind, walk, *piece, h, n)
                           for piece in walk.update(F, stats)))
        linf = walk.write(linf)
    del walk, F  # the error fold needs no block buffer

    if not rolling and error_fn is not None:
        field = out.reshape(spec.shape)
        for i0, i1, x in _slabs(spec):
            linf = _fold_error(linf, error_fn, field[i0:i1], x)
    return out, cert, (linf if error_fn is not None else None), stats


# ---------------------------------------------------------------------------
# Public solve
# ---------------------------------------------------------------------------

def solve(spec: GridSpec, kind, f, *, storage: str = "full",
          error_fn=None) -> SolveReport:
    """Solve one scheme over the grid in a single pass.

    Every node takes its scheme's closed form at n = 2 and the band
    bisection (_update_vec) at n >= 3; no option selects another update.

    f may be a nonnegative constant, a callable on a tuple of broadcastable
    coordinate arrays, or a GridField on the same spec; a negative or
    non-finite value raises SolveError naming the node, as does a node whose
    value, product or target overflows. If error_fn is given, the report
    carries the sup of error_fn(values, coords) over all nodes.

    With storage="full" f is evaluated, and error_fn folded, over i_1-slabs
    of the sparse mesh: the rhs is written into the field before the pass
    and the error is taken after it. With storage="rolling" the field is not
    retained and the report carries the final axis-1 slab. At n = 2 the
    fronts are solved in blocks of _BLOCK. A rolling solve reads a GridField
    rhs from its values; it evaluates a callable or constant f per front at
    n >= 3, and at n = 2 on row blocks of a band of fronts (_band_rhs)
    before the band's fronts are solved. It folds error_fn per block on the
    block's own coordinates once the block is solved. Either way a callable
    f and error_fn must be elementwise on broadcastable coordinate arrays,
    and the two storages agree bit for bit.
    """
    kind = SchemeKind.parse(kind)
    if storage not in ("full", "rolling"):
        raise ValueError(f"unknown storage mode {storage!r}")
    t0 = time.perf_counter()
    rolling = storage == "rolling"
    out, cert, linf, stats = _solve_fronts(spec, kind, f, rolling, error_fn)
    wall = time.perf_counter() - t0
    mean = stats.iters_total / stats.nodes if stats.nodes else 0.0
    return SolveReport(spec=spec, kind=kind, storage=storage,
                       field=None if rolling else GridField(spec, out),
                       max_band_violation=cert,
                       bisect_nodes=stats.nodes, bisect_iters_max=stats.iters_max,
                       bisect_iters_mean=mean, wall_time=wall,
                       linf_error=linf, final_slab=out if rolling else None)


def working_set_bytes(spec: GridSpec, storage: str = "full") -> int:
    """Bytes a solve holds at its peak: the field with full storage, plus
    WORK_ARRAYS float64 arrays the size of its work unit, one front of
    (m+1)^(n-1) nodes or one i_1-slab, whichever is larger, plus
    SOLVE_FIXED_BYTES. At n = 2 the pass holds instead _BLOCK_ARRAYS arrays
    of one block of K fronts, K by m+2 (_BlockWalk): a full solve, which
    also fills the rhs and folds the error over i_1-slabs, is charged the
    larger of the two; a rolling solve holds no slab, only the block (with
    the error fold's pieces), the rhs band of B fronts and _RECT_ARRAYS
    rectangles of T by T+B-1 nodes that fill it (_band_rhs). A GridField
    rhs needs no band, but the charge does not depend on the rhs."""
    m = spec.m
    front = (m + 1) ** (spec.n - 1)
    field = spec.num_nodes * 8 if storage == "full" else 0
    work = WORK_ARRAYS * _slab_rows(spec) * front
    if spec.n == 2:
        block = _BLOCK_ARRAYS * min(_BLOCK, m + 1) * (m + 2)
        if storage == "rolling":
            B, T = _band_dims(m)
            work = block + B * front + _RECT_ARRAYS * T * (T + B - 1)
        else:
            work = max(work, block)
    return field + 8 * work + SOLVE_FIXED_BYTES
