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
engine walks them in blocks of consecutive fronts (_Walk), K = _BLOCK of
them at n = 2 and one at n >= 3: each block's right-hand side is read and
checked (finite, nonnegative) once, its fronts are updated in order, its
residual is folded into the certificate (at n = 2 in two halves, which
bounds the temporaries), and its values are written once, into the full
field or, with rolling storage, only into the final i_1 = m slab. Node
(I_1, ..., I_{n-1}, d - |I|) is entry d + sum_k I_k*((m+1)^(n-k) - 1) of the
flat field, so in every dimension a block is one strided view of the field,
fronts by a box of heads, and no index array is built. The view's off-grid
entries, which alias other nodes, are masked through skewed views of padded
tables over the last index, as are the last coordinate and S3's weight: at
n = 2 they lie in two small end triangles. At n = 2 each front runs its
closed form on its exact heads, on slices of a value block that holds the
front before the block; at n >= 3 the front is bisected over its box, and
its off-grid entries, whose rhs is 0, never join the batch. The certificate
is a max-reduction (_max_violation), which falls back to the per-node
_violation only where a target is <= 0 or the result is not finite. A node
whose rhs is invalid, or whose value, product or target is not finite,
stops the solve with a SolveError naming the first such node in front order
(by front, then by head in lexicographic order); a non-finite value stops
it at its own front.

Work over the whole grid runs in i_1-slabs: runs of whole rows of the first
index, about _SLAB_NODES nodes each, on the sparse mesh (GridSpec.mesh()
sliced on axis 0). With full storage the right-hand side is written into the
output field slab by slab before the pass, each block reads its rhs from
there, and the error is folded over the same slabs after the pass. Rolling
storage reads a GridField's values as full storage reads its field, through
the same strided views. It calls a callable or constant f on each block's
coordinates at n >= 3, head coordinates as vectors that broadcast, and at
n = 2 through a band of B fronts (_band_rhs), filled on sparse rectangles of
at most B rows by 2B-1 columns whose skewed diagonal strips hold the band's
nodes, so f's per-axis work runs on coordinate vectors, for O(B*(m+1))
extra memory. A rolling solve folds the error per block on the block's own
coordinates, at n = 2 in pieces of K/4 fronts, with the off-grid entries
kept out of the max; the slab and block folds are one expression
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

import numpy as np

from .grid import GridField, GridSpec

BISECTION_CAP = 200
_SLAB_NODES = 1 << 14  # nodes per i_1-slab, rounded to at least one row
_COMPACT = 0.5  # gather the bisection batch once at most this share is live
_BAND = 64  # fronts per rhs band of an n = 2 rolling solve, rows per fill (_band_rhs)
_BLOCK = 16  # fronts per block of an n = 2 solve (_Walk)
# Peak traced bytes of a solve beyond its field, in float64 arrays of one work
# unit (working_set_bytes): a front's value block and heads box, the
# bisection batch and the certificate on it, and the slab-wise rhs and error.
# tracemalloc measured at most 24.9 beyond SOLVE_FIXED_BYTES on cases f1-f3
# and const with the u-scale error, callable and GridField rhs, n = 3..7
# and small m up to n = 18, either storage (18-25 once a slab is one front,
# at n = 3 m >= 127, n = 4 m >= 20, n = 5 m = 10, n = 10 m = 2 and
# n >= 16 m = 1, where S3 gathers 2n arrays of the bisection batch; at most
# 7.3 at n = 2).
WORK_ARRAYS = 28
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
# Bytes a solve holds at any size (array headers, tables over j, closures):
# tracemalloc measured at most 15.0 KB above the work arrays on m = 1..3,
# n = 2..6, f1-f3 and const with the u-scale error (n = 5, m = 1, rolling).
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
    """Largest roots of the node equation for an array of nodes, of any
    shape (C broadcasts to it); nodes with f = 0 keep the lower bracket.
    The nodes with f > 0 are bisected as one batch, gathered in C order
    by one array of flat indices, which BisectionCapError carries."""
    b = _scaled_rhs(kind, f, h, n)
    if kind is SchemeKind.S3:
        lo = C[0] * A[0] / (1.0 + C[0])
        for j in range(1, n):
            np.maximum(lo, C[j] * A[j] / (1.0 + C[j]), out=lo)
    else:
        lo = A[0].copy()
        for a in A[1:]:
            np.maximum(lo, a, out=lo)
    pos = b > 0.0
    t = lo  # the roots, written in place once lo is gathered
    if kind is SchemeKind.S2:
        corner = pos & (lo <= 0.0)
        pos &= lo > 0.0
        np.copyto(t, b, where=corner)  # all a_i = 0: t^n = b t^(n-1)
    act = np.flatnonzero(pos)
    if act.size:
        A = [a.take(act) for a in A]
        lo, fa = lo.take(act), f.take(act)
        if kind is SchemeKind.S1:
            hi = lo + h * np.power(fa, 1.0 / n)
        elif kind is SchemeKind.S2:
            hi = sum(A[1:], A[0]) + b.take(act)  # S(a, b) <= sum a_i + b
        else:
            C = [np.broadcast_to(c, pos.shape).take(act) for c in C]
            hi = lo + np.power(fa / math.prod(1.0 + c for c in C), 1.0 / n)
        _band_root(kind, t.reshape(-1), act, A, C, b.take(act), lo, hi, h, n, stats)
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
    in one band, and where d0 = D fn fills it, from blocks of at most B
    rows [r0, r1): f on the sparse rectangle x[r0:r1] by
    x[c0:c0 + t + B - 1], with t = r1 - r0 and c0 = D - r1 + 1, holds front
    D + k of row r0 + r at (r, t - 1 - r + k), a skewed diagonal strip
    (_strip). So f evaluates its per-axis work on (t + B - 1)-long
    coordinate vectors instead of on every node. Columns past either end
    of the axis read the end coordinates, so f sees grid coordinates only;
    those entries are off the grid."""
    m = spec.m
    B = min(_BAND, m + 1)
    xpad = _padded(xs, B - 1)
    band = np.empty((B, m + 1))

    def rows(d0, d1):
        D = d0 - d0 % B
        if d0 == D:
            last = min(m, D + B - 1) + 1  # rows [max(0, D - m), last) meet the band
            for r0 in range(max(0, D - m), last, B):
                t = min(B, last - r0)
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

class _Walk:
    """The engine's steps (_solve_fronts) over blocks of K consecutive
    fronts [d0, d1): K = min(_BLOCK, m + 1) at n = 2 and 1 at n >= 3. No
    block crosses a band of _band_rhs.

    Node (I_1, ..., I_{n-1}, d - |I|) is entry d + sum_k I_k*s_k of the flat
    field, s_k = (m+1)^(n-k) - 1. A block's heads lie in the box
    [lo, hi) on every head axis, lo = max(0, d0 - (n-1)m) and
    hi = min(d1 - 1, m) + 1, so its heads by fronts are one strided view of
    the field (_view): one copy reads the block's rhs and one writes its
    values back. Block arrays are taken by fronts, then heads in C order,
    which is the order in which node() names their entries. The view's
    entries with j = d - |I| outside [0, m] are off the grid and alias
    other nodes. Views of tables over j, padded by P = (n-2)m + K on either
    side, are skewed over a block (_skew): x_n, S3's weight c_n and the
    masks. The masks set off-grid entries to 0.0 in the rhs, so they pass
    its check and never join a bisection batch, and to 1.0 in the
    certificate's product and target (also on the S1/S2 face j = 0), which
    gives them no violation; the writes skip them. They lie within P of
    either end of head axis 1, so only those strips are masked (_strips):
    two K by K end triangles at n = 2, the whole box at n >= 3.

    U holds K+1 fronts by all heads, (m+1)^(n-1) entries each, in C order
    (_u): U[0] is front d0 - 1, U[k + 1] front d0 + k. So the axis-j
    neighbors of a box of U[k + 1] are the box of U[k] shifted by one on
    axis j, and the last-axis neighbors the box itself (_stencil). Head -1
    on an axis has no entry of its own: it reads another entry of U, or
    one of the zeros before U[0]. Only S3 reads it, at heads I_j = 0, and
    weights it by c_j = 0, which needs it finite. At n = 2 each front runs
    its closed form on its exact heads (the inner ones for S1/S2), so
    S1/S2 boundary entries keep U's initial 0: a column is written only by
    the fronts past its head. At n >= 3 the front is bisected over its box
    (from head 1 for S1/S2) with the rhs 0 off the grid and on the S1/S2
    face j = 0, where the update keeps its lower bracket, the max of the
    neighbors, which is 0 there. So every entry of U is finite: off the
    grid it is that lower bracket, at most its largest neighbor. A rolling
    solve reads a GridField through the same view of its values and, at
    n = 2, a callable f from the rows of _band_rhs (at n >= 3 f is called
    on the block's coordinates, _axes); it folds error_fn over U's fronts
    (_fold) and writes the heads with I_1 = m through the view of the
    final slab at offset d - m."""

    def __init__(self, spec, kind, src, fn, out, rolling, error_fn):
        n, m = spec.n, spec.m
        K = self.K = min(_BLOCK, m + 1) if n == 2 else 1
        P = self.P = (n - 2) * m + K
        self.spec, self.kind, self.out = spec, kind, out
        self.src, self.fn, self.rolling, self.error_fn = src, fn, rolling, error_fn
        self.steps = [(m + 1) ** (n - k) - 1 for k in range(1, n)]
        self.front = (m + 1) ** (n - 1)
        self.ustep = [(m + 1) ** (n - 1 - k) for k in range(1, n)]
        self.ulead = self.ustep[0]  # head -1 on axis 1 of U[0]
        self.U = np.zeros(self.ulead + (K + 1) * self.front)
        self.Uv = [self._view(self.U, self.ulead - s, 0, m + 1, K + 1, self.ustep, self.front)
                   for s in [0] + self.ustep]  # unshifted, then shifted on each head axis
        self.xs = spec.axis_coords()
        self.xs.flags.writeable = False  # views of it go to f and error_fn
        # tables over j in [-P, m + P], which _skew reads by fronts and heads
        self.xpad = _padded(self.xs, P)  # x_n = j / m
        self.on = np.pad(np.ones(m + 1, dtype=bool), P)  # 0 <= j <= m
        self.off = [~self.on, ~self.on]  # j outside [j0, m], by j0
        self.off[1][P] = True
        if kind is SchemeKind.S3:
            self.cw = n * np.arange(m + 1.0)  # c_i = n i
            self.cpad = _padded(self.cw, P)
        if src is None and n == 2:
            self.band_rows = _band_rhs(fn, spec, self.xs)
        else:
            self.G = np.empty(K * self.front)  # the rhs, by heads and fronts

    def spans(self):
        N = self.spec.n * self.spec.m + 1
        B = min(_BAND, self.spec.m + 1)
        for D in range(0, N, B):
            for d0 in range(D, min(D + B, N), self.K):
                yield d0, min(d0 + self.K, D + B, N)

    def _heads(self, d0, d1):
        """Heads [lo, hi), on every head axis, of the fronts [d0, d1)."""
        n, m = self.spec.n, self.spec.m
        return max(0, d0 - (n - 1) * m), min(d1 - 1, m) + 1

    def _view(self, buf, base, lo, hi, rows, steps, rowstep=1):
        """`rows` fronts, rowstep apart, by the heads [lo, hi) on the axes
        of these strides, in the flat buffer buf, whose entry for the first
        front and head 0 is `base`. NumPy checks that it stays inside."""
        s = buf.itemsize
        return np.ndarray((rows,) + (hi - lo,) * len(steps), np.float64, buf,
                          (base + lo * sum(steps)) * s,
                          (rowstep * s,) + tuple(k * s for k in steps))

    def _u(self, r0, r1, c0, hi, shift=None):
        """The fronts U[r0:r1] over the heads [c0, hi) on every head axis,
        shifted by -1 on head axis `shift`."""
        box = (slice(c0, hi),) * (self.spec.n - 1)
        return self.Uv[0 if shift is None else shift + 1][(slice(r0, r1),) + box]

    def _skew(self, table, p0, c0, shape):
        """A table over j in [-P, m + P] by the fronts from p0 and the heads
        from c0 on every head axis: entry (k, c_1, ...) is j's entry for
        the node of head I = c0 + c on front p0 + k, a view with strides
        (1, -1, ..., -1)."""
        s, heads = table.itemsize, len(shape) - 1
        return np.ndarray(shape, table.dtype, table,
                          (self.P + p0 - heads * c0) * s, (s,) + (-s,) * heads)

    def _axes(self, table, pad, p0, c0, shape):
        """Per axis, a table over the indices (coordinates or S3 weights)
        at the nodes of a piece shaped `shape`, by the fronts from p0 and
        heads from c0: the head axes' as vectors that broadcast, the last
        axis' as a _skew view of the padded table."""
        w, heads = shape[1], len(shape) - 1
        return ([table[c0:c0 + w].reshape((w,) + (1,) * (heads - 1 - k))
                 for k in range(heads)] + [self._skew(pad, p0, c0, shape)])

    def _strips(self, w):
        """(a, b, masked): the columns [a, b) of head axis 1 of a piece w
        heads wide, masked where they lie within P of either end."""
        s = min(w, self.P)
        e = max(s, w - s)
        return [st for st in ((0, s, True), (s, e, False), (e, w, True)) if st[0] < st[1]]

    def _off_grid(self, Xs, p0, c0, j0, value):
        """Set the entries of the arrays Xs, of one shape, by the fronts
        from p0 and heads from c0, to value where j > m or j < j0."""
        off = self._skew(self.off[j0], p0, c0, Xs[0].shape)
        for a, b, masked in self._strips(Xs[0].shape[1]):
            for X in Xs if masked else ():
                np.copyto(X[:, a:b], value, where=off[:, a:b])

    def read(self, d0, d1):
        """The rhs of the fronts [d0, d1) by heads [lo, hi), 0.0 off the
        grid; node() names its entries."""
        n = self.spec.n
        self.d0, self.d1 = d0, d1
        lo, hi = self.lo, self.hi = self._heads(d0, d1)
        shape = (d1 - d0,) + (hi - lo,) * (n - 1)
        self.p0, self.c0, self.shape = d0, lo, shape
        if self.src is None and n == 2:
            F = self.band_rows(d0, d1)[:, lo:hi]
        else:  # laid out as the view: its fronts are runs of the field
            G = self.G[:math.prod(shape)].reshape(shape[1:] + shape[:1])
            F = G.transpose(-1, *range(n - 1))
            if self.src is not None:
                np.copyto(F, self._view(self.src, d0, lo, hi, d1 - d0, self.steps))
            else:
                x = self._axes(self.xs, self.xpad, d0, lo, shape)
                F[...] = np.asarray(self.fn(x), dtype=np.float64)
        self._off_grid((F,), d0, lo, 0, 0.0)
        return F

    def node(self, k):
        """Multi-index of entry k, in C order, of the piece by the fronts
        from p0 and heads from c0 shaped `shape`: the rhs, or the
        certificate's and the bisection's piece."""
        r, *c = np.unravel_index(k, self.shape)
        head = tuple(self.c0 + int(i) for i in c)
        return head + (self.p0 + int(r) - sum(head),)

    def _stencil(self, r0, r1, c0, hi):
        """The values of the fronts d0 + [r0, r1) over the heads [c0, hi),
        as views of U, and their n backward neighbors in axis order."""
        A = [self._u(r0, r1, c0, hi, j) for j in range(self.spec.n - 1)]
        return self._u(r0 + 1, r1 + 1, c0, hi), A + [self._u(r0, r1, c0, hi)]

    def update(self, F, stats):
        """Solve the block's fronts in order, straight into U: at n = 2 by
        their closed forms until one holds a value that is not finite. Then
        yield the certificate's inputs (t, A, C, f, finite) over the fronts
        solved, in pieces of at most K/2 fronts by their heads [c0, ph)
        (from head 1 for S1/S2), which bounds its temporaries; at n >= 3
        the piece is the block's one front, bisected before it is
        yielded."""
        spec, kind, U = self.spec, self.kind, self.U
        n, m, h, d0, lo = spec.n, spec.m, spec.h, self.d0, self.lo
        bc = kind.has_boundary_condition
        s3 = kind is SchemeKind.S3
        rows, finite = self.d1 - d0, True
        if n == 2:
            x2 = self._skew(self.xpad, d0, lo, F.shape) if s3 else None
            for k in range(rows):
                d = d0 + k
                a, b = max(0, d - m), min(d, m) + 1
                if bc:  # inner nodes: i >= 1 and d - i >= 1
                    a, b = max(a, 1), min(b, d)
                u = self.ulead + k * (m + 1)  # U[k], head 0
                t = _closed(kind, (U[u + a - 1:u + b - 1], U[u + a:u + b]),
                            (self.xs[a:b], x2[k, a - lo:b - lo]) if s3 else None,
                            F[k, a - lo:b - lo], h)
                U[u + m + 1 + a:u + m + 1 + b] = t
                if not np.maximum.reduce(t, initial=0.0) < math.inf:
                    rows, finite = k + 1, False  # no later front runs
                    break
        for r0, r1, c0, hi in self._pieces(rows, max(1, self.K // 2)):
            p0 = self.p0 = d0 + r0
            c0 = self.c0 = max(c0, 1) if bc else c0
            self.shape = (r1 - r0,) + (hi - c0,) * (n - 1)
            t, A = self._stencil(r0, r1, c0, hi)
            C = self._axes(self.cw, self.cpad, p0, c0, self.shape) if s3 else None
            f = F[(slice(r0, r1),) + (slice(c0 - lo, hi - lo),) * (n - 1)]
            if n > 2:
                self._bisect(t, A, C, f, stats)
            yield t, A, C, f, finite or r1 < rows

    def _bisect(self, t, A, C, f, stats):
        """Solve the piece t, one front over its box, by bisection from its
        neighbors A; f is the piece's rhs, which S1/S2 zero on the face
        j = 0."""
        spec, kind = self.spec, self.kind
        if kind.has_boundary_condition:
            self._off_grid((f,), self.p0, self.c0, 1, 0.0)
        try:
            t[...] = _update_vec(kind, A, C, f, spec.h, spec.n, stats)
        except BisectionCapError as exc:
            bad = self.node(int(exc.local_indices[0]))
            raise SolveError(f"{exc} (first at node {bad})",
                             multi_index=bad) from exc

    def _pieces(self, rows, step):
        """(r0, r1, lo, hi) of the block's fronts d0 + [r0, r1), step of
        the first `rows` at a time, with their heads [lo, hi)."""
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            yield (r0, r1) + self._heads(self.d0 + r0, self.d0 + r1)

    def mask(self, product, target):
        """1.0 off the grid, and for S1/S2 on the j = 0 face: no violation."""
        j0 = 1 if self.kind.has_boundary_condition else 0
        self._off_grid((product, target), self.p0, self.c0, j0, 1.0)

    def write(self, linf):
        d0, d1, lo, hi, m = self.d0, self.d1, self.lo, self.hi, self.spec.m
        K1 = d1 - d0
        S = self._u(1, K1 + 1, lo, hi)
        on = self._skew(self.on, d0, lo, S.shape)
        if not self.rolling:
            V = self._view(self.out, d0, lo, hi, K1, self.steps)
            for a, b, masked in self._strips(S.shape[1]):
                np.copyto(V[:, a:b], S[:, a:b], where=on[:, a:b] if masked else True)
        else:
            if self.error_fn is not None:
                linf = self._fold(linf)
            if d1 > m:  # the fronts' heads with I_1 = m
                k = max(d0, m) - d0
                V = self._view(self.out, d0 + k - m, lo, hi, K1 - k, self.steps[1:])
                np.copyto(V, S[k:, -1], where=on[k:, -1])
        self._u(0, 1, lo, hi)[...] = self._u(K1, K1 + 1, lo, hi)
        return linf

    def _fold(self, linf):
        """linf folded with error_fn over the block's values in pieces of
        K/4 fronts by all their heads, on the pieces' own coordinates
        (_axes). The entries off the grid, stale values of U at the end
        coordinates, go to error_fn too; the _skew view of `on` keeps them
        out of the max."""
        n = self.spec.n
        for r0, r1, lo, hi in self._pieces(self.d1 - self.d0, max(1, self.K // 4)):
            p0, shape = self.d0 + r0, (r1 - r0,) + (hi - lo,) * (n - 1)
            linf = _fold_error(linf, self.error_fn,
                               self._u(r0 + 1, r1 + 1, lo, hi),
                               self._axes(self.xs, self.xpad, p0, lo, shape),
                               self._skew(self.on, p0, lo, shape))
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
    fronts (_Walk): K of them at n = 2, one at n >= 3. Each block's rhs is
    checked once, its fronts are solved in order, each from the one before,
    its residual is certified (_certify, at n = 2 in two halves), and its
    values go to the full field or, with rolling storage, only into the
    final i_1 = m slab. With full storage the field
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
    walk = _Walk(spec, kind, src, fn, out, rolling, error_fn if rolling else None)
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
    retained and the report carries the final axis-1 slab. The fronts are
    solved in blocks, _BLOCK fronts at n = 2 and one at n >= 3, each a
    strided view of the field. A rolling solve reads a GridField rhs from
    its values; it evaluates a callable or constant f per front at n >= 3,
    and at n = 2 on row blocks of a band of fronts (_band_rhs) before the
    band's fronts are solved. It folds error_fn per block on the block's own
    coordinates once the block is solved. Either way a callable f and
    error_fn must be elementwise on broadcastable coordinate arrays, and the
    two storages agree bit for bit. A SolveError names the first offending
    node by front, then by head in lexicographic order.
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
    WORK_ARRAYS float64 arrays the size of its work unit, one i_1-slab of
    at least one row, which holds the box of heads of any front at n >= 3,
    plus SOLVE_FIXED_BYTES. At n = 2 the pass holds instead _BLOCK_ARRAYS
    arrays of one block of K fronts, K by m+2 (_Walk): a full solve, which
    also fills the rhs and folds the error over i_1-slabs, is charged the
    larger of the two; a rolling solve holds no slab, only the block (with
    the error fold's pieces), the rhs band of B fronts and _RECT_ARRAYS
    rectangles of B by 2B-1 nodes that fill it (_band_rhs). A GridField
    rhs needs no band, but the charge does not depend on the rhs."""
    m = spec.m
    front = (m + 1) ** (spec.n - 1)
    field = spec.num_nodes * 8 if storage == "full" else 0
    work = WORK_ARRAYS * _slab_rows(spec) * front
    if spec.n == 2:
        block = _BLOCK_ARRAYS * min(_BLOCK, m + 1) * (m + 2)
        if storage == "rolling":
            B = min(_BAND, m + 1)
            work = block + B * front + _RECT_ARRAYS * B * (2 * B - 1)
        else:
            work = max(work, block)
    return field + 8 * work + SOLVE_FIXED_BYTES
