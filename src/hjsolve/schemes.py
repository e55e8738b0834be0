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
residual certificate both evaluate it.

One engine solves the grid. Every backward neighbor of a node with index
digit-sum d has digit-sum d-1, so the fronts d = 0, 1, ..., n*m are solved in
order, each vectorized over its nodes and computed from front d-1 alone. Each
front is checked for a finite nonnegative right-hand side, folded into the
residual certificate, and scattered into the full field or, with rolling
storage, only into the final i_1 = m slab. A node whose value, product or
target is not finite stops the solve with a SolveError naming it.

Work over the whole grid runs in i_1-slabs: runs of whole rows of the first
index, about _SLAB_NODES nodes each, on the sparse mesh (GridSpec.mesh()
sliced on axis 0). With full storage the right-hand side is written into the
output field slab by slab before the pass, each front reads its rhs from
there, and the error is folded over the same slabs after the pass; rolling
storage evaluates both per front instead. residual_stats runs over the same
slabs. So a callable f and an error_fn must be elementwise on broadcastable
coordinate arrays: the value at a node may not depend on how nodes are
batched.
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
# Scheme residual and band bisection (n >= 3, and n = 2 when bisection is
# forced).  A is the list of n backward-neighbor arrays in axis order; C
# (S3 only) the per-axis weights c_i = n*x_i/h; b the scaled right-hand side.
# ---------------------------------------------------------------------------

def _pow_int(base: float, exponent: int) -> float:
    out = base
    for _ in range(exponent - 1):
        out = out * base
    return out


def _scaled_rhs(kind, f, h, n):
    """The right-hand side b of the node equation: h^n f for S1/S2, f for S3."""
    return f if kind is SchemeKind.S3 else _pow_int(h, n) * f


def _residual(kind, t, A, C, b, n):
    """(product, target) of the node equation of the module docstring at t,
    with b in place of h^n f (S1, S2) or f (S3). The root finder and the
    certificate both evaluate the equation here, so they agree bit for bit."""
    prod = None
    if kind is SchemeKind.S3:
        for a, c in zip(A, C):
            fac = np.maximum((1.0 + c) * t - c * a, 0.0)
            prod = fac if prod is None else prod * fac
        return prod, b
    for a in A:
        fac = np.maximum(t - a, 0.0)
        prod = fac if prod is None else prod * fac
    if kind is SchemeKind.S2:
        den = t
        for _ in range(n - 2):
            den = den * t
        return prod, b * den
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

    A, C, b, lo and hi hold the values of the nodes in `act`, and shrink with
    it as nodes finish. Preconditions: product < target at lo and
    product >= target at hi. The upper endpoint is accepted outright when it
    already lies in the band. A node whose interval collapses to float
    resolution takes its upper endpoint, whose product is >= target.
    """
    stats.nodes += act.size
    prod, target = _residual(kind, hi, A, C, b, n)
    done = prod <= (1.0 + h) * target
    t[act[done]] = hi[done]
    keep = np.nonzero(~done)[0]
    it = 0
    while keep.size:
        if keep.size < act.size:
            act, b, lo, hi = act[keep], b[keep], lo[keep], hi[keep]
            A = [a[keep] for a in A]
            if C is not None:
                C = [c[keep] for c in C]
        it += 1
        if it > BISECTION_CAP:
            raise BisectionCapError(
                f"bisection exceeded {BISECTION_CAP} iterations for "
                f"{act.size} node(s)", local_indices=act)
        mid = 0.5 * (lo + hi)
        prod, target = _residual(kind, mid, A, C, b, n)
        upper = (1.0 + h) * target
        ok = (prod >= target) & (prod <= upper)
        take = ok | (mid <= lo) | (mid >= hi)
        if take.any():
            sel = np.nonzero(take)[0]
            t[act[sel]] = np.where(ok[sel], mid[sel], hi[sel])
            stats.iters_total += it * sel.size
            stats.iters_max = max(stats.iters_max, it)
            keep = np.nonzero(~take)[0]
        high = prod > upper
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)


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
    """Normalize a constant or a callable f into a callable taking a tuple of
    broadcastable coordinate arrays."""
    if isinstance(f, (int, float)):
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


def _slabs(spec: GridSpec):
    """Yield (i0, i1, x): the i_1-rows [i0, i1), about _SLAB_NODES nodes and
    at least one row, and their sparse-mesh coordinates, in row order."""
    R = spec.m + 1
    rows = max(1, _SLAB_NODES // R ** (spec.n - 1))
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


def _front_rhs(f, spec: GridSpec):
    """f on one front, as a function of the node coordinates x (a tuple of
    1-d arrays), the head rows and the last indices of the nodes."""
    if isinstance(f, GridField):
        F = f.values.reshape(-1, spec.m + 1)
        return lambda x, rows, last: F[rows, last]
    fn = _as_rhs(f)

    def rhs(x, rows, last):
        fd = np.asarray(fn(x), dtype=np.float64)
        return fd if fd.shape == last.shape else np.broadcast_to(fd, last.shape)
    return rhs


# ---------------------------------------------------------------------------
# Residual certificate
# ---------------------------------------------------------------------------

def _violation(product, target, band):
    """Per node, how far the residual product falls outside
    [target, (1+band)*target], relative to target; absolute where
    target == 0; infinite where the product or target is not finite. The
    engine runs it once per front, residual_stats once over a whole field,
    with the same arithmetic staging."""
    out = np.where(target > 0.0,
                   np.maximum(np.maximum(target - product,
                                         product - (1.0 + band) * target), 0.0)
                   / np.where(target > 0.0, target, 1.0),
                   product)
    return np.where(np.isfinite(product) & np.isfinite(target), out, math.inf)


def residual_stats(field: GridField, kind: SchemeKind, f) -> float:
    """Max band-violation of the scheme's residual over the whole field.

    Zero (up to float dust) certifies that every node is either inside the
    (1+h) acceptance band or solved exactly (closed form / degenerate cases);
    any non-finite value, product or target makes it infinite. Evaluated
    over i_1-slabs, each reading its axis-0 neighbors from the row before.
    """
    spec = field.spec
    _check_rhs_spec(f, spec)
    kind = SchemeKind.parse(kind)
    n, h = spec.n, spec.h
    V = field.values
    cs = n * np.arange(spec.m + 1, dtype=np.float64)  # S3 weights n x_i / h
    worst = 0.0
    for i0, i1, x in _slabs(spec):
        F = _slab_rhs(f, spec, i0, i1, x)
        S = V[i0:i1]
        if kind.has_boundary_condition:
            parts = [_violation(np.abs(V[0]), 0.0, h)] if i0 == 0 else []
            lo = max(i0, 1)  # interior rows of the slab
            inner = (slice(lo - i0, None),) + (slice(1, None),) * (n - 1)
            A = [V[lo - 1:i1 - 1][(slice(None),) + inner[1:]]]
            for ax in range(1, n):
                sl = list(inner)
                sl[ax] = slice(None, -1)
                A.append(S[tuple(sl)])
            b = _scaled_rhs(kind, F[inner], h, n)
            parts.append(_violation(*_residual(kind, S[inner], A, None, b, n), h))
            # boundary nodes must hold exactly zero
            for ax in range(1, n):
                sl = [slice(None)] * n
                sl[ax] = 0
                parts.append(_violation(np.abs(S[tuple(sl)]), 0.0, h))
        else:
            a = np.empty_like(S)
            a[0] = V[i0 - 1] if i0 else 0.0
            a[1:] = V[i0:i1 - 1]
            A = [a]
            C = [cs[i0:i1].reshape((-1,) + (1,) * (n - 1))]
            for ax in range(1, n):
                c_shape = [1] * n
                c_shape[ax] = -1
                C.append(cs.reshape(c_shape))
                a = np.zeros_like(S)
                sl_to = [slice(None)] * n
                sl_to[ax] = slice(1, None)
                sl_from = [slice(None)] * n
                sl_from[ax] = slice(None, -1)
                a[tuple(sl_to)] = S[tuple(sl_from)]
                A.append(a)
            parts = [_violation(*_residual(kind, S, A, C, F, n), h)]
        worst = max(worst, *(float(p.max(initial=0.0)) for p in parts))
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

class _Fronts:
    """Heads (i_1, ..., i_{n-1}) sorted by digit sum, stably, so each front
    of equal node digit-sum d is one contiguous run of head positions.

    Front d holds the heads with sum in [max(0, d-m), min(d, (n-1)m)], each
    with last index d - sum(head). The backward neighbor along head axis j
    sits at position back[j], along the last axis at the same position, both
    on front d-1. Where i_j = 0 (or the last index is 0) that position holds
    some finite value of the wrong node: S1/S2 gather inner nodes only, and
    S3 weights it by c_j = n*i_j = 0, so it drops out exactly.
    """

    def __init__(self, spec: GridSpec):
        n, m = self.n, self.m = spec.n, spec.m
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


def _solve_fronts(spec, kind, f, rolling, force_bisection, error_fn):
    """Single pass over the fronts d = 0..n*m. Only front d-1 is kept to
    compute front d; each front is scattered into the full field, or with
    rolling storage only into the final i_1 = m slab. With full storage the
    field holds the rhs until a front overwrites it with its solution."""
    n, m, h = spec.n, spec.m, spec.h
    R = m + 1
    _check_rhs_spec(f, spec)
    fronts = _Fronts(spec)
    xs = spec.axis_coords()
    closed = n == 2 and not force_bisection
    heads = R ** (n - 1)
    prev = np.zeros(heads)  # front d-1, by head position
    # scatter target: the flat field, or its last `heads` entries (i_1 = m)
    offset = m * heads if rolling else 0
    out = np.zeros(R * heads - offset)
    if rolling:
        rhs = _front_rhs(f, spec)
    else:
        field = out.reshape(spec.shape)
        for i0, i1, x in _slabs(spec):
            field[i0:i1] = _slab_rhs(f, spec, i0, i1, x)
    # coordinates per front: the rolling rhs and error, and S3's closed form
    gather = rolling or (closed and kind is SchemeKind.S3)
    stats = _BisectStats()
    cert = 0.0
    linf = 0.0

    for d in range(n * m + 1):
        lo, hi = fronts.span(d)
        hidx = [i[lo:hi] for i in fronts.idx]
        last = d - fronts.sum[lo:hi]
        rows = fronts.row[lo:hi]
        flat = rows * R + last - offset
        x = tuple(xs[i] for i in hidx) + (xs[last],) if gather else None
        fd = rhs(x, rows, last) if rolling else out[flat]
        ok = np.isfinite(fd) & (fd >= 0.0)
        if not ok.all():
            k = int(np.argmin(ok))
            node = fronts.node(lo + k, d)
            raise SolveError(f"invalid right-hand side f={fd[k]} at node {node}",
                             multi_index=node)

        if kind.has_boundary_condition:
            sel = np.nonzero(fronts.inner[lo:hi] & (last >= 1))[0]
            pos = lo + sel
            C = None
            fs = fd[sel]
        else:
            sel = None
            pos = slice(lo, hi)
            C = [(n * i).astype(np.float64) for i in hidx + [last]]
            fs = fd
        A = [prev[b[pos]] for b in fronts.back] + [prev[pos]]

        def node(k):
            """Multi-index of entry k of the update batch."""
            return fronts.node(lo + (k if sel is None else int(sel[k])), d)

        try:
            t = (_closed(kind, A, x, fs, h) if closed
                 else _update_vec(kind, A, C, fs, h, n, stats))
        except BisectionCapError as exc:
            bad = node(int(exc.local_indices[0]))
            raise SolveError(f"{exc} (first at node {bad})",
                             multi_index=bad) from exc
        b = _scaled_rhs(kind, fs, h, n)
        viol = _violation(*_residual(kind, t, A, C, b, n), h)
        worst = float(viol.max(initial=0.0))
        if worst == math.inf:
            bad = node(int(np.argmax(viol)))
            raise SolveError(f"non-finite value, product or target at node {bad}",
                             multi_index=bad)
        cert = max(cert, worst)
        if sel is None:
            vals = t
        else:
            vals = np.zeros(hi - lo)
            vals[sel] = t

        if rolling and error_fn is not None:
            linf = float(np.maximum(linf, np.max(error_fn(vals, x))))
        prev[lo:hi] = vals
        keep = flat >= 0
        out[flat[keep]] = vals[keep]

    if not rolling and error_fn is not None:
        for i0, i1, x in _slabs(spec):
            linf = float(np.maximum(linf, np.max(error_fn(field[i0:i1], x))))
    return out, cert, (linf if error_fn is not None else None), stats


# ---------------------------------------------------------------------------
# Public solve
# ---------------------------------------------------------------------------

def solve(spec: GridSpec, kind, f, *, storage: str = "full",
          force_bisection: bool = False, error_fn=None) -> SolveReport:
    """Solve one scheme over the grid in a single pass.

    f may be a nonnegative constant, a callable on a tuple of broadcastable
    coordinate arrays, or a GridField on the same spec; a negative or
    non-finite value raises SolveError naming the node, as does a node whose
    value, product or target overflows. If error_fn is given, the report
    carries the sup of error_fn(values, coords) over all nodes.

    With storage="full" f is evaluated, and error_fn folded, over i_1-slabs
    of the sparse mesh: the rhs is written into the field before the pass
    and the error is taken after it. With storage="rolling" the field is not
    retained, both are evaluated per front, and the report carries the final
    axis-1 slab. Either way a callable f and error_fn must be elementwise on
    broadcastable coordinate arrays, and the two storages agree bit for bit.
    """
    kind = SchemeKind.parse(kind)
    if storage not in ("full", "rolling"):
        raise ValueError(f"unknown storage mode {storage!r}")
    t0 = time.perf_counter()
    rolling = storage == "rolling"
    out, cert, linf, stats = _solve_fronts(spec, kind, f, rolling,
                                           force_bisection, error_fn)
    wall = time.perf_counter() - t0
    mean = stats.iters_total / stats.nodes if stats.nodes else 0.0
    return SolveReport(spec=spec, kind=kind, storage=storage,
                       field=None if rolling else GridField(spec, out),
                       max_band_violation=cert,
                       bisect_nodes=stats.nodes, bisect_iters_max=stats.iters_max,
                       bisect_iters_mean=mean, wall_time=wall,
                       linf_error=linf, final_slab=out if rolling else None)
