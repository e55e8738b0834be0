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
error below the truncation error of the scheme.

One engine solves the grid. Every backward neighbor of a node with index
digit-sum d has digit-sum d-1, so the fronts d = 0, 1, ..., n*m are solved in
order, each vectorized over its nodes and computed from front d-1 alone. Each
front is checked for a finite nonnegative right-hand side, folded into the
residual certificate and the error, and scattered into the full field or,
with rolling storage, only into the final i_1 = m slab.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import GridField, GridSpec

BISECTION_CAP = 200


class SchemeDomainError(ValueError):
    """Negative right-hand side or neighbor value fed to an update."""


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
        if not self.h > 0.0:
            raise SchemeDomainError(f"h must be positive, got {self.h}")
        if len(self.a) != self.n:
            raise SchemeDomainError(f"expected {self.n} neighbor values, got {len(self.a)}")
        if self.f_x < 0.0:
            raise SchemeDomainError(f"negative right-hand side f={self.f_x}")
        if any(ai < 0.0 for ai in self.a):
            raise SchemeDomainError(f"negative neighbor value in a={self.a}")


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


# ---------------------------------------------------------------------------
# Band bisection (n >= 3, and n = 2 when bisection is forced)
# ---------------------------------------------------------------------------

def _band_bisect(residual, lo, hi, target, band):
    """Vectorized bisection into the band [target, (1+band)*target].

    residual(t, idx) evaluates the (nondecreasing) residual for the subset
    idx of the problem batch. Preconditions: residual(lo) < target and
    residual(hi) >= target, elementwise. The upper endpoint is accepted
    outright when it already lies in the band. Returns (roots, iterations).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    upper = (1.0 + band) * target
    t_out = np.empty_like(lo)
    iters = np.zeros(lo.shape, dtype=np.int64)

    all_idx = np.arange(lo.size)
    r = residual(hi, all_idx)
    done = r <= upper
    t_out[done] = hi[done]
    act = np.nonzero(~done)[0]
    lo = lo[act]
    hi = hi[act]
    tgt = target[act]
    up = upper[act]

    it = 0
    while act.size:
        it += 1
        if it > BISECTION_CAP:
            raise BisectionCapError(
                f"bisection exceeded {BISECTION_CAP} iterations for "
                f"{act.size} node(s)", local_indices=act)
        mid = 0.5 * (lo + hi)
        r = residual(mid, act)
        ok = (r >= tgt) & (r <= up)
        stuck = (mid <= lo) | (mid >= hi)
        take = ok | stuck
        if take.any():
            sel = np.nonzero(take)[0]
            # a stuck interval has collapsed to float resolution; its upper
            # endpoint carries residual >= target and is the best answer
            t_out[act[sel]] = np.where(ok[sel], mid[sel], hi[sel])
            iters[act[sel]] = it
            keep = ~take
            act = act[keep]
            lo = lo[keep]
            hi = hi[keep]
            mid = mid[keep]
            r = r[keep]
            tgt = tgt[keep]
            up = up[keep]
        high = r > up
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return t_out, iters


def bisect_max_root(residual: Callable[[float], float], interval, target: float,
                    band: float) -> float:
    """Largest-root band search for one monotone scalar residual.

    Finds t in `interval` = (lo, hi) with residual(t) in
    [target, (1+band)*target]. Requires residual(hi) >= target and residual
    nondecreasing on the interval.
    """
    lo, hi = interval
    if hi < lo:
        raise ValueError(f"invalid interval: hi={hi} < lo={lo}")
    if target < 0.0:
        raise ValueError(f"target must be nonnegative, got {target}")
    if residual(hi) < target:
        raise ValueError("invalid interval: residual at hi is below the target band")

    def vec_res(t, idx):
        return np.asarray([residual(float(t[0]))])

    t, _ = _band_bisect(vec_res, np.array([lo]), np.array([hi]),
                        np.array([target]), band)
    return float(t[0])


# ---------------------------------------------------------------------------
# Vectorized node updates.  A is the list of n backward-neighbor arrays in
# axis order; C (S3 only) the per-axis arrays c_i = n*x_i/h.  Scalar updates
# run the very same code on length-1 arrays.
# ---------------------------------------------------------------------------

class _BisectStats:
    __slots__ = ("nodes", "iters_total", "iters_max")

    def __init__(self):
        self.nodes = 0
        self.iters_total = 0
        self.iters_max = 0

    def add(self, iters: np.ndarray) -> None:
        self.nodes += iters.size
        self.iters_total += int(iters.sum())
        self.iters_max = max(self.iters_max, int(iters.max(initial=0)))


def _pow_int(base: float, exponent: int) -> float:
    out = base
    for _ in range(exponent - 1):
        out = out * base
    return out


def _run_bisect(res, lo, hi, target, band, nz):
    """_band_bisect with cap diagnostics remapped from the bisected subset
    back to the caller's batch indices."""
    try:
        return _band_bisect(res, lo, hi, target, band)
    except BisectionCapError as exc:
        exc.local_indices = nz[exc.local_indices]
        raise


def _maxa(A: Sequence[np.ndarray]) -> np.ndarray:
    out = A[0].copy()
    for a in A[1:]:
        np.maximum(out, a, out=out)
    return out


def _update_s1_vec(A, f, h, n, stats: _BisectStats) -> np.ndarray:
    B = _pow_int(h, n) * f
    t = _maxa(A)
    nz = np.nonzero(B > 0.0)[0]
    if nz.size:
        Az = [a[nz] for a in A]

        def res(tt, idx):
            aa = [a[idx] for a in Az]
            r = np.maximum(tt - aa[0], 0.0)
            for j in range(1, n):
                r = r * np.maximum(tt - aa[j], 0.0)
            return r

        lo = t[nz]
        hi = lo + h * np.power(f[nz], 1.0 / n)
        roots, iters = _run_bisect(res, lo, hi, B[nz], h, nz)
        t[nz] = roots
        stats.add(iters)
    return t


def _update_s2_vec(A, f, h, n, stats: _BisectStats) -> np.ndarray:
    b = _pow_int(h, n) * f
    maxa = _maxa(A)
    t = maxa.copy()
    pos = b > 0.0
    corner = pos & (maxa <= 0.0)
    t[corner] = b[corner]  # all a_i = 0: t^n = b t^(n-1)
    nz = np.nonzero(pos & (maxa > 0.0))[0]
    if nz.size:
        Az = [a[nz] for a in A]

        def res(tt, idx):
            # G(t) = prod (t - a_i)_+ / t^(n-1), strictly increasing past max a
            aa = [a[idx] for a in Az]
            r = np.maximum(tt - aa[0], 0.0)
            for j in range(1, n):
                r = r * np.maximum(tt - aa[j], 0.0)
            den = tt
            for _ in range(n - 2):
                den = den * tt
            return r / den

        lo = maxa[nz]
        hi = Az[0].copy()
        for a in Az[1:]:
            hi = hi + a
        hi = hi + b[nz]  # S(a, b) <= sum a_i + b
        roots, iters = _run_bisect(res, lo, hi, b[nz], h, nz)
        t[nz] = roots
        stats.add(iters)
    return t


def _update_s3_vec(A, C, f, h, n, stats: _BisectStats) -> np.ndarray:
    sigma = C[0] * A[0] / (1.0 + C[0])
    for j in range(1, n):
        np.maximum(sigma, C[j] * A[j] / (1.0 + C[j]), out=sigma)
    t = sigma.copy()
    nz = np.nonzero(f > 0.0)[0]
    if nz.size:
        Az = [a[nz] for a in A]
        Cz = [c[nz] for c in C]

        def res(tt, idx):
            aa = [a[idx] for a in Az]
            cc = [c[idx] for c in Cz]
            r = np.maximum((1.0 + cc[0]) * tt - cc[0] * aa[0], 0.0)
            for j in range(1, n):
                r = r * np.maximum((1.0 + cc[j]) * tt - cc[j] * aa[j], 0.0)
            return r

        prodc = 1.0 + Cz[0]
        for c in Cz[1:]:
            prodc = prodc * (1.0 + c)
        lo = sigma[nz]
        hi = lo + np.power(f[nz] / prodc, 1.0 / n)
        roots, iters = _run_bisect(res, lo, hi, f[nz], h, nz)
        t[nz] = roots
        stats.add(iters)
    return t


# ---------------------------------------------------------------------------
# Scalar updates (public operations)
# ---------------------------------------------------------------------------

def _scalar_via_vec(kind: SchemeKind, inp: UpdateInputs, cs=None) -> float:
    A = [np.array([ai], dtype=np.float64) for ai in inp.a]
    f = np.array([inp.f_x], dtype=np.float64)
    stats = _BisectStats()
    if kind is SchemeKind.S1:
        t = _update_s1_vec(A, f, inp.h, inp.n, stats)
    elif kind is SchemeKind.S2:
        t = _update_s2_vec(A, f, inp.h, inp.n, stats)
    else:
        if cs is None:
            cs = [inp.n * xi / inp.h for xi in inp.x]
        C = [np.array([c], dtype=np.float64) for c in cs]
        t = _update_s3_vec(A, C, f, inp.h, inp.n, stats)
    return float(t[0])


def s1_update(inp: UpdateInputs, method: str = "auto") -> float:
    """Largest t with prod (t - a_i)_+ = h^n f. Closed form in n=2."""
    inp.validate()
    if method == "auto":
        method = "closed" if inp.n == 2 else "bisect"
    if method == "closed":
        if inp.n != 2:
            raise ValueError("closed form only available in n=2")
        return float(_s1_closed(inp.a[0], inp.a[1], inp.h, inp.f_x))
    return _scalar_via_vec(SchemeKind.S1, inp)


def s2_update(inp: UpdateInputs, method: str = "auto") -> float:
    """Maximal root of prod (t - a_i)_+ = (h^n f) t^(n-1). Closed form in n=2."""
    inp.validate()
    if method == "auto":
        method = "closed" if inp.n == 2 else "bisect"
    if method == "closed":
        if inp.n != 2:
            raise ValueError("closed form only available in n=2")
        return float(_s2_closed(inp.a[0], inp.a[1], inp.h, inp.f_x))
    return _scalar_via_vec(SchemeKind.S2, inp)


def s3_update(inp: UpdateInputs, method: str = "auto") -> float:
    """Largest t with prod ((1+c_i) t - c_i a_i)_+ = f, c_i = n x_i / h.

    Factors with x_i = 0 collapse to t alone; at the origin the update is
    exactly f^(1/n).
    """
    inp.validate()
    if len(inp.x) != inp.n:
        raise SchemeDomainError(f"expected {inp.n} coordinates, got {len(inp.x)}")
    if any(xi < 0.0 for xi in inp.x):
        raise SchemeDomainError(f"negative coordinate in x={inp.x}")
    if method == "auto":
        method = "closed" if inp.n == 2 else "bisect"
    if method == "closed":
        if inp.n != 2:
            raise ValueError("closed form only available in n=2")
        return float(_s3_closed(inp.x[0], inp.x[1], inp.a[0], inp.a[1],
                                inp.h, inp.f_x))
    return _scalar_via_vec(SchemeKind.S3, inp)


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


def _eval_rhs_full(f, spec: GridSpec) -> np.ndarray:
    _check_rhs_spec(f, spec)
    if isinstance(f, GridField):
        return f.values
    F = np.asarray(_as_rhs(f)(spec.mesh()), dtype=np.float64)
    return np.broadcast_to(F, spec.shape)


def _front_rhs(f, spec: GridSpec):
    """f on one front, as a function of the node coordinates x (a tuple of
    1-d arrays), the head rows and the last indices of the nodes."""
    _check_rhs_spec(f, spec)
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
    """How far the residual product falls outside [target, (1+band)*target],
    relative to target; absolute where target == 0. Infinite as soon as a
    product or target is not finite."""
    if not (np.isfinite(product).all() and np.isfinite(target).all()):
        return math.inf
    out = np.where(target > 0.0,
                   np.maximum(np.maximum(target - product,
                                         product - (1.0 + band) * target), 0.0)
                   / np.where(target > 0.0, target, 1.0),
                   product)
    return float(np.max(out, initial=0.0))


def _band_violation(kind, t, A, C, f, h, n):
    """Band violation of the scheme residual at nodes t, given the backward
    neighbors A (axis order), the S3 weights C = n*i and the rhs f. The
    engine runs it once per front, residual_stats once over a whole field,
    with the same arithmetic staging."""
    prod = None
    if kind is SchemeKind.S3:
        for a, c in zip(A, C):
            fac = np.maximum((1.0 + c) * t - c * a, 0.0)
            prod = fac if prod is None else prod * fac
        return _violation(prod, f, h)
    for a in A:
        fac = np.maximum(t - a, 0.0)
        prod = fac if prod is None else prod * fac
    target = _pow_int(h, n) * f
    if kind is SchemeKind.S2:
        den = t
        for _ in range(n - 2):
            den = den * t
        target = target * den
    return _violation(prod, target, h)


def residual_stats(field: GridField, kind: SchemeKind, f) -> float:
    """Max band-violation of the scheme's residual over the whole field.

    Zero (up to float dust) certifies that every node is either inside the
    (1+h) acceptance band or solved exactly (closed form / degenerate cases);
    any non-finite value, product or target makes it infinite.
    """
    spec = field.spec
    kind = SchemeKind.parse(kind)
    n, h = spec.n, spec.h
    V = field.values
    F = _eval_rhs_full(f, spec)
    if kind.has_boundary_condition:
        inner = tuple([slice(1, None)] * n)
        A = []
        for ax in range(n):
            sl = [slice(1, None)] * n
            sl[ax] = slice(None, -1)
            A.append(V[tuple(sl)])
        viol = _band_violation(kind, V[inner], A, None, F[inner], h, n)
        # boundary nodes must hold exactly zero
        for ax in range(n):
            sl = [slice(None)] * n
            sl[ax] = 0
            viol = max(viol, _violation(np.abs(V[tuple(sl)]), 0.0, h))
        return viol
    A = []
    C = []
    for ax in range(n):
        c_shape = [1] * n
        c_shape[ax] = spec.m + 1
        C.append((n * np.arange(spec.m + 1, dtype=np.float64)).reshape(c_shape))
        a = np.zeros_like(V)
        sl_to = [slice(None)] * n
        sl_to[ax] = slice(1, None)
        sl_from = [slice(None)] * n
        sl_from[ax] = slice(None, -1)
        a[tuple(sl_to)] = V[tuple(sl_from)]
        A.append(a)
    return _band_violation(kind, V, A, C, F, h, n)


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
    sits at position back[j] (the head itself where i_j = 0; callers mask
    those), along the last axis at the same position, both on front d-1.
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


def _front_update(kind, closed, A, C, x, f, h, n, stats):
    if closed:
        if kind is SchemeKind.S1:
            return _s1_closed(A[0], A[1], h, f)
        if kind is SchemeKind.S2:
            return _s2_closed(A[0], A[1], h, f)
        return _s3_closed(x[0], x[1], A[0], A[1], h, f)
    if kind is SchemeKind.S1:
        return _update_s1_vec(A, f, h, n, stats)
    if kind is SchemeKind.S2:
        return _update_s2_vec(A, f, h, n, stats)
    return _update_s3_vec(A, C, f, h, n, stats)


def _solve_fronts(spec, kind, f, rolling, force_bisection, error_fn):
    """Single pass over the fronts d = 0..n*m. Only front d-1 is kept to
    compute front d; each front is scattered into the full field, or with
    rolling storage only into the final i_1 = m slab."""
    n, m, h = spec.n, spec.m, spec.h
    R = m + 1
    fronts = _Fronts(spec)
    xs = spec.axis_coords()
    rhs = _front_rhs(f, spec)
    closed = n == 2 and not force_bisection
    heads = R ** (n - 1)
    prev = np.zeros(heads)  # front d-1, by head position
    # scatter target: the flat field, or its last `heads` entries (i_1 = m)
    offset = m * heads if rolling else 0
    out = np.zeros(R * heads - offset)
    stats = _BisectStats()
    cert = 0.0
    linf = 0.0

    for d in range(n * m + 1):
        lo, hi = fronts.span(d)
        hidx = [i[lo:hi] for i in fronts.idx]
        last = d - fronts.sum[lo:hi]
        rows = fronts.row[lo:hi]
        x = tuple(xs[i] for i in hidx) + (xs[last],)
        fd = rhs(x, rows, last)
        ok = np.isfinite(fd) & (fd >= 0.0)
        if not ok.all():
            k = int(np.argmin(ok))
            node = fronts.node(lo + k, d)
            raise SolveError(f"invalid right-hand side f={fd[k]} at node {node}",
                             multi_index=node)

        if kind.has_boundary_condition:
            sel = np.nonzero(fronts.inner[lo:hi] & (last >= 1))[0]
            pos = lo + sel
            A = [prev[b[pos]] for b in fronts.back] + [prev[pos]]
            C = None
            fs = fd[sel]
        else:
            sel = None
            A = [np.where(i >= 1, prev[b[lo:hi]], 0.0)
                 for i, b in zip(hidx, fronts.back)]
            A.append(np.where(last >= 1, prev[lo:hi], 0.0))
            C = [(n * i).astype(np.float64) for i in hidx + [last]]
            fs = fd
        try:
            t = _front_update(kind, closed, A, C, x, fs, h, n, stats)
        except BisectionCapError as exc:
            k = int(exc.local_indices[0])
            node = fronts.node(lo + (k if sel is None else int(sel[k])), d)
            raise SolveError(f"{exc} (first at node {node})",
                             multi_index=node) from exc
        cert = max(cert, _band_violation(kind, t, A, C, fs, h, n))
        if sel is None:
            vals = t
        else:
            vals = np.zeros(hi - lo)
            vals[sel] = t

        if error_fn is not None:
            linf = float(np.maximum(linf, np.max(error_fn(vals, x))))
        prev[lo:hi] = vals
        flat = rows * R + last - offset
        keep = flat >= 0
        out[flat[keep]] = vals[keep]

    return out, cert, (linf if error_fn is not None else None), stats


# ---------------------------------------------------------------------------
# Public solve
# ---------------------------------------------------------------------------

def solve(spec: GridSpec, kind, f, *, storage: str = "full",
          force_bisection: bool = False, error_fn=None) -> SolveReport:
    """Solve one scheme over the grid in a single pass.

    f may be a nonnegative constant, a callable on a tuple of broadcastable
    coordinate arrays, or a GridField on the same spec; a negative or
    non-finite value raises SolveError naming the node. With
    storage="rolling" the field is not retained; the report then carries the
    final axis-1 slab. If error_fn is given, the report carries the running
    sup of error_fn(values, coords) over all nodes.
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
