"""Shared oracles and randomized property checks, used by both the unit
tests and the acceptance suite (which runs them at the full sample counts)."""

import math

import numpy as np

from hjsolve.grid import GridField
from hjsolve.schemes import (SchemeKind, UpdateInputs, _residual,
                             _s3_pairs, _scaled_rhs, _update, _violation,
                             s1_update, s2_update, s3_update)


def oracle_root(g, lo, hi, iters=200):
    """Largest root of g (negative below the root, positive above) located
    by 200 plain bisections; exact at double precision."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def oracle_s1(a, h, f):
    n = len(a)
    b = h ** n * f
    if b == 0.0:
        return max(a)
    lo = max(a)
    hi = lo + b ** (1.0 / n) + 1e-9

    def g(t):
        p = 1.0
        for ai in a:
            p *= max(t - ai, 0.0)
        return p - b

    return oracle_root(g, lo, hi)


def oracle_s2(a, h, f):
    n = len(a)
    b = h ** n * f
    if b == 0.0:
        return max(a)
    lo = max(a)
    hi = sum(a) + b + 1e-9

    def g(t):
        p = 1.0
        for ai in a:
            p *= max(t - ai, 0.0)
        return p - b * t ** (n - 1)

    return oracle_root(g, lo, hi)


def oracle_s3(x, a, h, f):
    n = len(a)
    c = [n * xi / h for xi in x]
    sigma = max(ci * ai / (1.0 + ci) for ci, ai in zip(c, a))
    if f == 0.0:
        return sigma
    width = (f / math.prod(1.0 + ci for ci in c)) ** (1.0 / n)
    lo, hi = sigma, sigma + width + 1e-12

    def g(t):
        p = 1.0
        for ci, ai in zip(c, a):
            p *= max((1.0 + ci) * t - ci * ai, 0.0)
        return p - f

    return oracle_root(g, lo, hi)


def node_update(spec, kind, W, F, mi):
    """Scalar update of node mi from its backward neighbors in W, as the
    engine computes it: S3 gets the exact weights c_i = n*i_i rather than
    n*x_i/h."""
    n = spec.n
    xs = spec.axis_coords()
    a = tuple(W[mi[:ax] + (mi[ax] - 1,) + mi[ax + 1:]] if mi[ax] >= 1 else 0.0
              for ax in range(n))
    inp = UpdateInputs(n=n, h=spec.h, x=tuple(xs[i] for i in mi),
                       f_x=float(F[mi]), a=a)
    cs = [float(n * i) for i in mi] if kind is SchemeKind.S3 else None
    return _update(kind, inp, "auto", cs)


def rhs_values(spec, f) -> np.ndarray:
    if isinstance(f, GridField):
        return f.values
    return np.broadcast_to(np.asarray(f(spec.mesh()), dtype=np.float64),
                           spec.shape)


def oracle_solve(spec, kind, f) -> np.ndarray:
    """Scalar reference solve: every node in lexicographic order through the
    scalar update of its scheme, which is the bitwise reference for the
    vectorized engine. S1/S2 keep zeros on the boundary faces."""
    kind = SchemeKind.parse(kind)
    F = rhs_values(spec, f)
    W = np.zeros(spec.shape)
    for mi in np.ndindex(spec.shape):
        if kind.has_boundary_condition and min(mi) == 0:
            continue
        W[mi] = node_update(spec, kind, W, F, mi)
    return W


def same_report(full, roll):
    """A rolling solve's report equals the full-storage one, bit for bit:
    final slab, u-scale error, certificate and bisection counters."""
    assert np.array_equal(roll.final_slab, full.field.values[-1].reshape(-1))
    assert roll.linf_error == full.linf_error
    assert roll.max_band_violation == full.max_band_violation
    assert (roll.bisect_nodes, roll.bisect_iters_max, roll.bisect_iters_mean) == \
        (full.bisect_nodes, full.bisect_iters_max, full.bisect_iters_mean)


def _vector_root(x, n):
    """x ** (1/n) rounded as NumPy's vectorized power rounds it, which can
    differ from Python's ** in the last bit."""
    return float(np.power(np.array([x]), 1.0 / n)[0])


def band_update_scalar(kind, a, c, f, h, n, limit=10_000):
    """Pure-Python reference for one node of the band bisection
    (schemes._update_vec and _band_root), one float at a time.

    Returns (t, iters): iters is None when the node is not bisected (f = 0,
    or S2 with all a_i = 0, whose root is b), 0 when the upper bracket is
    already in the band, and otherwise the bisection at which the node
    finished. The rules: bracket [lo, hi] with lo the largest zero of the
    factors; accept hi first; stop at the first midpoint whose product lies
    in [target, (1+h)*target]; on a collapsed interval (the midpoint rounds
    onto an endpoint) take hi; move hi down where the product is above the
    band and lo up otherwise. No iteration cap applies.
    """
    kind = SchemeKind.parse(kind)
    s3 = kind is SchemeKind.S3
    if s3:
        b = f
        lo = max(cj * aj / (1.0 + cj) for aj, cj in zip(a, c))
    else:
        b = h
        for _ in range(n - 1):
            b = b * h
        b = b * f
        lo = max(a)
    if not b > 0.0:
        return lo, None
    if kind is SchemeKind.S2 and lo <= 0.0:
        return b, None
    if kind is SchemeKind.S1:
        hi = lo + h * _vector_root(f, n)
    elif kind is SchemeKind.S2:
        hi = a[0]
        for aj in a[1:]:
            hi = hi + aj
        hi = hi + b
    else:
        q = 1.0
        for cj in c:
            q = q * (1.0 + cj)
        hi = lo + _vector_root(f / q, n)

    def residual(t):
        prod = None
        for j, aj in enumerate(a):
            fac = max((1.0 + c[j]) * t - c[j] * aj if s3 else t - aj, 0.0)
            prod = fac if prod is None else prod * fac
        if kind is SchemeKind.S2:
            den = t
            for _ in range(n - 2):
                den = den * t
            return prod, b * den
        return prod, b

    prod, target = residual(hi)
    if prod <= (1.0 + h) * target:
        return hi, 0
    for it in range(1, limit + 1):
        mid = 0.5 * (lo + hi)
        prod, target = residual(mid)
        upper = (1.0 + h) * target
        ok = target <= prod <= upper
        if ok or mid <= lo or mid >= hi:
            return (mid if ok else hi), it
        if prod > upper:
            hi = mid
        else:
            lo = mid
    raise RuntimeError(f"no band root within {limit} bisections")


def oracle_band_solve(spec, kind, f):
    """Scalar reference solve through band_update_scalar at every node, in
    lexicographic order, with the engine's S3 weights c_i = n*i_i. Returns
    the field and the engine's bisection counters: nodes bisected, largest
    and mean bisection count."""
    kind = SchemeKind.parse(kind)
    n = spec.n
    F = rhs_values(spec, f)
    W = np.zeros(spec.shape)
    iters = []
    for mi in np.ndindex(spec.shape):
        if kind.has_boundary_condition and min(mi) == 0:
            continue
        a = tuple(float(W[mi[:ax] + (mi[ax] - 1,) + mi[ax + 1:]])
                  if mi[ax] >= 1 else 0.0 for ax in range(n))
        c = [float(n * i) for i in mi]
        W[mi], it = band_update_scalar(kind, a, c, float(F[mi]), spec.h, n)
        if it is not None:
            iters.append(it)
    mean = sum(iters) / len(iters) if iters else 0.0
    return W, len(iters), max(iters, default=0), mean


def residual_stats_whole_field(field: GridField, kind, f) -> float:
    """Reference for schemes.residual_stats: the same band violation,
    evaluated on whole-grid arrays at once (rhs, shifted neighbors and
    weights all field-sized) instead of over i_1-slabs."""
    spec = field.spec
    kind = SchemeKind.parse(kind)
    n, h = spec.n, spec.h
    V = field.values
    F = rhs_values(spec, f)
    if kind.has_boundary_condition:
        inner = tuple([slice(1, None)] * n)
        A = []
        for ax in range(n):
            sl = [slice(1, None)] * n
            sl[ax] = slice(None, -1)
            A.append(V[tuple(sl)])
        b = _scaled_rhs(kind, F[inner], h, n)
        parts = [_violation(*_residual(kind, V[inner], A, None, b, n), h)]
        for ax in range(n):
            sl = [slice(None)] * n
            sl[ax] = 0
            parts.append(_violation(np.abs(V[tuple(sl)]), 0.0, h))
    else:
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
        A, C = _s3_pairs(A, C)  # _residual's S3 factors: c_i a_i and 1 + c_i
        parts = [_violation(*_residual(kind, V, A, C, F, n), h)]
    return max(float(p.max(initial=0.0)) for p in parts)


def field_csv_per_cell(path, field: GridField) -> None:
    """Reference CSV writer for GridField.save_csv: one node per row in
    lexicographic order, one f-string per cell."""
    xs = field.spec.axis_coords()
    with open(path, "w") as fh:
        for mi in np.ndindex(field.spec.shape):
            row = [f"{xs[i]:.17g}" for i in mi]
            row.append(f"{field.values[mi]:.17g}")
            fh.write(",".join(row) + "\n")


def make_inp(n, h, f, a, x=None):
    if x is None:
        x = (0.5,) * n
    return UpdateInputs(n=n, h=h, x=tuple(x), f_x=f, a=tuple(a))


def random_update_inputs(rng, count, n_fixed=None):
    """Mixed-regime update inputs: varying n, magnitudes, sprinkled zeros."""
    out = []
    for _ in range(count):
        n = n_fixed if n_fixed is not None else int(rng.integers(2, 6))
        h = float(10.0 ** rng.uniform(-3, -0.5))
        a = rng.uniform(0.0, 2.0, size=n)
        a[rng.random(n) < 0.15] = 0.0
        f = float(10.0 ** rng.uniform(-4, 1.0))
        if rng.random() < 0.1:
            f = 0.0
        x = rng.uniform(0.0, 1.0, size=n)
        x[rng.random(n) < 0.15] = 0.0
        out.append((n, h, tuple(a), f, tuple(x)))
    return out


def check_lower_bound(inputs):
    for n, h, a, f, x in inputs:
        for update in (s1_update, s2_update, s3_update):
            t = update(make_inp(n, h, f, a, x=x))
            if update is s3_update:
                cs = [n * xi / h for xi in x]
                floor = max(c * ai / (1.0 + c) for c, ai in zip(cs, a))
            else:
                floor = max(a)
            assert t >= floor - 1e-13 * max(1.0, floor)
            if f > 0.0 and update is not s3_update:
                assert t > floor


def check_s2_sum_bound(inputs):
    for n, h, a, f, x in inputs:
        t = s2_update(make_inp(n, h, f, a))
        bound = sum(a) + h ** n * f
        assert t <= bound * (1.0 + h) + 1e-12


def check_monotonicity(inputs, rng):
    for n, h, a, f, x in inputs:
        bump = float(rng.uniform(0.01, 0.5))
        which = int(rng.integers(0, n + 1))
        if which == n:
            a2, f2 = a, f + bump
        else:
            a2 = tuple(ai + (bump if i == which else 0.0) for i, ai in enumerate(a))
            f2 = f
        for update in (s1_update, s2_update, s3_update):
            t = update(make_inp(n, h, f, a, x=x))
            t2 = update(make_inp(n, h, f2, a2, x=x))
            assert t2 >= t / (1.0 + h) - 1e-12


def check_closed_vs_bisection(inputs):
    for n, h, a, f, x in inputs:
        if n != 2:
            continue
        for update in (s1_update, s2_update, s3_update):
            tc = update(make_inp(2, h, f, a[:2], x=x[:2]), method="closed")
            tb = update(make_inp(2, h, f, a[:2], x=x[:2]), method="bisect")
            assert tb >= tc - 1e-12 * max(1.0, tc)
            assert tb <= tc * (1.0 + h) + 1e-12


def peel_bruteforce(points: np.ndarray) -> np.ndarray:
    """Literal peeling oracle: repeatedly remove coordinatewise minimal
    elements, using a full pairwise domination matrix."""
    N = len(points)
    le_all = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    lt_any = np.any(points[:, None, :] < points[None, :, :], axis=2)
    dominates = le_all & lt_any  # dominates[j, i]: j dominates i
    labels = np.zeros(N, dtype=np.int64)
    remaining = np.ones(N, dtype=bool)
    k = 0
    while remaining.any():
        k += 1
        dominated = np.any(dominates[remaining][:, remaining], axis=0)
        idx = np.nonzero(remaining)[0]
        front = idx[~dominated]
        labels[front] = k
        remaining[front] = False
    return labels


def agreement_pairs(fronts: np.ndarray, ranks: np.ndarray) -> float:
    """Literal agreement oracle: every pair compared at once, in row blocks
    of about 4 MiB of booleans. A pair counts when its fronts differ, and
    agrees when its ranks are ordered the same way, strictly."""
    fronts = np.asarray(fronts)
    ranks = np.asarray(ranks, dtype=np.float64)
    N = len(fronts)
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
    return match / total
