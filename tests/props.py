"""Shared oracles and randomized property checks, used by both the unit
tests and the acceptance suite (which runs them at the full sample counts)."""

import math

import numpy as np

from hjsolve.grid import GridField
from hjsolve.schemes import (SchemeKind, UpdateInputs, _update, s1_update,
                             s2_update, s3_update)


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


def node_update(spec, kind, W, F, mi, method="auto"):
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
    return _update(kind, inp, method, cs)


def rhs_values(spec, f) -> np.ndarray:
    if isinstance(f, GridField):
        return f.values
    return np.broadcast_to(np.asarray(f(spec.mesh()), dtype=np.float64),
                           spec.shape)


def oracle_solve(spec, kind, f, force_bisection=False) -> np.ndarray:
    """Scalar reference solve: every node in lexicographic order through the
    scalar update of its scheme, which is the bitwise reference for the
    vectorized engine. S1/S2 keep zeros on the boundary faces."""
    kind = SchemeKind.parse(kind)
    F = rhs_values(spec, f)
    method = "bisect" if force_bisection else "auto"
    W = np.zeros(spec.shape)
    for mi in np.ndindex(spec.shape):
        if kind.has_boundary_condition and min(mi) == 0:
            continue
        W[mi] = node_update(spec, kind, W, F, mi, method)
    return W


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
