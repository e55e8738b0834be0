"""Acceptance suite: the eight gate criteria, each printing one PASS/FAIL
line. Solved rows are shared through the session cache, so the heavy meshes
(n=2 m=2560, n=3 m=160) are paid for once."""

import contextlib
import math

import numpy as np
import pytest

from hjsolve.convergence import u_field
from hjsolve.grid import GridSpec
from hjsolve.pareto import (PointCloud, _fronts_2d, _fronts_3d, _fronts_generic,
                            pareto_fronts, pde_rank, rank_agreement)
from hjsolve.schemes import solve
from hjsolve.testcases import make_case

from conftest import ACCEPTANCE_LINES
from props import (check_closed_vs_bisection, check_lower_bound,
                   check_monotonicity, check_s2_sum_bound, peel_bruteforce,
                   random_update_inputs)


def _log(criterion, status, detail=""):
    line = f"acceptance criterion {criterion}: {status}"
    if detail:
        line += f" - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@contextlib.contextmanager
def criterion(number, detail=""):
    try:
        yield
    except BaseException:
        _log(number, "FAIL", detail)
        raise
    _log(number, "PASS", detail)


def _assert_errors(got, expected, rel):
    for g, e in zip(got, expected):
        assert abs(g - e) <= rel * e, f"error {g:.4e} vs table {e:.1e} ({rel:.0%})"


def _orders(errors, ms):
    return [math.log(errors[i] / errors[i + 1]) / math.log(ms[i + 1] / ms[i])
            for i in range(len(errors) - 1)]


def _assert_orders(got, expected, tol):
    for g, e in zip(got, expected):
        assert abs(g - e) <= tol, f"order {g:.3f} vs table {e:.2f} (+/-{tol})"


MS_N2 = (40, 160, 640, 2560)

REF_F2_N2 = {  # errors (4 rows) and orders (3 chained) per scheme
    "s1": ([9.5e-2, 4.6e-2, 2.3e-2, 1.1e-2], [0.53, 0.50, 0.50]),
    "s2": ([2.4e-2, 6.1e-3, 1.6e-3, 4.1e-4], [0.99, 0.97, 0.98]),
    "s3": ([2.4e-2, 5.9e-3, 1.4e-3, 3.5e-4], [1.01, 1.02, 1.02]),
}

REF_F1_N2_ORDERS = {"s1": 0.5, "s2": (0.93, 0.97, 0.98), "s3": 0.5}

REF_F3_N2 = {
    "s1": ([8.3e-2, 4.2e-2, 2.1e-2, 1.1e-2], [0.50, 0.50, 0.50]),
    "s2": ([7.5e-2, 1.9e-2, 4.7e-3, 1.2e-3], [1.00, 1.00, 1.00]),
    "s3": ([3.1e-2, 8.0e-3, 2.0e-3, 5.0e-4], [1.00, 1.00, 1.00]),
}

MS_N3 = (20, 40, 80, 160)

REF_F2_N3 = {
    "s1": ([3.6e-1, 2.8e-1, 2.2e-1, 1.7e-1], [0.39, 0.36, 0.35]),
    "s2": ([6.6e-2, 4.8e-2, 2.4e-2, 1.2e-2], [0.46, 1.02, 0.94]),
    "s3": ([5.6e-2, 4.0e-2, 2.0e-2, 1.0e-2], [0.48, 1.01, 0.96]),
}

REF_F3_N3 = {
    "s1": ([3.0e-1, 2.5e-1, 2.0e-1, 1.6e-1], [0.31, 0.32, 0.33]),
    "s2": ([2.6e-1, 1.3e-1, 6.7e-2, 3.3e-2], [0.96, 0.99, 0.99]),
    "s3": ([1.3e-1, 6.8e-2, 3.5e-2, 1.8e-2], [0.95, 0.97, 0.98]),
}

MS_N4 = (4, 8, 16)

REF_F1_N4 = {
    "s1": ([1.1e0, 7.9e-1, 6.0e-1], [0.46, 0.40]),
    "s2": ([3.8e-1, 2.4e-1, 1.5e-1], [0.68, 0.64]),
    "s3": ([4.9e-1, 4.1e-1, 3.5e-1], [0.26, 0.25]),
}


def test_criterion_1_table_f2_n2(cache):
    with criterion(1, "f2 n=2 errors within 5%, orders within 0.05"):
        for scheme, (errs, orders) in REF_F2_N2.items():
            got = cache.errors("f2", 2, MS_N2, scheme)
            _assert_errors(got, errs, 0.05)
            _assert_orders(_orders(got, MS_N2), orders, 0.05)


def test_criterion_2_table_f1_n2(cache):
    with criterion(2, "f1 n=2 order columns"):
        for scheme, expected in REF_F1_N2_ORDERS.items():
            got = _orders(cache.errors("f1", 2, MS_N2, scheme), MS_N2)
            if isinstance(expected, tuple):
                _assert_orders(got, expected, 0.05)
            else:
                _assert_orders(got, [expected] * len(got), 0.05)


def test_criterion_3_table_f3_n2(cache):
    with criterion(3, "f3 n=2 errors within 5%, orders within 0.05"):
        for scheme, (errs, orders) in REF_F3_N2.items():
            got = cache.errors("f3", 2, MS_N2, scheme)
            _assert_errors(got, errs, 0.05)
            _assert_orders(_orders(got, MS_N2), orders, 0.05)


def test_criterion_4_higher_dimensions(cache):
    with criterion(4, "f2/f3 n=3 rows 1-4 and f1 n=4 rows 1-3, "
                      "10% errors, 0.1 orders"):
        for case_name, table in (("f2", REF_F2_N3), ("f3", REF_F3_N3)):
            for scheme, (errs, orders) in table.items():
                got = cache.errors(case_name, 3, MS_N3, scheme)
                _assert_errors(got, errs, 0.10)
                _assert_orders(_orders(got, MS_N3), orders, 0.10)
        for scheme, (errs, orders) in REF_F1_N4.items():
            got = cache.errors("f1", 4, MS_N4, scheme)
            _assert_errors(got, errs, 0.10)
            _assert_orders(_orders(got, MS_N4), orders, 0.10)


def test_criterion_5_constant_exactness():
    with criterion(5, "constant f: S2 = c*x1...xn, S3 = c^(1/n); exact in "
                      "n=2, banded in n>=3"):
        for c in (0.5, 1.0, 2.0):
            for n, m in ((2, 40), (3, 10), (4, 6)):
                spec = GridSpec(n, m)
                h = spec.h
                prod = np.ones(spec.shape)
                for x in spec.mesh():
                    prod = prod * x
                v = solve(spec, "s2", c).field.values
                w = solve(spec, "s3", c).field.values
                root = c ** (1.0 / n)
                if n == 2:
                    assert np.max(np.abs(v - c * prod)) <= 1e-12
                    assert np.max(np.abs(w - root)) <= 1e-12
                else:
                    assert np.all(v >= c * prod - 1e-12)
                    assert np.all(v <= c * prod * (1.0 + h) + 1e-12)
                    assert np.all(w >= root - 1e-12)
                    assert np.all(w <= root * (1.0 + h) ** (1.0 / n) + 1e-12)


def test_criterion_6_property_suites(cache):
    with criterion(6, "randomized update properties (10^4), sandwich and "
                      "comparison bounds, closed-vs-bisection, Lipschitz"):
        rng = np.random.default_rng(616)
        inputs = random_update_inputs(rng, 10_000)
        check_lower_bound(inputs)
        check_s2_sum_bound(inputs)
        check_monotonicity(inputs[:2000], np.random.default_rng(617))
        inputs_2d = random_update_inputs(np.random.default_rng(618), 10_000,
                                         n_fixed=2)
        check_closed_vs_bisection(inputs_2d)

        # node-wise bounds on solved f2/f3 grids
        for case_name, n, m in (("f2", 2, 160), ("f3", 2, 160),
                                ("f2", 3, 16), ("f3", 3, 16)):
            case = make_case(case_name, n)
            spec = GridSpec(n, m)
            h = spec.h
            F = np.broadcast_to(np.asarray(case.f(spec.mesh())), spec.shape)
            prod = np.ones(spec.shape)
            for x in spec.mesh():
                prod = prod * x
            u = solve(spec, "s1", case.f).field.values
            v = solve(spec, "s2", case.f).field.values
            w = solve(spec, "s3", case.f).field.values
            # S2 sandwich
            assert np.all(v >= prod * F.min() - 1e-12)
            assert np.all(v <= prod * F.max() * (1.0 + h) + 1e-12)
            # S3 sandwich
            assert np.all(w >= F.min() ** (1.0 / n) - 1e-12)
            assert np.all(w <= F.max() ** (1.0 / n) * (1.0 + h) + 1e-12)
            # one-sided power bound
            assert np.all(u ** n <= n ** n * v * (1.0 + h) + 1e-12)
            # S3 difference constraint w + n x_i D-_i w >= -slack
            for ax in range(n):
                c_shape = [1] * n
                c_shape[ax] = m + 1
                cax = (n * np.arange(m + 1, dtype=float)).reshape(c_shape)
                a = np.zeros_like(w)
                to = [slice(None)] * n
                to[ax] = slice(1, None)
                frm = [slice(None)] * n
                frm[ax] = slice(None, -1)
                a[tuple(to)] = w[tuple(frm)]
                assert np.min((1.0 + cax) * w - cax * a) >= -1e-10

        # discrete Lipschitz bound for f2 with slack factor 1.1
        for n, m in ((2, 320), (3, 32)):
            case = make_case("f2", n)
            spec = GridSpec(n, m)
            F = np.broadcast_to(np.asarray(case.f(spec.mesh())), spec.shape)
            w = solve(spec, "s3", case.f).field.values
            L_f = max(np.max(np.abs(np.diff(F, axis=ax))) * m for ax in range(n))
            bound = 1.1 * (1.0 / n) * L_f * F.min() ** ((1.0 - n) / n)
            sup_dw = max(np.max(np.abs(np.diff(w, axis=ax))) * m for ax in range(n))
            assert sup_dw <= bound


def test_criterion_7_pareto_oracle():
    with criterion(7, "peeling equals brute force on 100 clouds; 2-d fast "
                      "path equals generic at N=10^5, 3-d at N=10^4"):
        rng = np.random.default_rng(777)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            N = int(rng.integers(1, 501))
            pts = rng.random((N, n))
            if trial % 4 == 0:
                pts = np.round(pts, 1)  # ties and duplicates
            expected = peel_bruteforce(pts)
            assert np.array_equal(_fronts_generic(pts), expected)
            if n == 2:
                assert np.array_equal(_fronts_2d(pts), expected)
            if n == 3:
                assert np.array_equal(_fronts_3d(pts), expected)
        big = np.random.default_rng(778).random((100_000, 2))
        assert np.array_equal(_fronts_2d(big), _fronts_generic(big))
        big3 = np.random.default_rng(779).random((10_000, 3))
        assert np.array_equal(_fronts_3d(big3), _fronts_generic(big3))


def test_criterion_8_sqrt_h_consistency(cache):
    with criterion(8, "error(h)/sqrt(h) bounded (non-increasing within 20%) "
                      "for S2/S3 on f2 and f3, n=2"):
        for case_name in ("f2", "f3"):
            for scheme in ("s2", "s3"):
                errs = cache.errors(case_name, 2, MS_N2, scheme)
                ratios = [e / math.sqrt(1.0 / m) for e, m in zip(errs, MS_N2)]
                for r_prev, r_next in zip(ratios, ratios[1:]):
                    assert r_next <= 1.2 * r_prev


def test_pde_rank_agreement_regression_baseline():
    # pinned at build time: 10^4 uniform points, f == 1, m = 640, seed 2023
    # measured agreement 0.980312
    rng = np.random.default_rng(2023)
    pts = PointCloud(rng.random((10_000, 2)))
    fronts = pareto_fronts(pts)
    field = u_field(GridSpec(2, 640), "s2", 1.0)
    ranks = pde_rank(pts, field)
    assert rank_agreement(fronts, ranks) >= 0.975
