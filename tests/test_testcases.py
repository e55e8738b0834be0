"""Benchmark rhs/solution pairs: spot values, boundary behavior, the
finite-difference gradient-product oracle, and the scale transforms."""

import itertools
import math

import numpy as np
import pytest

from hjsolve.grid import GridField, GridSpec
from hjsolve.schemes import SchemeKind
from hjsolve.testcases import f3, make_case, parse_case, to_u, u_from_v, w3


def test_f1_indicator_values():
    case = make_case("f1", 2)
    assert case.f((np.float64(0.4), np.float64(0.4))) == 0.0
    assert case.f((np.float64(0.6), np.float64(0.1))) == 1.0
    assert case.f((np.float64(0.5), np.float64(0.5))) == 0.0  # strict inequality


def test_u1_vanishes_below_threshold():
    case = make_case("f1", 2)
    for x in [(0.5, 0.5), (0.2, 0.5), (0.5, 0.01)]:
        assert case.u((np.float64(x[0]), np.float64(x[1]))) == 0.0


def test_u1_corner_value():
    case = make_case("f1", 2)
    val = case.u((np.float64(1.0), np.float64(1.0)))
    assert val == pytest.approx(2.0 * math.sqrt(0.5), rel=1e-15)


def test_u2_corner_value():
    case = make_case("f2", 2)  # k = 20
    val = case.u((np.float64(1.0), np.float64(1.0)))
    expected = (2.0 * math.sin(20.0) ** 2 + 40.0) / 21.0
    assert val == pytest.approx(expected, rel=1e-15)


def test_f3_diagonal_formula():
    # at x = (t, t) with C=10, n=2: w3 = 12t and f3 = (34*14/144) t^2
    for t in (0.1, 0.37, 1.0):
        xs = (np.float64(t), np.float64(t))
        assert w3(xs, 2, 10.0) == pytest.approx(12.0 * t, rel=1e-15)
        assert f3(xs, 2, 10.0) == pytest.approx(34.0 * 14.0 / 144.0 * t * t,
                                                rel=1e-14)


def test_f3_tie_breaking_safe():
    # swapping equal coordinates leaves the value bit-identical (there is no
    # tie-break branch); arbitrary permutations agree up to roundoff
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        base = rng.uniform(0, 1, size=n)
        base[rng.integers(1, n)] = base[0]  # force a tie
        ref = float(f3(tuple(np.float64(v) for v in base), n))
        for perm in itertools.permutations(base):
            val = float(f3(tuple(np.float64(v) for v in perm), n))
            assert val == pytest.approx(ref, rel=1e-12)
        # exchange only the tied pair: exact equality
        i = 0
        j = next(k for k in range(1, n) if base[k] == base[0])
        swapped = base.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert float(f3(tuple(np.float64(v) for v in swapped), n)) == ref


def test_f3_origin_is_zero():
    for n in (2, 3):
        assert f3((np.float64(0.0),) * n, n) == 0.0


@pytest.mark.parametrize("name", ["f1", "f2", "f3", "const"])
@pytest.mark.parametrize("n", [2, 3])
def test_exact_solutions_vanish_on_boundary(name, n):
    case = make_case(name, n)
    spec = GridSpec(n, 6)
    U = np.broadcast_to(np.asarray(case.u(spec.mesh())), spec.shape)
    for ax in range(n):
        sl = [slice(None)] * n
        sl[ax] = 0
        assert np.all(U[tuple(sl)] == 0.0)


@pytest.mark.parametrize("name,n", [("f1", 2), ("f2", 2), ("f2", 3),
                                    ("f3", 2), ("f3", 3), ("const", 3)])
def test_rhs_nonnegative_on_grid(name, n):
    case = make_case(name, n)
    F = np.asarray(case.f(GridSpec(n, 24).mesh()))
    assert F.min() >= 0.0


def _gradient_product_fd(case, pts, step=1e-6):
    """Product over axes of central-difference partials of the exact u."""
    n = pts.shape[1]
    prod = np.ones(len(pts))
    for ax in range(n):
        hi = pts.copy()
        lo = pts.copy()
        hi[:, ax] += step
        lo[:, ax] -= step
        du = (case.u(tuple(hi.T)) - case.u(tuple(lo.T))) / (2.0 * step)
        prod *= du
    return prod


@pytest.mark.parametrize("n", [2, 3])
def test_f2_gradient_product_identity(n):
    case = make_case("f2", n)
    rng = np.random.default_rng(101)
    pts = rng.uniform(0.05, 0.95, size=(100, n))
    fd = _gradient_product_fd(case, pts)
    exact = np.asarray(case.f(tuple(pts.T)))
    assert np.max(np.abs(fd - exact) / exact) <= 1e-5


@pytest.mark.parametrize("n", [2, 3])
def test_f3_gradient_product_identity_off_diagonal(n):
    case = make_case("f3", n)
    rng = np.random.default_rng(202)
    pts = []
    while len(pts) < 100:
        x = rng.uniform(0.05, 0.95, size=n)
        gaps = [abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
        if min(gaps) > 0.02:  # keep clear of the sorting kink set
            pts.append(x)
    pts = np.asarray(pts)
    fd = _gradient_product_fd(case, pts)
    exact = np.asarray(case.f(tuple(pts.T)))
    assert np.max(np.abs(fd - exact) / exact) <= 1e-5


def test_parse_case_forms():
    assert parse_case("f2", 3).name == "f2"
    const = parse_case("const:2.5", 2)
    assert const.params["c"] == 2.5
    assert const.label == "const:2.5"
    with pytest.raises(ValueError):
        parse_case("const:x", 2)
    with pytest.raises(ValueError):
        parse_case("f9", 2)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_u_from_v_unit_pair():
    spec = GridSpec(2, 10)
    xs = spec.mesh()
    v = GridField(spec, np.broadcast_to(xs[0] * xs[1], spec.shape).copy())
    u = u_from_v(v)
    assert np.allclose(u.values, 2.0 * np.sqrt(xs[0] * xs[1]), atol=1e-15)
    assert np.array_equal(u.values, to_u("s2", v.values, xs, 2))


def test_u_from_w_unit_pair():
    spec = GridSpec(2, 10)
    xs = spec.mesh()
    u = to_u("s3", np.ones(spec.shape), xs, 2)
    assert np.allclose(u, 2.0 * np.sqrt(xs[0] * xs[1]), atol=1e-15)
    for ax in range(2):
        sl = [slice(None)] * 2
        sl[ax] = 0
        assert np.all(u[tuple(sl)] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_v_u_roundtrip(n):
    spec = GridSpec(n, 5)
    rng = np.random.default_rng(77)
    v = rng.uniform(0.0, 3.0, size=spec.shape)
    u = to_u("s2", v, spec.mesh(), n)
    back = (u / n) ** n
    assert np.max(np.abs(back - v)) <= 1e-12


def test_w_u_roundtrip_interior():
    spec = GridSpec(2, 8)
    xs = spec.mesh()
    rng = np.random.default_rng(78)
    w = rng.uniform(0.5, 2.0, size=spec.shape)
    u = to_u("s3", w, xs, 2)
    back = u[1:, 1:] / (2 * np.sqrt(xs[0][1:] * xs[1][:, 1:]))
    assert np.max(np.abs(back - w[1:, 1:])) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_to_u_dispatches_by_scheme(n):
    spec = GridSpec(n, 6)
    vals = np.random.default_rng(79).uniform(0.0, 2.0, spec.shape)
    xs = spec.mesh()
    scale = xs[0]
    for x in xs[1:]:
        scale = scale * x
    expected = {
        SchemeKind.S1: vals,
        SchemeKind.S2: n * np.power(np.maximum(vals, 0.0), 1.0 / n),
        SchemeKind.S3: (n * np.power(scale, 1.0 / n)) * vals,
    }
    assert to_u(SchemeKind.S1, vals, xs, n) is vals
    for kind, want in expected.items():
        assert np.array_equal(to_u(kind, vals, xs, n), want)
        assert np.array_equal(to_u(kind.value, vals, xs, n), want)
        work = vals.copy()
        assert to_u(kind, work, xs, n, in_place=True) is work
        assert np.array_equal(work, want)
    assert np.array_equal(u_from_v(GridField(spec, vals)).values,
                          expected[SchemeKind.S2])


def test_u_from_v_rejects_genuinely_negative():
    spec = GridSpec(2, 4)
    vals = np.zeros(spec.shape)
    vals[2, 2] = -1e-6
    with pytest.raises(ValueError):
        u_from_v(GridField(spec, vals))
    with pytest.raises(ValueError):
        to_u("s2", vals, spec.mesh(), 2, in_place=True)
    assert vals[2, 2] == -1e-6  # refused before anything is overwritten
    vals[2, 2] = -1e-13  # tiny noise clamps to zero instead
    u = u_from_v(GridField(spec, vals))
    assert u.values[2, 2] == 0.0


@pytest.mark.parametrize("name,params", [
    ("const", {"c": math.nan}), ("const", {"c": math.inf}),
    ("f2", {"k": math.nan}), ("f2", {"k": math.inf}),
    ("f3", {"C": math.nan}), ("f3", {"C": math.inf}),
])
def test_make_case_rejects_non_finite_parameters(name, params):
    with pytest.raises(ValueError, match="finite"):
        make_case(name, 2, **params)
