"""Full-grid solves: equality with the scalar oracle, exactness on
constants, comparison bounds between schemes, residual certificates,
rejection of invalid right-hand sides, the discrete Lipschitz estimate, and
the i_1-slab paths of full storage (rhs, error fold, certificate) against
the per-front and, at n = 2, per-band paths of rolling storage."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hjsolve import schemes
from hjsolve.convergence import u_scale_error_fn
from hjsolve.grid import GridField, GridSpec
from hjsolve.schemes import (_BAND, _BLOCK, SOLVE_FIXED_BYTES, WORK_ARRAYS,
                             BisectionCapError, SchemeDomainError, SchemeKind,
                             SolveError, residual_stats, solve,
                             working_set_bytes)
from hjsolve.testcases import make_case

from props import (node_update, oracle_band_solve, oracle_solve,
                   residual_stats_whole_field, rhs_values, same_report)

BAND_EPS = 1e-12


def _stable_ids(cases):
    # the "-False" suffix keeps these test ids as they were while the cases
    # carried a forced-bisection flag, so runs stay comparable by id
    return [pytest.param(*c, id="-".join(map(str, c)) + "-False") for c in cases]


@pytest.mark.parametrize("n,m,kind,case_name", _stable_ids([
    (2, 24, "s1", "f1"),
    (2, 24, "s2", "f2"),
    (2, 24, "s3", "f3"),
    (3, 8, "s1", "f3"),
    (3, 8, "s2", "f2"),
    (3, 8, "s3", "f1"),
    (4, 4, "s2", "f3"),
    (4, 4, "s3", "f1"),
]))
def test_engine_equals_oracle_bitwise(n, m, kind, case_name):
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    rep = solve(spec, kind, case.f)
    ref = oracle_solve(spec, kind, case.f)
    assert np.array_equal(rep.field.values, ref)


@pytest.mark.parametrize("case_name", ["f2", "f3"])
@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("n,m", [(3, 10), (4, 5)])
def test_engine_equals_scalar_band_bisection(n, m, kind, case_name):
    # the pure-Python band bisection shares no code with the batch kernel:
    # fields and bisection counters must match it bit for bit
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    W, nodes, most, mean = oracle_band_solve(spec, kind, case.f)
    assert nodes > 0
    for storage, want in (("full", W), ("rolling", W[-1].reshape(-1))):
        rep = solve(spec, kind, case.f, storage=storage)
        got = rep.final_slab if rep.field is None else rep.field.values
        assert np.array_equal(got, want)
        assert (rep.bisect_nodes, rep.bisect_iters_max,
                rep.bisect_iters_mean) == (nodes, most, mean)


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
def test_streaming_2d_matches_full(kind):
    case = make_case("f2", 2)
    spec = GridSpec(2, 40)
    err = lambda vals, xs: np.abs(vals - case.u(xs))
    full = solve(spec, kind, case.f, error_fn=err)
    stream = solve(spec, kind, case.f, storage="rolling", error_fn=err)
    assert stream.linf_error == full.linf_error
    assert np.array_equal(stream.final_slab, full.field.values[-1])
    assert stream.max_band_violation <= 1e-12


def test_rolling_n3_keeps_only_final_slab():
    spec = GridSpec(3, 4)
    full = solve(spec, "s1", 1.0)
    rep = solve(spec, "s1", 1.0, storage="rolling")
    assert rep.field is None
    assert np.array_equal(rep.final_slab, full.field.values[-1].reshape(-1))


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_s2_constant_exact_n2(c):
    spec = GridSpec(2, 40)
    rep = solve(spec, "s2", c)
    xs = spec.mesh()
    exact = c * (xs[0] * xs[1])
    assert np.max(np.abs(rep.field.values - exact)) <= 1e-12


@pytest.mark.parametrize("n,m,c", [(3, 10, 0.5), (3, 7, 2.0), (4, 5, 1.0)])
def test_s2_constant_band_higher_dims(n, m, c):
    spec = GridSpec(n, m)
    rep = solve(spec, "s2", c)
    xs = spec.mesh()
    prod = np.ones(spec.shape)
    for x in xs:
        prod = prod * x
    exact = c * prod
    v = rep.field.values
    assert np.all(v >= exact - BAND_EPS)
    assert np.all(v <= exact * (1.0 + spec.h) + BAND_EPS)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_s3_constant_exact_n2(c):
    spec = GridSpec(2, 32)
    rep = solve(spec, "s3", c)
    assert np.max(np.abs(rep.field.values - np.sqrt(c))) <= 1e-12


@pytest.mark.parametrize("n,m,c", [(3, 9, 0.5), (4, 4, 2.0)])
def test_s3_constant_band_higher_dims(n, m, c):
    spec = GridSpec(n, m)
    rep = solve(spec, "s3", c)
    root = c ** (1.0 / n)
    w = rep.field.values
    assert np.all(w >= root - BAND_EPS)
    assert np.all(w <= root * (1.0 + spec.h) ** (1.0 / n) + BAND_EPS)


def test_s1_boundary_layer_error_unit_rhs():
    # with f == 1 the S1 solution obeys u_h(h, 1) <= 2^(1/2) h^(1/2), an
    # O(h^(1/n)) error against u(h,1) = 2 h^(1/2)
    for m in (16, 64, 256):
        spec = GridSpec(2, m)
        rep = solve(spec, "s1", 1.0)
        h = spec.h
        assert rep.field.values[1, m] <= np.sqrt(2.0) * np.sqrt(h) + 1e-12


@pytest.mark.parametrize("n,m,kind,case_name", _stable_ids([
    (2, 48, "s1", "f2"),
    (2, 48, "s2", "f3"),
    (2, 48, "s3", "f1"),
    (3, 10, "s1", "f2"),
    (3, 10, "s2", "f3"),
    (3, 10, "s3", "f3"),
]))
def test_residual_certificate(n, m, kind, case_name):
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    rep = solve(spec, kind, case.f)
    assert rep.max_band_violation <= 1e-12
    # the per-front certificate equals the independent whole-field one
    assert rep.max_band_violation == residual_stats(rep.field, kind, case.f)
    roll = solve(spec, kind, case.f, storage="rolling")
    assert roll.max_band_violation == rep.max_band_violation


@pytest.mark.parametrize("kind", ["s1", "s2"])
@pytest.mark.parametrize("n,m,case_name", [(2, 40, "f2"), (3, 9, "f3")])
def test_solution_monotone_along_axes(kind, n, m, case_name):
    case = make_case(case_name, n)
    rep = solve(GridSpec(n, m), kind, case.f)
    v = rep.field.values
    for ax in range(n):
        d = np.diff(v, axis=ax)
        assert d.min() >= -1e-12


@pytest.mark.parametrize("n,m,case_name", [(2, 64, "f2"), (2, 64, "f3"),
                                           (3, 12, "f2"), (3, 12, "f3")])
def test_s2_sandwich(n, m, case_name):
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    F = np.broadcast_to(np.asarray(case.f(spec.mesh())), spec.shape)
    rep = solve(spec, "s2", case.f)
    prod = np.ones(spec.shape)
    for x in spec.mesh():
        prod = prod * x
    v = rep.field.values
    slack = 1.0 + spec.h
    assert np.all(v >= prod * F.min() - BAND_EPS)
    assert np.all(v <= prod * F.max() * slack + BAND_EPS)


@pytest.mark.parametrize("n,m,case_name", [(2, 64, "f2"), (2, 64, "f3"),
                                           (3, 12, "f2"), (3, 12, "f3")])
def test_s3_sandwich(n, m, case_name):
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    F = np.broadcast_to(np.asarray(case.f(spec.mesh())), spec.shape)
    rep = solve(spec, "s3", case.f)
    w = rep.field.values
    lo = F.min() ** (1.0 / n)
    hi = F.max() ** (1.0 / n)
    assert np.all(w >= lo - BAND_EPS)
    assert np.all(w <= hi * (1.0 + spec.h) + BAND_EPS)


@pytest.mark.parametrize("n,m,case_name", [(2, 48, "f2"), (2, 48, "f3"),
                                           (3, 10, "f2")])
def test_one_sided_power_bound(n, m, case_name):
    # u_h^n <= n^n v_h, up to the bisection bands
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    u = solve(spec, "s1", case.f).field.values
    v = solve(spec, "s2", case.f).field.values
    assert np.all(u ** n <= n ** n * v * (1.0 + spec.h) + BAND_EPS)


@pytest.mark.parametrize("n,m,case_name", [(2, 48, "f2"), (2, 48, "f1"),
                                           (3, 10, "f3")])
def test_s3_difference_constraint(n, m, case_name):
    # w + n x_i D^-_i w >= 0 at every node and axis (band slack only)
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    w = solve(spec, "s3", case.f).field.values
    for ax in range(n):
        c_shape = [1] * n
        c_shape[ax] = spec.m + 1
        c = (n * np.arange(spec.m + 1, dtype=float)).reshape(c_shape)
        a = np.zeros_like(w)
        to = [slice(None)] * n
        to[ax] = slice(1, None)
        frm = [slice(None)] * n
        frm[ax] = slice(None, -1)
        a[tuple(to)] = w[tuple(frm)]
        factor = (1.0 + c) * w - c * a  # equals w + n x_i D^-_i w
        assert factor.min() >= -1e-10


@pytest.mark.parametrize("n,m", [(2, 320), (3, 32)])
def test_s3_discrete_lipschitz_bound(n, m):
    # sup |D+_k w| <= 1.1 * (1/n) * L_f * f_min^((1-n)/n) with grid-measured
    # Lipschitz constant and minimum of f
    case = make_case("f2", n)
    spec = GridSpec(n, m)
    F = np.broadcast_to(np.asarray(case.f(spec.mesh())), spec.shape)
    w = solve(spec, "s3", case.f).field.values
    f_min = F.min()
    assert f_min > 0.0
    L_f = max(np.max(np.abs(np.diff(F, axis=ax))) * spec.m for ax in range(n))
    bound = 1.1 * (1.0 / n) * L_f * f_min ** ((1.0 - n) / n)
    sup_dw = max(np.max(np.abs(np.diff(w, axis=ax))) * spec.m for ax in range(n))
    assert sup_dw <= bound


def test_negative_rhs_reports_node():
    spec = GridSpec(2, 8)

    def f(xs):
        x1, x2 = np.broadcast_arrays(*xs)
        return np.where((x1 > 0.4) & (x2 > 0.4), -1.0, 1.0)

    with pytest.raises(SolveError) as err:
        solve(spec, "s1", f)
    assert err.value.multi_index is not None

    with pytest.raises(SolveError):
        solve(spec, "s3", f, storage="rolling")


@pytest.mark.parametrize("storage", ["full", "rolling"])
@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rhs_reports_node(bad, n, kind, storage):
    spec = GridSpec(n, 8)
    F = np.ones(spec.shape)
    F[(4,) * n] = bad
    with pytest.raises(SolveError) as err:
        solve(spec, kind, GridField(spec, F), storage=storage)
    assert err.value.multi_index == (4,) * n


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("m", [1, 2])
def test_engine_equals_oracle_smallest_n2_grids(m, kind):
    # n = 2 fronts are slices of the field: the one- and two-node fronts,
    # both storages, a GridField rhs
    case = make_case("f3", 2)
    spec = GridSpec(2, m)
    F = GridField(spec, rhs_values(spec, case.f).copy())
    ref = oracle_solve(spec, kind, F)
    full = solve(spec, kind, F)
    roll = solve(spec, kind, F, storage="rolling")
    assert np.array_equal(full.field.values, ref)
    assert np.array_equal(roll.final_slab, ref[-1])


def test_nonfinite_callable_rhs_reports_node():
    spec = GridSpec(3, 8)

    def f(xs):
        x1, x2, x3 = np.broadcast_arrays(*xs)
        return np.where((x1 == 0.5) & (x2 == 0.5) & (x3 == 0.5), np.nan, 1.0)

    with pytest.raises(SolveError) as err:
        solve(spec, "s2", f)
    assert err.value.multi_index == (4, 4, 4)


@pytest.mark.parametrize("storage", ["full", "rolling"])
def test_certificate_infinite_on_overflow(storage):
    # b = h^2 f is finite but b*b overflows in the S2 closed form, so the
    # first interior node turns inf and the solve fails there
    with np.errstate(all="ignore"), pytest.raises(SolveError) as err:
        solve(GridSpec(2, 8), "s2", 1e308, storage=storage)
    assert err.value.multi_index == (1, 1)


@pytest.mark.parametrize("storage", ["full", "rolling"])
@pytest.mark.parametrize("kind,case_name,cap", [("s1", "f2", 4), ("s3", "f2", 6)])
def test_bisection_cap_names_first_failing_node(kind, case_name, cap, storage,
                                               monkeypatch):
    # S1 bisects only the inner nodes of each front (selected by index),
    # S3 every node; either way the error must name the first node, in
    # front order, whose own update needs more bisections than the cap.
    # The caps make that node neither the first of its front nor the first
    # still bisecting.
    spec = GridSpec(3, 8)
    case = make_case(case_name, 3)
    kind = SchemeKind.parse(kind)
    W = solve(spec, kind, case.f).field.values
    F = rhs_values(spec, case.f)
    monkeypatch.setattr(schemes, "BISECTION_CAP", cap)

    def exceeds(mi):
        if kind.has_boundary_condition and min(mi) == 0:
            return False
        try:
            node_update(spec, kind, W, F, mi)
        except BisectionCapError:
            return True
        return False

    with pytest.raises(SolveError) as err:
        solve(spec, kind, case.f, storage=storage)
    bad = err.value.multi_index
    assert exceeds(bad)
    # fronts run in order of digit sum, each in lexicographic order
    assert not any(exceeds(mi) for mi in np.ndindex(*spec.shape)
                   if (sum(mi), mi) < (sum(bad), bad))


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("node", [(4, 4), (0, 3), (3, 0), (8, 0)],
                         ids=["interior", "boundary", "face-3-0", "face-8-0"])
def test_residual_stats_infinite_on_nan_node(kind, node, monkeypatch):
    # one-row slabs put the i_2 = 0 face nodes (3, 0) and (8, 0) in slabs
    # after the first
    spec = GridSpec(2, 8)
    V = solve(spec, kind, 1.0).field.values.copy()
    V[node] = np.nan
    for slab_nodes in (schemes._SLAB_NODES, 1):
        monkeypatch.setattr(schemes, "_SLAB_NODES", slab_nodes)
        with np.errstate(all="ignore"):
            assert residual_stats(GridField(spec, V), kind, 1.0) == math.inf


def test_rhs_from_grid_field_matches_callable():
    case = make_case("f3", 2)
    spec = GridSpec(2, 21)
    F = GridField(spec, np.broadcast_to(np.asarray(case.f(spec.mesh())),
                                        spec.shape).copy())
    a = solve(spec, "s2", case.f)
    b = solve(spec, "s2", F)
    assert np.array_equal(a.field.values, b.field.values)


def test_report_fields_populated():
    rep = solve(GridSpec(3, 6), "s2", make_case("f2", 3).f)
    assert rep.bisect_nodes > 0
    assert rep.bisect_iters_max >= 1
    assert 0.0 < rep.bisect_iters_mean <= rep.bisect_iters_max
    assert rep.wall_time > 0.0
    d = rep.to_dict()
    assert d["scheme"] == "s2" and d["m"] == 6


# ---------------------------------------------------------------------------
# i_1-slab paths: full storage evaluates f and folds error_fn over slabs,
# rolling storage per front, or per band of fronts at n = 2; residual_stats
# runs over the same slabs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("n,m,case_name", [
    (2, 999, "f2"),  # 16-row slabs, the last one partial
    (2, 60, "f3"),
    (3, 40, "f2"),   # 9-row slabs, the last one partial
    (3, 12, "f1"),
    (4, 8, "f3"),
])
def test_full_and_rolling_agree_bitwise_with_u_scale_error(kind, n, m, case_name):
    # the u-scale error depends on the coordinates, so the slab error fold
    # must pair each value with its own node
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    err = u_scale_error_fn(kind, case)
    full = solve(spec, kind, case.f, error_fn=err)
    roll = solve(spec, kind, case.f, storage="rolling", error_fn=err)
    assert full.linf_error > 0.0
    same_report(full, roll)


@pytest.mark.parametrize("slab_nodes", [1, 50, 1 << 40],
                         ids=["row", "rows", "whole"])
@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("n,m", [(2, 37), (3, 11)])
def test_slab_size_does_not_change_results(n, m, kind, slab_nodes, monkeypatch):
    case = make_case("f2", n)
    spec = GridSpec(n, m)
    err = u_scale_error_fn(kind, case)
    ref = solve(spec, kind, case.f, error_fn=err)
    noisy = GridField(spec, ref.field.values * (1.0 + 1e-3 * np.sin(
        np.arange(spec.num_nodes)).reshape(spec.shape)))
    monkeypatch.setattr(schemes, "_SLAB_NODES", slab_nodes)
    F = GridField(spec, rhs_values(spec, case.f).copy())
    for f in (case.f, F):
        rep = solve(spec, kind, f, error_fn=err)
        assert np.array_equal(rep.field.values, ref.field.values)
        assert rep.linf_error == ref.linf_error
        assert rep.max_band_violation == ref.max_band_violation
    assert residual_stats(noisy, kind, case.f) == \
        residual_stats_whole_field(noisy, kind, case.f)


@pytest.mark.parametrize("n,m,kind,slab_nodes", [
    # the default slab size keeps the ids these cases had before slab_nodes
    pytest.param(n, m, kind, nodes, id=f"{n}-{m}-{kind}{suffix}")
    for n, m in [(2, 40), (3, 9), (4, 5)] for kind in SchemeKind
    for suffix, nodes in [("", None), ("-row", 1), ("-rows", 50)]])
def test_residual_stats_equals_whole_field_reference(n, m, kind, slab_nodes,
                                                     monkeypatch):
    # on a perturbed field the violations are far from zero, so bitwise
    # equality checks the slab neighbors, weights and boundary faces; with
    # small slabs the nonzero face nodes also lie in slabs after the first
    case = make_case("f3", n)
    spec = GridSpec(n, m)
    V = solve(spec, kind, case.f).field.values
    if slab_nodes is not None:
        monkeypatch.setattr(schemes, "_SLAB_NODES", slab_nodes)
    rng = np.random.default_rng(7)
    for scale in (1e-9, 1e-2):
        noisy = GridField(spec, V * (1.0 + scale * rng.standard_normal(V.shape)))
        noisy.values[(0,) * n] = scale  # nonzero boundary nodes, one
        noisy.values[(0,) + (m,) * (n - 1)] = 1e3 * scale  # only on i_1 = 0
        for ax in range(n):  # and one at a random node of each axis face
            node = rng.integers(1, m + 1, size=n)
            node[ax] = 0
            noisy.values[tuple(node)] = 10.0 * scale * (ax + 1)
        got = residual_stats(noisy, kind, case.f)
        assert got > 0.0
        assert got == residual_stats_whole_field(noisy, kind, case.f)
    F = GridField(spec, rhs_values(spec, case.f).copy())
    assert residual_stats(noisy, kind, F) == got


@pytest.mark.parametrize("kind", ["s1", "s3"])
@pytest.mark.parametrize("n,m", [(2, 1000), (3, 100)])
def test_residual_stats_memory_below_one_field(n, m, kind):
    # slab temporaries only: no whole-grid rhs and no shifted field copies
    case = make_case("f2", n)
    spec = GridSpec(n, m)
    rep = solve(spec, kind, case.f)
    tracemalloc.start()
    try:
        cert = residual_stats(rep.field, kind, case.f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert == rep.max_band_violation
    assert peak < spec.num_nodes * 8


@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("n,m,ratio,case_name", [
    pytest.param(2, 2560, 1.03, "f2", id="2-2560-1.03"),
    # f1's zero rhs sends the certificate to _violation on every half block
    pytest.param(2, 2560, 1.03, "f1", id="2-2560-1.03-f1"),
    pytest.param(3, 100, 1.40, "f2", id="3-100-1.4"),
])
def test_full_solve_memory_with_u_scale_error(n, m, ratio, case_name, kind):
    # the field plus front and slab temporaries: the rhs is written into the
    # field itself and the error is folded over slabs
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    err = u_scale_error_fn(SchemeKind.parse(kind), case)
    tracemalloc.start()
    try:
        rep = solve(spec, kind, case.f, error_fn=err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.linf_error > 0.0
    assert peak <= ratio * spec.num_nodes * 8


@pytest.mark.parametrize("n,m,storage", [
    (n, m, storage)
    for n, m in ((2, 8), (2, 300), (3, 8), (3, 40), (4, 24), (5, 8),
                 # tiny grids, where the fixed per-solve bytes dominate
                 (2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1))
    for storage in ("full", "rolling")
] + [
    # the rhs band of an n = 2 rolling solve, at and around its width
    (2, m, "rolling") for m in (_BAND - 1, _BAND, _BAND + 1, 1000)
] + [
    # the blocks of K fronts of an n = 2 solve, at and around K
    (2, m, "full") for m in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 1000)
])
def test_working_set_bytes_bounds_the_traced_peak(n, m, storage):
    # the CLI memory guard charges working_set_bytes; every scheme and case,
    # with the u-scale error folded in, must stay under it
    spec = GridSpec(n, m)
    field = spec.num_nodes * 8 if storage == "full" else 0
    worst = 0
    for kind in SchemeKind:
        for case_name in ("f1", "f2", "f3", "const"):
            case = make_case(case_name, n)
            tracemalloc.start()
            try:
                solve(spec, kind, case.f, storage=storage,
                      error_fn=u_scale_error_fn(kind, case))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            worst = max(worst, peak)
    charge = working_set_bytes(spec, storage)
    assert worst <= charge
    if (n, m, storage) == (2, 1000, "rolling"):  # no i_1-slab is charged
        assert charge <= 3 * worst
    if (n, m) == (4, 24):  # one slab is one front: WORK_ARRAYS is not loose
        assert worst - field >= 0.6 * (charge - field)
        assert charge - field - SOLVE_FIXED_BYTES == WORK_ARRAYS * 25 ** 3 * 8


@pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("node,m", [
    pytest.param((5, 2), 8, id="n2"),
    pytest.param((5, 2, 6), 8, id="n3"),
    pytest.param((0, 3), 8, id="n2-i1-zero"),
    # the last front, d = 2B - 1, of the second rhs band of a rolling solve
    pytest.param((100, 2 * _BAND - 101), 2 * _BAND + 1, id="n2-band-last"),
    pytest.param((2 * _BAND + 1,) * 2, 2 * _BAND + 1, id="n2-corner"),
])
def test_full_storage_callable_rhs_invalid_node(node, m, kind, bad):
    # the slab-filled rhs is checked per front and names the node, also a
    # boundary node (S3 solves it; S1/S2 check it all the same)
    n = len(node)
    spec = GridSpec(n, m)

    def f(xs):
        hit = np.ones(np.broadcast_shapes(*(np.shape(x) for x in xs)), bool)
        for x, i in zip(xs, node):
            hit = hit & (np.asarray(x) == i / m)
        return np.where(hit, bad, 1.0)

    for storage in ("full", "rolling"):
        with pytest.raises(SolveError) as err:
            solve(spec, kind, f, storage=storage)
        assert err.value.multi_index == node


def _rhs_with(spec, values, rhs_kind):
    """The rhs that is 1.0 except at the nodes of values, as a callable or
    a GridField."""
    if rhs_kind == "field":
        F = np.ones(spec.shape)
        for node, v in values.items():
            F[node] = v
        return GridField(spec, F)
    m = spec.m

    def f(xs):
        x1, x2 = (np.asarray(x) for x in xs)
        out = np.ones(np.broadcast_shapes(x1.shape, x2.shape))
        for (i, j), v in values.items():
            out = np.where((x1 == i / m) & (x2 == j / m), v, out)
        return out
    return f


@pytest.mark.parametrize("rhs_kind", ["callable", "field"])
@pytest.mark.parametrize("storage", ["full", "rolling"])
@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
def test_invalid_rhs_named_in_front_order_within_a_block(bad, kind, storage,
                                                         rhs_kind):
    # fronts 8 and 9 share an n = 2 block; (0, 9) comes first by rows of the
    # field, (5, 3) first by fronts, and the solve names the first by fronts
    assert _BLOCK > 9
    spec = GridSpec(2, 40)
    f = _rhs_with(spec, {(0, 9): bad, (5, 3): bad}, rhs_kind)
    with pytest.raises(SolveError) as err:
        solve(spec, kind, f, storage=storage)
    assert err.value.multi_index == (5, 3)


@pytest.mark.parametrize("rhs_kind", ["callable", "field"])
@pytest.mark.parametrize("storage", ["full", "rolling"])
def test_overflow_named_within_a_block_without_invalid_warnings(storage,
                                                                rhs_kind):
    # b = h^2 f is finite at (10, 9) but b*b overflows in the S2 closed form,
    # so its value is inf: front 19, the fourth of the block [16, 32) of
    # K = 16 fronts. The solve stops there, runs no later front and computes
    # no inf - inf.
    assert _BLOCK == 16
    spec = GridSpec(2, 40)
    f = _rhs_with(spec, {(10, 9): 1e308}, rhs_kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolveError) as err:
            solve(spec, "s2", f, storage=storage)
    assert err.value.multi_index == (10, 9)
    messages = [str(w.message) for w in caught]
    assert any("overflow" in msg for msg in messages)
    assert not any("invalid value" in msg for msg in messages), messages


def _on_grid_rhs(m):
    """A callable rhs that fails unless every coordinate it is given is a
    grid coordinate i/m with 0 <= i <= m."""
    def f(xs):
        for x in xs:
            i = np.rint(np.asarray(x) * m)
            assert np.all((0 <= i) & (i <= m)) and np.array_equal(x, i / m)
        return 1.0 + np.asarray(xs[0]) * np.sin(5.0 * np.asarray(xs[-1]))
    return f


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("n,m", [(2, 30), (3, 7)] + [
    # the rhs band of an n = 2 rolling solve, at and around its width
    (2, m) for m in (1, _BAND - 1, _BAND, _BAND + 1, 2 * _BAND + 1)
])
@pytest.mark.parametrize("rhs", [
    lambda xs: 1.0 + np.sin(3.0 * np.asarray(xs[0])),  # depends on x_1 only
    lambda xs: 2.0,                                    # returns a scalar
    0.75,                                              # constant
    _on_grid_rhs,                                      # built per m
], ids=["x1-only", "scalar", "constant", "on-grid"])
def test_full_storage_broadcast_rhs_matches_rolling(rhs, n, m, kind):
    if rhs is _on_grid_rhs:
        rhs = _on_grid_rhs(m)
    spec = GridSpec(n, m)
    err = lambda vals, xs: np.abs(vals - np.asarray(xs[-1]))
    full = solve(spec, kind, rhs, error_fn=err)
    roll = solve(spec, kind, rhs, storage="rolling", error_fn=err)
    same_report(full, roll)
    f = rhs if callable(rhs) else (lambda xs: rhs)
    assert np.array_equal(full.field.values, oracle_solve(spec, kind, f))


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("node", [
    (5, 20),                          # front 25, in the first rhs band
    (100, 60),                        # front 160, in a middle band
    (100, 0),                         # a face node on a masked rectangle
    (0, 2 * _BAND + 1),               # the other face, j = m
    (2 * _BAND, 2 * _BAND + 1),       # front 4B + 1, in the last, partial band
    (2 * _BAND + 1, 2 * _BAND + 1),   # the corner, the solve's last front
], ids=["first-band", "middle-band", "face-j0", "face-jm", "last-band", "corner"])
def test_nan_error_at_one_node_propagates(node, kind):
    # the error fold keeps every real node in its max, and a nan there
    # propagates as np.maximum propagates it (no nanmax, no fmax)
    m = 2 * _BAND + 1
    spec = GridSpec(2, m)

    def err(vals, xs):
        hit = (np.asarray(xs[0]) == node[0] / m) & (np.asarray(xs[1]) == node[1] / m)
        return np.where(hit, np.nan, np.abs(vals))

    for storage in ("full", "rolling"):
        rep = solve(spec, kind, 1.0, storage=storage, error_fn=err)
        assert math.isnan(rep.linf_error), storage


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
@pytest.mark.parametrize("m", [1, _BAND - 1, _BAND, _BAND + 1, 2 * _BAND + 1])
def test_error_fold_reads_no_value_off_the_grid(m, kind):
    # nan wherever 0.0 sits at an interior coordinate: an n = 2 rolling
    # solve hands error_fn 0.0 off its band's strips and at off-grid strip
    # entries, while every interior node of the solve is positive
    spec = GridSpec(2, m)

    def err(vals, xs):
        inside = (np.asarray(xs[0]) > 0.0) & (np.asarray(xs[1]) > 0.0)
        return np.where(inside & (vals == 0.0), np.nan, np.abs(vals - xs[1]))

    full = solve(spec, kind, 1.0, error_fn=err)
    roll = solve(spec, kind, 1.0, storage="rolling", error_fn=err)
    assert math.isfinite(full.linf_error)
    same_report(full, roll)


@pytest.mark.parametrize("const", [np.float32(1.5), np.int64(2), np.float64(0.25)],
                         ids=["float32", "int64", "float64"])
@pytest.mark.parametrize("storage", ["full", "rolling"])
@pytest.mark.parametrize("n,m", [(2, 4), (2, 2 * _BAND + 1), (3, 5)])
def test_numpy_scalar_constant_rhs(const, storage, n, m):
    # a NumPy real scalar is a constant rhs, bit for bit the Python float
    spec = GridSpec(n, m)
    err = lambda vals, xs: np.abs(vals - np.asarray(xs[0]))
    for kind in SchemeKind:
        got = solve(spec, kind, const, storage=storage, error_fn=err)
        ref = solve(spec, kind, float(const), storage=storage, error_fn=err)
        if storage == "full":
            assert np.array_equal(got.field.values, ref.field.values)
        else:
            assert np.array_equal(got.final_slab, ref.final_slab)
        assert (got.linf_error, got.max_band_violation) == \
            (ref.linf_error, ref.max_band_violation)


@pytest.mark.parametrize("const", [np.float32(-1.0), np.int64(-2), -0.5])
def test_negative_constant_rhs_rejected(const):
    with pytest.raises(SchemeDomainError):
        solve(GridSpec(2, 4), "s1", const, storage="rolling")
