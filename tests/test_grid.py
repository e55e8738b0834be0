"""Grid indexing, sweep order, the solver's front index, rolling storage,
and file formats."""

import itertools
import tracemalloc

import numpy as np
import pytest

from hjsolve.grid import GridField, GridSpec, sweep_order
from hjsolve.schemes import _Fronts, solve
from hjsolve.testcases import make_case


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 10)
    with pytest.raises(ValueError):
        GridSpec(2, 0)
    spec = GridSpec(3, 9)
    assert spec.h == 1.0 / 9
    assert spec.shape == (10, 10, 10)
    assert spec.num_nodes == 1000


def test_axis_coords_exact_endpoints():
    for m in (7, 40, 49, 160):
        xs = GridSpec(2, m).axis_coords()
        assert xs[0] == 0.0
        assert xs[-1] == 1.0
        if m % 2 == 0:
            assert xs[m // 2] == 0.5


def test_sweep_order_2x2():
    assert list(sweep_order(GridSpec(2, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sweep_order_n2_m2_dominance():
    order = list(sweep_order(GridSpec(2, 2)))
    assert len(order) == 9
    pos = {mi: i for i, mi in enumerate(order)}
    assert pos[(1, 1)] > pos[(0, 1)]
    assert pos[(1, 1)] > pos[(1, 0)]


def test_sweep_order_n3_corner_last():
    order = list(sweep_order(GridSpec(3, 1)))
    assert len(order) == 8
    assert order[-1] == (1, 1, 1)


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
def test_sweep_order_backward_neighbors_first(n, m):
    pos = {mi: i for i, mi in enumerate(sweep_order(GridSpec(n, m)))}
    for mi, p in pos.items():
        for ax in range(n):
            if mi[ax] >= 1:
                nb = tuple(v - (1 if j == ax else 0) for j, v in enumerate(mi))
                assert pos[nb] < p


@pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (4, 2)])
def test_index_roundtrip_small(n, m):
    spec = GridSpec(n, m)
    for lin, mi in enumerate(sweep_order(spec)):
        assert spec.linear_index(mi) == lin
        assert spec.multi_index(lin) == mi
        for ax in range(n):
            if mi[ax] >= 1:
                nb = tuple(v - (1 if j == ax else 0) for j, v in enumerate(mi))
                assert spec.linear_index(nb) == lin - (m + 1) ** (n - 1 - ax)


def test_index_roundtrip_million_nodes():
    # exhaustive vectorized roundtrip at (m+1)^n = 10^6
    spec = GridSpec(2, 999)
    R = spec.m + 1
    lin = np.arange(spec.num_nodes)
    i1, i2 = lin // R, lin % R
    back = i1 * R + i2
    assert np.array_equal(back, lin)
    # spot-check the python converters against the vectorized identity
    for probe in (0, 1, R, R + 1, spec.num_nodes - 1, 123457):
        mi = spec.multi_index(probe)
        assert mi == (int(i1[probe]), int(i2[probe]))
        assert spec.linear_index(mi) == probe


def test_front_index_partitions_by_digit_sum():
    for n, m in ((2, 5), (3, 4), (4, 3)):
        spec = GridSpec(n, m)
        fronts = _Fronts(spec)
        heads = [tuple(int(i[p]) for i in fronts.idx)
                 for p in range(fronts.row.size)]
        seen = set()
        for d in range(n * m + 1):
            lo, hi = fronts.span(d)
            for p in range(lo, hi):
                mi = fronts.node(p, d)
                assert sum(mi) == d and 0 <= mi[-1] <= m and mi not in seen
                assert spec.linear_index(mi) == fronts.row[p] * (m + 1) + mi[-1]
                seen.add(mi)
                # backward neighbors along head axes sit on front d-1
                for j in range(n - 1):
                    if mi[j] >= 1:
                        q = fronts.back[j][p]
                        assert heads[q] == tuple(v - (k == j) for k, v in
                                                 enumerate(heads[p]))
                        assert d - 1 - sum(heads[q]) == mi[-1]
        assert len(seen) == spec.num_nodes


@pytest.mark.parametrize("n,m,kind,case_name,force", [
    pytest.param(2, 31, "s1", "f2", False, id="2-31-s1-f2"),
    pytest.param(2, 31, "s2", "f3", False, id="2-31-s2-f3"),
    pytest.param(2, 31, "s3", "f2", False, id="2-31-s3-f2"),
    pytest.param(3, 9, "s2", "f3", False, id="3-9-s2-f3"),
    pytest.param(3, 9, "s3", "f2", False, id="3-9-s3-f2"),
    pytest.param(4, 5, "s1", "f3", False, id="4-5-s1-f3"),
    pytest.param(4, 5, "s3", "f2", False, id="4-5-s3-f2"),
    pytest.param(2, 17, "s2", "f2", True, id="2-17-s2-f2-bisect"),
    pytest.param(2, 17, "s3", "f3", True, id="2-17-s3-f3-bisect"),
])
def test_rolling_equals_full_bitwise(n, m, kind, case_name, force):
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    err = lambda vals, xs: np.abs(vals - 0.0)  # running sup of the raw values
    full = solve(spec, kind, case.f, force_bisection=force, error_fn=err)
    roll = solve(spec, kind, case.f, force_bisection=force, storage="rolling",
                 error_fn=err)
    slab_full = full.field.values[-1].reshape(-1)
    assert np.array_equal(roll.final_slab, slab_full)
    assert roll.linf_error == full.linf_error
    assert roll.max_band_violation == full.max_band_violation
    assert roll.bisect_nodes == full.bisect_nodes


def test_rolling_equals_full_bitwise_million_nodes():
    # 10^6-node equivalence run
    spec = GridSpec(2, 999)
    err = lambda vals, xs: vals
    full = solve(spec, "s2", 1.0, error_fn=err)
    roll = solve(spec, "s2", 1.0, storage="rolling", error_fn=err)
    assert np.array_equal(roll.final_slab, full.field.values[-1].reshape(-1))
    assert roll.linf_error == full.linf_error


@pytest.mark.parametrize("n,m", [(2, 999), (3, 100)])
def test_rolling_memory_stays_front_sized(n, m):
    # rolling storage keeps O((m+1)^(n-1)) values, never the whole field: at
    # these sizes the front temporaries stay well below half the field bytes
    spec = GridSpec(n, m)
    case = make_case("f2", n)
    tracemalloc.start()
    try:
        solve(spec, "s2", case.f, storage="rolling",
              error_fn=lambda vals, xs: np.abs(vals - case.u(xs)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spec.num_nodes * 8 / 2


def test_binary_roundtrip(tmp_path):
    spec = GridSpec(3, 4)
    rng = np.random.default_rng(5)
    field = GridField(spec, rng.random(spec.shape))
    path = tmp_path / "field.bin"
    field.save_binary(path)
    back = GridField.load_binary(path)
    assert back.spec == spec
    assert np.array_equal(back.values, field.values)
    raw = path.read_bytes()
    assert np.frombuffer(raw[:16], dtype="<i8").tolist() == [3, 4]


def test_binary_rejects_truncation(tmp_path):
    spec = GridSpec(2, 3)
    field = GridField.zeros(spec)
    path = tmp_path / "field.bin"
    field.save_binary(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        GridField.load_binary(path)


def test_csv_roundtrip_lossless(tmp_path):
    spec = GridSpec(2, 7)
    rng = np.random.default_rng(11)
    field = GridField(spec, rng.random(spec.shape) * 1e-3)
    path = tmp_path / "field.csv"
    field.save_csv(path)
    back = GridField.load_csv(path, spec)
    assert np.array_equal(back.values, field.values)
    first = path.read_text().splitlines()[0].split(",")
    assert len(first) == 3  # x1, x2, value
