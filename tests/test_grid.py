"""Grid indexing, sweep order, the solver's front index, rolling storage,
and file formats. The sweep order is C order, `np.ndindex(spec.shape)`, the
order of the field files and of the scalar reference solve."""

import tracemalloc

import numpy as np
import pytest

from hjsolve.grid import GridField, GridSpec
from hjsolve.schemes import _Fronts, solve
from hjsolve.testcases import make_case

from props import field_csv_per_cell


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


def test_sweep_order_2x2(tmp_path):
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(np.ndindex(GridSpec(2, 1).shape)) == order
    # the CSV writer emits its rows in the same order
    path = tmp_path / "field.csv"
    GridField(GridSpec(2, 1), np.arange(4.0).reshape(2, 2)).save_csv(path)
    assert np.loadtxt(path, delimiter=",").tolist() == \
        [[*mi, float(k)] for k, mi in enumerate(order)]


def test_sweep_order_n2_m2_dominance():
    order = list(np.ndindex(GridSpec(2, 2).shape))
    assert len(order) == 9
    pos = {mi: i for i, mi in enumerate(order)}
    assert pos[(1, 1)] > pos[(0, 1)]
    assert pos[(1, 1)] > pos[(1, 0)]


def test_sweep_order_n3_corner_last():
    order = list(np.ndindex(GridSpec(3, 1).shape))
    assert len(order) == 8
    assert order[-1] == (1, 1, 1)


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
def test_sweep_order_backward_neighbors_first(n, m):
    pos = {mi: i for i, mi in enumerate(np.ndindex(GridSpec(n, m).shape))}
    for mi, p in pos.items():
        for ax in range(n):
            if mi[ax] >= 1:
                nb = tuple(v - (1 if j == ax else 0) for j, v in enumerate(mi))
                assert pos[nb] < p


@pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (4, 2)])
def test_index_roundtrip_small(n, m):
    spec = GridSpec(n, m)
    for lin, mi in enumerate(np.ndindex(spec.shape)):
        assert np.ravel_multi_index(mi, spec.shape) == lin
        assert np.unravel_index(lin, spec.shape) == mi
        for ax in range(n):
            if mi[ax] >= 1:
                nb = tuple(v - (1 if j == ax else 0) for j, v in enumerate(mi))
                assert np.ravel_multi_index(nb, spec.shape) == \
                    lin - (m + 1) ** (n - 1 - ax)


def test_index_roundtrip_million_nodes():
    # exhaustive vectorized roundtrip at (m+1)^n = 10^6
    spec = GridSpec(2, 999)
    R = spec.m + 1
    lin = np.arange(spec.num_nodes)
    i1, i2 = lin // R, lin % R
    back = i1 * R + i2
    assert np.array_equal(back, lin)
    # spot-check numpy's converters against the vectorized identity
    for probe in (0, 1, R, R + 1, spec.num_nodes - 1, 123457):
        mi = np.unravel_index(probe, spec.shape)
        assert mi == (int(i1[probe]), int(i2[probe]))
        assert np.ravel_multi_index(mi, spec.shape) == probe


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
                assert np.ravel_multi_index(mi, spec.shape) == \
                    fronts.row[p] * (m + 1) + mi[-1]
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
    field = GridField(spec, np.zeros(spec.shape))
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
    back = np.loadtxt(path, delimiter=",")
    assert back.shape == (spec.num_nodes, 3)  # x1, x2, value
    assert np.array_equal(back[:, -1].reshape(spec.shape), field.values)


@pytest.mark.parametrize("n,m", [(2, 23), (3, 7), (4, 4)])
def test_csv_bytes_match_per_cell_writer(tmp_path, n, m):
    spec = GridSpec(n, m)
    rng = np.random.default_rng(12)
    values = rng.standard_normal(spec.shape) * 10.0 ** rng.integers(
        -300, 300, size=spec.shape)
    values.reshape(-1)[:7] = [-0.0, 5e-324, 1e300, 3.0, -7.0, 0.0, 1 / 3]
    field = GridField(spec, values)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    field.save_csv(fast)
    field_csv_per_cell(slow, field)
    assert fast.read_bytes() == slow.read_bytes()
