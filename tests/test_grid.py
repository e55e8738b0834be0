"""Grid indexing, sweep order, the solver's block views, rolling storage,
and file formats. The sweep order is C order, `np.ndindex(spec.shape)`, the
order of the field files and of the scalar reference solve."""

import time
import tracemalloc

import numpy as np
import pytest

from hjsolve.convergence import u_scale_error_fn
from hjsolve.grid import GridField, GridSpec
from hjsolve.schemes import _BAND, _BLOCK, SchemeKind, _Walk, solve
from hjsolve.testcases import make_case

from props import field_csv_per_cell, rhs_values, same_report


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 10)
    with pytest.raises(ValueError):
        GridSpec(2, 0)
    spec = GridSpec(3, 9)
    assert spec.h == 1.0 / 9
    assert spec.shape == (10, 10, 10)
    assert spec.num_nodes == 1000


@pytest.mark.parametrize("n,m,bad", [
    (2, 4.0, "m must be an integer, got 4.0"),
    (2, "4", "m must be an integer, got '4'"),
    (True, 4, "n must be an integer, got True"),
    (3.0, 4, "n must be an integer, got 3.0"),
    (2, np.float64(4.0), "m must be an integer, got"),
])
def test_spec_rejects_sizes_that_are_not_integers(n, m, bad):
    # a float m used to build a spec equal to the integer one, which solve
    # then fed to NumPy as a shape; a str m failed on its comparison
    with pytest.raises(ValueError, match=bad):
        GridSpec(n, m)


def test_spec_stores_numpy_integers_as_int():
    spec = GridSpec(np.int64(3), np.int32(4))
    assert type(spec.n) is int and type(spec.m) is int
    assert spec == GridSpec(3, 4) and hash(spec) == hash(GridSpec(3, 4))
    assert solve(spec, "s1", 1.0).field.values.shape == (5, 5, 5)


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


@pytest.mark.parametrize("storage", ["full", "rolling"])
@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 5), (2, 20), (2, 70),
                                 (3, 1), (3, 4), (4, 3),
                                 # m + 1 at _BLOCK - 1, _BLOCK and _BLOCK + 1
                                 (3, _BLOCK - 2), (3, _BLOCK - 1), (3, _BLOCK),
                                 (4, _BLOCK - 2), (4, _BLOCK - 1), (4, _BLOCK)])
def test_blocks_are_strided_views_of_the_field(n, m, storage):
    # every block of fronts reads and writes the field through one strided
    # view of heads by fronts, masked off the grid: its on-grid entries
    # visit every node once, in front order (by digit sum, then
    # lexicographic), and name the node at their flat position; the write
    # puts each node's value back in place, and rolling storage puts the
    # heads with I_1 = m into the final slab
    spec = GridSpec(n, m)
    rolling = storage == "rolling"
    src = np.arange(1.0, spec.num_nodes + 1.0)  # node p holds p + 1
    out = np.zeros((m + 1) ** (n - 1) if rolling else spec.num_nodes)
    walk = _Walk(spec, SchemeKind.S1, src, None, out, rolling, None)
    assert walk.K == (16 if n == 2 else 1)
    seen = []
    for d0, d1 in walk.spans():
        F = walk.read(d0, d1)
        for k, v in enumerate(F.flat):
            mi = walk.node(k)
            assert d0 <= sum(mi) < d1
            if v:
                assert np.ravel_multi_index(mi, spec.shape) == v - 1
                seen.append(int(v) - 1)
            else:
                assert not 0 <= mi[-1] <= m
        walk._u(1, d1 - d0 + 1, walk.lo, walk.hi)[...] = F
        walk.write(0.0)
    nodes = sorted(np.ndindex(spec.shape), key=lambda mi: (sum(mi), mi))
    assert seen == [int(np.ravel_multi_index(mi, spec.shape)) for mi in nodes]
    assert np.array_equal(out, src[spec.num_nodes - out.size:])


@pytest.mark.parametrize("n,m,kind,case_name", [
    pytest.param(2, 31, "s1", "f2", id="2-31-s1-f2"),
    pytest.param(2, 31, "s2", "f3", id="2-31-s2-f3"),
    pytest.param(2, 31, "s3", "f2", id="2-31-s3-f2"),
    pytest.param(3, 9, "s2", "f3", id="3-9-s2-f3"),
    pytest.param(3, 9, "s3", "f2", id="3-9-s3-f2"),
    pytest.param(4, 5, "s1", "f3", id="4-5-s1-f3"),
    pytest.param(4, 5, "s3", "f2", id="4-5-s3-f2"),
    # n = 2 rolling reads f from bands of _BAND fronts: sizes at the band width
    *(pytest.param(2, m, kind, case_name, id=f"2-{m}-{kind}-{case_name}")
      for m in (1, _BAND - 1, _BAND, _BAND + 1, 2 * _BAND + 1)
      for kind in ("s1", "s2", "s3")
      for case_name in ("f1", "f2", "f3", "const")),
])
def test_rolling_equals_full_bitwise(n, m, kind, case_name):
    # the running sup of the raw values, and the u-scale error, whose S2
    # negative-value check and S3 coordinate product run per block of a
    # rolling solve (at n = 2 on pieces of a block, off-grid entries
    # included), for the callable f and for its values as a GridField, which
    # a rolling solve reads with no rhs band
    case = make_case(case_name, n)
    spec = GridSpec(n, m)
    raw = lambda vals, xs: np.abs(vals - 0.0)
    for f in (case.f, GridField(spec, rhs_values(spec, case.f))):
        for err in (raw, u_scale_error_fn(SchemeKind.parse(kind), case)):
            full = solve(spec, kind, f, error_fn=err)
            roll = solve(spec, kind, f, storage="rolling", error_fn=err)
            same_report(full, roll)


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


@pytest.mark.parametrize("cut", [
    lambda raw: raw[:10],          # truncated header
    lambda raw: raw[:16],          # header only
    lambda raw: raw[:-3],          # a partial last value
    lambda raw: raw + raw[-8:],    # one value too many
], ids=["header", "no-values", "partial", "extra"])
def test_binary_rejects_wrong_size(tmp_path, cut):
    spec = GridSpec(2, 3)
    path = tmp_path / "field.bin"
    GridField(spec, np.arange(spec.num_nodes, dtype=float)).save_binary(path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match="truncated header|expected 16 values"):
        GridField.load_binary(path)


@pytest.mark.parametrize("n,message", [
    (10**7, "expected 3^10000000 values for n=10000000, m=2, more than a file holds"),
    (2**62, f"expected 3^{2**62} values for n={2**62}, m=2, more than a file holds"),
    # 3^37 values still fit in a file, so they are compared with this one
    (37, f"expected {3**37} values for n=37, m=2, got 0"),
], ids=["1e7", "2^62", "37"])
def test_binary_rejects_huge_header_at_once(tmp_path, n, message):
    # the node count (m+1)^n is multiplied up only while it fits in a file,
    # so a malformed header fails at once and names the file
    path = tmp_path / "field.bin"
    path.write_bytes(np.array([n, 2], dtype="<i8").tobytes())
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as err:
        GridField.load_binary(path)
    assert time.perf_counter() - t0 < 0.5
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("n,m,message", [
    (1, 4, "dimension must be >= 2, got n=1"),
    (2, 0, "need at least one subdivision per axis, got m=0"),
], ids=["n1", "m0"])
def test_binary_rejects_invalid_header_naming_the_file(tmp_path, n, m, message):
    path = tmp_path / "field.bin"
    path.write_bytes(np.array([n, m], dtype="<i8").tobytes())
    with pytest.raises(ValueError) as err:
        GridField.load_binary(path)
    assert str(err.value) == f"{path}: {message}"


def test_binary_load_holds_one_field(tmp_path):
    # the values are read straight into the returned array: no bytes copy
    spec = GridSpec(2, 1999)
    field = GridField(spec, np.random.default_rng(3).random(spec.shape))
    path = tmp_path / "field.bin"
    field.save_binary(path)
    del field
    tracemalloc.start()
    try:
        back = GridField.load_binary(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * spec.num_nodes * 8
    assert back.values.dtype == np.float64 and back.values.flags.writeable
    assert np.array_equal(
        back.values.reshape(-1),
        np.frombuffer(path.read_bytes()[16:], dtype="<f8"))


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
