"""Front peeling against a brute-force oracle and the any-dimension kernel,
multilinear ranking, and the agreement metric."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hjsolve.convergence import u_field
from hjsolve.grid import GridSpec
from hjsolve.pareto import (_CHUNK, CloudFormatError, PointCloud, PointsOutsideDomainError,
                            _fronts, _parse_lines, _peel_buckets, check_in_unit_cube,
                            load_cloud_csv, pareto_fronts, pde_rank, rank_agreement,
                            save_ranked_csv)

from props import agreement_pairs, peel_bruteforce


def test_toy_cloud():
    pts = PointCloud(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))
    assert pareto_fronts(pts).tolist() == [1, 1, 2]


def test_antichain_single_front():
    t = np.linspace(0.0, 1.0, 17)
    pts = PointCloud(np.column_stack([t, 1.0 - t]))
    assert np.all(pareto_fronts(pts) == 1)


def test_duplicates_share_front():
    pts = PointCloud(np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9], [0.6, 0.6]]))
    fr = pareto_fronts(pts)
    assert fr[0] == fr[1] == 1
    assert fr[2] == 1
    assert fr[3] == 2


def test_domination_implies_strictly_later_front():
    rng = np.random.default_rng(12)
    pts = rng.random((150, 3))
    fr = pareto_fronts(PointCloud(pts))
    for i in range(len(pts)):
        dom = np.all(pts <= pts[i], axis=1) & np.any(pts < pts[i], axis=1)
        for j in np.nonzero(dom)[0]:
            assert fr[j] < fr[i]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fronts_match_bruteforce(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(12):
        N = int(rng.integers(1, 200))
        pts = rng.random((N, n))
        if trial % 3 == 0:
            pts = np.round(pts, 1)  # ties and duplicates
        expected = peel_bruteforce(pts)
        assert np.array_equal(_fronts(pts, _peel_buckets), expected)
        assert np.array_equal(pareto_fronts(PointCloud(pts)), expected)


def _clouds_3d(rng):
    for trial in range(40):
        N = int(rng.integers(2, 300))
        pts = rng.random((N, 3))
        if trial % 2 == 0:
            pts = np.round(pts, 1)  # ties and duplicates
        yield pts
    yield np.full((25, 3), 0.3)  # all identical: one front
    yield np.array([[0.2, 0.7, 0.1]])  # N=1
    t = np.linspace(0.0, 1.0, 60)
    yield np.column_stack([t, t ** 2, np.sqrt(t)])[::-1].copy()  # chain: N fronts
    # one coordinate tied at a time: domination decided by the others
    yield np.array([[0.5, 0.1, 0.9], [0.5, 0.1, 0.8], [0.5, 0.2, 0.8],
                    [0.4, 0.2, 0.8], [0.4, 0.2, 0.8], [0.5, 0.2, 0.7]])


def test_fronts_3d_matches_bruteforce_and_generic():
    rng = np.random.default_rng(303)
    for pts in _clouds_3d(rng):
        expected = peel_bruteforce(pts)
        assert np.array_equal(pareto_fronts(pts), expected)
        assert np.array_equal(_fronts(pts, _peel_buckets), expected)
    chain = np.column_stack([np.linspace(1.0, 0.0, 60)] * 3)
    assert pareto_fronts(chain).tolist() == list(range(60, 0, -1))


def test_fast3d_matches_generic_medium():
    rng = np.random.default_rng(19)
    pts = rng.random((4000, 3))
    assert np.array_equal(pareto_fronts(pts), _fronts(pts, _peel_buckets))
    ints = rng.integers(0, 6, size=(4000, 3)).astype(float)  # heavy ties
    assert np.array_equal(pareto_fronts(ints), _fronts(ints, _peel_buckets))


def test_fast2d_matches_generic_medium():
    rng = np.random.default_rng(9)
    pts = rng.random((4000, 2))
    assert np.array_equal(pareto_fronts(pts), _fronts(pts, _peel_buckets))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_duplicates_across_chunks(n):
    # heavy ties over several chunks of the sweep: every copy of a point
    # takes the front of its distinct row
    rng = np.random.default_rng(40 + n)
    pts = rng.integers(0, 4, size=(2 * _CHUNK + 77, n)).astype(float)
    distinct, inverse = np.unique(pts, axis=0, return_inverse=True)
    expected = peel_bruteforce(distinct)[inverse.reshape(-1)]
    assert np.array_equal(pareto_fronts(pts), expected)
    assert np.array_equal(_fronts(pts, _peel_buckets), expected)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_array_non_finite_rejected(n, bad):
    pts = np.array([[0.0] * n, [0.5] * n, [1.0] + [0.2] * (n - 1)])
    pts[2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pareto_fronts(pts)


def test_raw_array_wrong_shape_rejected():
    for pts in (np.array([0.3, 0.1, 0.2]), np.empty((5, 0))):
        with pytest.raises(ValueError, match="shape"):
            pareto_fronts(pts)


def test_empty_cloud():
    assert pareto_fronts(PointCloud(np.empty((0, 2)))).size == 0


def test_normalization_preserves_fronts():
    rng = np.random.default_rng(5)
    pts = rng.random((300, 3)) * np.array([10.0, 0.5, 3.0]) + np.array([5.0, -2.0, 0.0])
    cloud = PointCloud(pts)
    normed = cloud.normalized()
    assert normed.points.min() >= 0.0 and normed.points.max() <= 1.0
    assert np.array_equal(pareto_fronts(cloud), pareto_fronts(normed))


def test_normalization_constant_axis():
    pts = PointCloud(np.array([[1.0, 2.0], [1.0, 3.0]]))
    normed = pts.normalized()
    assert np.all(normed.points[:, 0] == 0.5)


# ---------------------------------------------------------------------------
# pde_rank
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def unit_field():
    # solved S2 field for f == 1 on n=2, transformed to the u scale
    return u_field(GridSpec(2, 64), "s2", 1.0)


def test_rank_at_grid_nodes_is_exact(unit_field):
    spec = unit_field.spec
    xs = spec.axis_coords()
    nodes = [(3, 5), (0, 0), (64, 64), (17, 40)]
    pts = PointCloud(np.array([[xs[i], xs[j]] for i, j in nodes]))
    ranks = pde_rank(pts, unit_field)
    for k, (i, j) in enumerate(nodes):
        assert ranks[k] == unit_field.values[i, j]


def test_rank_interior_matches_exact_solution(unit_field):
    pts = PointCloud(np.array([[0.25, 0.25]]))
    val = pde_rank(pts, unit_field)[0]
    # u = 2 sqrt(x1 x2) = 2 sqrt(0.0625) = 0.5, within interpolation error O(h)
    assert val == pytest.approx(0.5, abs=2.0 / 64)


def test_rank_monotone_along_axes(unit_field):
    rng = np.random.default_rng(31)
    base = rng.random((200, 2)) * 0.9
    bumped = base.copy()
    bumped[:, 0] += 0.05
    r0 = pde_rank(PointCloud(base), unit_field)
    r1 = pde_rank(PointCloud(bumped), unit_field)
    assert np.all(r1 >= r0 - 1e-12)


def test_rank_rejects_outside_points(unit_field):
    pts = PointCloud(np.array([[0.5, 0.5], [1.5, 0.2], [-0.1, 0.3]]))
    with pytest.raises(PointsOutsideDomainError) as err:
        pde_rank(pts, unit_field)
    assert sorted(err.value.indices.tolist()) == [1, 2]
    with pytest.raises(PointsOutsideDomainError) as err:
        check_in_unit_cube(pts)
    assert sorted(err.value.indices.tolist()) == [1, 2]
    check_in_unit_cube(PointCloud(np.array([[0.0, 1.0], [1.0 + 1e-13, 0.5]])))


def test_rank_and_domain_check_over_chunks(unit_field):
    # the chunked passes equal one point at a time, and name offenders in
    # every chunk by their index in the whole cloud
    rng = np.random.default_rng(32)
    pts = rng.random((_CHUNK + 9, 2))
    ranks = pde_rank(PointCloud(pts), unit_field)
    for i in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 8):
        assert ranks[i] == pde_rank(PointCloud(pts[i:i + 1]), unit_field)[0]
    pts[[3, _CHUNK - 1, _CHUNK + 5], [0, 1, 0]] = [1.5, -0.2, 2.0]
    with pytest.raises(PointsOutsideDomainError) as err:
        check_in_unit_cube(PointCloud(pts))
    assert err.value.indices.tolist() == [3, _CHUNK - 1, _CHUNK + 5]


# ---------------------------------------------------------------------------
# rank_agreement
# ---------------------------------------------------------------------------

def test_agreement_perfect_and_reversed():
    fronts = np.array([1, 1, 2, 3, 3, 4])
    assert rank_agreement(fronts, fronts.astype(float)) == 1.0
    assert rank_agreement(fronts, -fronts.astype(float)) == 0.0


def test_agreement_random_is_half():
    rng = np.random.default_rng(8)
    fronts = rng.integers(1, 30, size=1000)
    ranks = rng.random(1000)
    a = rank_agreement(fronts, ranks)
    assert 0.45 <= a <= 0.55


def test_agreement_equals_pair_count_across_row_blocks():
    # 4000 points are counted in four row blocks; few fronts and rounded
    # ranks give ties in both
    rng = np.random.default_rng(11)
    N = 4000
    fronts = rng.integers(1, 12, size=N)
    ranks = np.round(rng.random(N) + 0.05 * fronts, 2)
    match = total = 0
    for i in range(N - 1):
        df = np.sign(fronts[i] - fronts[i + 1:])
        dr = np.sign(ranks[i] - ranks[i + 1:])
        total += int(np.count_nonzero(df))
        match += int(np.count_nonzero((df != 0) & (df == dr)))
    assert 0 < match < total
    assert rank_agreement(fronts, ranks) == match / total


def test_agreement_equals_pair_oracle():
    # cross-front and same-front rank ties, a NaN rank, a chain of singleton
    # fronts and ranks that undo it: the counts must be the same integers
    rng = np.random.default_rng(12)
    for trial in range(30):
        N = int(rng.integers(2, 700))
        fronts = rng.integers(1, int(rng.integers(2, 40)), size=N)
        ranks = rng.random(N) + 0.1 * fronts
        if trial % 3 == 0:
            ranks = np.round(ranks, 1)
        if trial % 5 == 0:
            ranks[rng.integers(0, N)] = np.nan
        if len(np.unique(fronts)) < 2:
            continue
        assert rank_agreement(fronts, ranks) == agreement_pairs(fronts, ranks)
    chain = np.arange(1, 501)
    ranks = np.round(rng.random(500) + chain / 100.0, 2)
    assert rank_agreement(chain, ranks) == agreement_pairs(chain, ranks)
    assert rank_agreement(chain, chain[::-1].astype(float)) == 0.0


def test_agreement_over_chunks_and_any_front_labels():
    # more points than two chunks, rank ties and NaN ranks; front labels
    # beyond N, negative or non-integer are ranked first, in the same order
    rng = np.random.default_rng(13)
    N = 2 * _CHUNK + 7
    fronts = rng.integers(1, 60, size=N)
    ranks = np.round(rng.random(N) + 0.02 * fronts, 2)
    ranks[rng.integers(0, N, size=5)] = np.nan
    expected = agreement_pairs(fronts, ranks)
    assert 0.0 < expected < 1.0
    for labels in (fronts, fronts.astype(np.uint64), fronts * 10 ** 9, fronts - 30,
                   fronts * 0.5):
        assert rank_agreement(labels, ranks) == expected


def test_agreement_needs_two_points_and_two_fronts():
    with pytest.raises(ValueError):
        rank_agreement(np.array([1]), np.array([0.5]))
    with pytest.raises(ValueError):
        rank_agreement(np.array([1, 1, 1]), np.array([0.1, 0.2, 0.3]))


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def test_cloud_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    pts = rng.random((50, 3))
    path = tmp_path / "cloud.csv"
    with open(path, "w") as fh:
        for row in pts:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    cloud = load_cloud_csv(path, 3)
    assert np.array_equal(cloud.points, pts)


def test_cloud_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2\n0.3\n")
    with pytest.raises(CloudFormatError) as err:
        load_cloud_csv(bad, 2)
    assert err.value.line == 2

    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("0.1,0.2\nfoo,0.4\n")
    with pytest.raises(CloudFormatError) as err:
        load_cloud_csv(nonnum, 2)
    assert err.value.line == 2

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CloudFormatError):
        load_cloud_csv(empty, 2)


def test_ranked_csv_output(tmp_path):
    cloud = PointCloud(np.array([[0.1, 0.9], [0.7, 0.3]]))
    fronts = np.array([1, 1])
    ranks = np.array([0.42, 0.58])
    path = tmp_path / "out.csv"
    save_ranked_csv(path, cloud, fronts, ranks)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0][2] == "1"
    assert float(rows[1][3]) == 0.58


def _ranked_csv_per_cell(path, cloud, fronts, ranks):
    # the writer this module used before, one f-string per cell
    with open(path, "w") as fh:
        for i in range(len(cloud)):
            cells = [f"{v:.17g}" for v in cloud.points[i]]
            cells.append(str(int(fronts[i])))
            if ranks is not None:
                cells.append(f"{ranks[i]:.17g}")
            fh.write(",".join(cells) + "\n")


def test_ranked_csv_bytes_match_per_cell_writer(tmp_path):
    rng = np.random.default_rng(4)
    N = _CHUNK + 200  # two chunks of the writer
    pts = rng.random((N, 3)) * 10.0 ** rng.integers(-5, 5, size=(N, 3))
    pts[:6] = [[-0.0, 1e-300, 3.0], [0.0, -1e-300, -7.0], [1e300, 2.0, 0.1],
               [5e-324, 1.0, 0.5], [1 / 3, 2 / 3, 123456789.0], [-2.5, 0.0, 1.0]]
    cloud = PointCloud(pts)
    fronts = rng.integers(1, 1000, size=N)
    ranks = rng.random(N)
    ranks[:4] = [-0.0, 1e-300, 4.0, 1e17]
    for r in (ranks, None):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        save_ranked_csv(fast, cloud, fronts, r)
        _ranked_csv_per_cell(slow, cloud, fronts, r)
        assert fast.read_bytes() == slow.read_bytes()


# (bytes, n): files NumPy's reader takes, rejects, or reads as something the
# line loop does not accept
LOADER_FIXTURES = {
    "underscored-digits": (b"1_0,2.5\n0.5,3_000.25\n", 2),
    "whitespace-lines": (b"0.1,0.2\n   \n\t\n\n0.3,0.4\n", 2),
    "only-whitespace": (b"\n  \n", 2),
    "crlf": (b"0.1,0.2\r\n0.3,0.4\r\n", 2),
    "utf8-bom": (b"\xef\xbb\xbf0.1,0.2\n0.3,0.4\n", 2),
    "hash-line": (b"# x,y\n0.1,0.2\n", 2),
    "hash-short-line": (b"0.1,0.2\n#c\n", 2),
    "trailing-comma": (b"0.1,0.2,\n0.3,0.4,\n", 2),
    "nan": (b"0.1,0.2\n0.3,nan\n", 2),
    "inf": (b"0.1,0.2\n-inf,0.4\n", 2),
    "overflow": (b"0.1,1e400\n", 2),
    "empty": (b"", 2),
    "too-wide": (b"0.1,0.2,0.3\n", 2),
    "too-narrow": (b"0.1,0.2\n0.3\n", 2),
    "n1": (b"0.5\n0.25\n1e-320\n", 1),
    "signs-and-spaces": (b" +0.1 , -0.0 \n.5,\t5.\n", 2),
}


@pytest.mark.parametrize("name", sorted(LOADER_FIXTURES))
def test_loader_equals_line_loop(tmp_path, name):
    # NumPy's reader or the line loop: the same array bit for bit, or the
    # same CloudFormatError, and no warning either way
    data, n = LOADER_FIXTURES[name]
    path = tmp_path / "cloud.csv"
    path.write_bytes(data)

    def line_loop():
        with open(path) as fh:
            return _parse_lines(fh, path, n)

    try:
        expected = line_loop()
    except CloudFormatError as exc:
        expected = exc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, CloudFormatError):
            with pytest.raises(CloudFormatError) as err:
                load_cloud_csv(path, n)
            assert str(err.value) == str(expected)
            assert err.value.line == expected.line
        else:
            got = load_cloud_csv(path, n).points
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
    if name == "underscored-digits":
        assert expected.tolist() == [[10.0, 2.5], [0.5, 3000.25]]


def test_pareto_layer_memory_per_point(tmp_path):
    # traced peak of each phase per point, results included, at N = 50k:
    # about 1.5x what the chunked layer measures (25, 32, 21, 18, 20), and
    # below the per-point lists and copies it replaced (224, 105, 128, 82, 136)
    N = 50_000
    rng = np.random.default_rng(50)
    path = tmp_path / "cloud.csv"
    np.savetxt(path, rng.random((N, 3)), fmt="%.17g", delimiter=",")
    field = u_field(GridSpec(3, 20), "s2", 1.0)

    def per_point(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return out, peak / N

    cloud, load = per_point(lambda: load_cloud_csv(path, 3))
    fronts, peel = per_point(lambda: pareto_fronts(cloud))
    ranks, rank = per_point(lambda: pde_rank(cloud, field))
    _, agree = per_point(lambda: rank_agreement(fronts, ranks))
    _, save = per_point(lambda: save_ranked_csv(tmp_path / "out.csv", cloud, fronts, ranks))
    assert load <= 38 and peel <= 48 and rank <= 32 and agree <= 27 and save <= 30
