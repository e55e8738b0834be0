"""Node updates and the band bisection: worked examples, high-precision oracles,
smoke-sized randomized property checks (the acceptance suite reruns the
same checks at the full 10^4 sample count), and the certificate's
max-reduction against the per-node violation."""

import numpy as np
import pytest

from hjsolve import schemes
from hjsolve.schemes import (BisectionCapError, SchemeDomainError, SchemeKind,
                             UpdateInputs, _BisectStats, _max_violation,
                             _s3_pairs, _update_vec, _violation, s1_update,
                             s2_update, s3_update)

from props import (band_update_scalar, check_closed_vs_bisection,
                   check_lower_bound, check_monotonicity, check_s2_sum_bound,
                   make_inp, oracle_s1, oracle_s2, oracle_s3,
                   random_update_inputs)

N_SMOKE = 2_000


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def test_s1_unit_example():
    t = s1_update(make_inp(2, 0.1, 1.0, (0.0, 0.0)))
    assert t == pytest.approx(0.1, abs=1e-15)
    assert t == pytest.approx(oracle_s1((0.0, 0.0), 0.1, 1.0), rel=1e-14)


def test_s1_zero_rhs_gives_max_neighbor():
    for n in (2, 3, 4):
        t = s1_update(make_inp(n, 0.05, 0.0, (0.3, 0.7) + (0.1,) * (n - 2)))
        assert t == 0.7


def test_s1_n3_origin_within_band():
    t = s1_update(make_inp(3, 0.1, 1.0, (0.0, 0.0, 0.0)))
    # exact root of t^3 = h^3 is t = h; band allows (1+h)^(1/3)
    assert 0.1 <= t <= 0.1 * (1.1) ** (1.0 / 3.0) + 1e-15


def test_s2_zero_rhs_is_max():
    t = s2_update(make_inp(3, 0.1, 0.0, (0.2, 0.5, 0.4)))
    assert t == 0.5


def test_s2_all_zero_neighbors_returns_b():
    # S(0,...,0,b) = b
    h = 0.1
    for n in (2, 3, 5):
        f = 0.37 / h ** n
        t = s2_update(make_inp(n, h, f, (0.0,) * n))
        assert t == pytest.approx(0.37, rel=1e-14)


def test_s2_closed_matches_high_precision_bisection():
    t = s2_update(make_inp(2, 0.1, 1.0, (0.01, 0.04)))
    assert t == pytest.approx(oracle_s2((0.01, 0.04), 0.1, 1.0), rel=1e-14)


def test_s3_origin_collapses_to_root_of_f():
    for n in (2, 3, 4):
        f = 0.9 ** n
        t = s3_update(make_inp(n, 0.125, f, (0.7,) * n, x=(0.0,) * n))
        assert t == pytest.approx(0.9, rel=1e-12)


def test_s3_first_interior_node_constant_one():
    # with f == 1: w(0,0) = 1, w(0,h) = w(h,0) = 1, and at (h,h) the update
    # returns exactly 1
    h = 0.125
    t_edge = s3_update(make_inp(2, h, 1.0, (0.0, 1.0), x=(0.0, h)))
    assert t_edge == pytest.approx(1.0, abs=1e-15)
    t = s3_update(make_inp(2, h, 1.0, (1.0, 1.0), x=(h, h)))
    assert t == 1.0


def test_update_input_validation():
    with pytest.raises(SchemeDomainError):
        s1_update(make_inp(2, 0.1, -1.0, (0.0, 0.0)))
    with pytest.raises(SchemeDomainError):
        s2_update(make_inp(2, 0.1, 1.0, (-0.2, 0.0)))
    with pytest.raises(SchemeDomainError):
        s3_update(make_inp(2, 0.1, 1.0, (0.0, 0.0), x=(-0.1, 0.5)))
    with pytest.raises(SchemeDomainError):
        s1_update(UpdateInputs(n=1, h=0.1, x=(0.5,), f_x=1.0, a=(0.0,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("method", ["auto", "bisect"])
def test_update_rejects_non_finite_inputs(bad, n, method):
    a = (0.2,) * n
    x = (0.5,) * n
    cases = [make_inp(n, 0.1, bad, a), make_inp(n, bad, 1.0, a),
             make_inp(n, 0.1, 1.0, (bad,) + a[1:])]
    for update in (s1_update, s2_update, s3_update):
        for inp in cases:
            with pytest.raises(SchemeDomainError):
                update(inp, method=method)
    with pytest.raises(SchemeDomainError):
        s3_update(make_inp(n, 0.1, 1.0, a, x=x[:-1] + (bad,)), method=method)


@pytest.mark.parametrize("a", [0.0, 1.0], ids=["zero", "one"])
def test_update_overflow_raises_naming_its_inputs(a):
    # h = 1 and f = 1e308: at n = 2 every closed form overflows (S2's inf*0
    # with zero neighbors is nan), at n >= 3 S2's product t^n; under the
    # suite's error::RuntimeWarning filter no warning escapes either
    for n, update in [(2, s1_update), (2, s2_update), (2, s3_update),
                      (3, s2_update), (4, s2_update)]:
        inp = make_inp(n, 1.0, 1e308, (a,) * n, x=(0.5,) * n)
        with pytest.raises(SchemeDomainError, match="non-finite") as err:
            update(inp)
        assert repr(inp) in str(err.value)
    # a finite result still returns
    for n, update, t in [(3, s1_update, 4.641588833612718e+102),
                         (3, s3_update, 1.8566355334450872e+102),
                         (4, s1_update, 1e77)]:
        assert update(make_inp(n, 1.0, 1e308, (a,) * n, x=(0.5,) * n)) == t


def test_update_rejects_unknown_method():
    for update in (s1_update, s2_update, s3_update):
        with pytest.raises(ValueError, match="unknown method"):
            update(make_inp(3, 0.1, 1.0, (0.2, 0.1, 0.3)), method="newton")
    with pytest.raises(ValueError, match="closed form"):
        s1_update(make_inp(3, 0.1, 1.0, (0.2, 0.1, 0.3)), method="closed")


# ---------------------------------------------------------------------------
# Band bisection
# ---------------------------------------------------------------------------

def test_bisect_accepts_exact_upper_endpoint():
    # equal neighbors: the bracket's upper endpoint max a + h f^(1/n) is
    # already the exact root, so it is returned without bisecting
    t = s1_update(make_inp(3, 0.1, 1.0, (0.0, 0.0, 0.0)), method="bisect")
    assert t == 0.1


def test_bisect_s2_form_tiny_rhs():
    a = (0.5, 0.0)
    h = 0.05
    f = 1e-6 / h ** 2  # h^n f = 1e-6
    t = s2_update(make_inp(2, h, f, a), method="bisect")
    exact = oracle_s2(a, h, f)
    assert exact <= t * (1.0 + 1e-12)
    assert t <= exact * (1.0 + h) * (1.0 + 1e-12)


def test_bisect_s3_zero_coordinate_degenerates():
    # first factor contributes t alone: root of t * ((1+c2) t - c2 a2) = f
    n, h = 3, 0.1
    x = (0.0, 0.3, 0.0)
    a = (0.9, 0.4, 0.9)
    f = 0.8
    t = s3_update(make_inp(n, h, f, a, x=x), method="bisect")
    exact = oracle_s3(x, a, h, f)
    assert exact - 1e-12 <= t <= exact * (1.0 + h) + 1e-12


def _mixed_batch(kind, n, h):
    """Update inputs (a, c, f) mixing random nodes, which finish at many
    different bisections, with f = 0 nodes, the S2 corner (all a_i = 0) and
    one node whose bracket is two adjacent floats around 1.0, so its first
    midpoint rounds onto lo and it takes hi."""
    rng = np.random.default_rng(11)
    rows = []
    for k in range(60):
        a = rng.uniform(0.0, 2.0, size=n)
        a[rng.random(n) < 0.15] = 0.0
        c = n * rng.integers(0, 12, size=n).astype(float)
        f = 0.0 if k % 9 == 0 else float(10.0 ** rng.uniform(-4.0, 1.0))
        rows.append((tuple(a), tuple(c), f))
    rows.append(((0.0,) * n, (n * 3.0,) * n, 0.5))
    ulp = 1.3e-16  # above half an ulp of 1.0, so lo + ulp rounds to nextafter
    if kind is SchemeKind.S1:
        rows.append(((1.0,) * n, (0.0,) * n, (ulp / h) ** n))
    elif kind is SchemeKind.S2:
        rows.append(((1.0,) + (0.0,) * (n - 1), (0.0,) * n, ulp / h ** n))
    else:
        rows.append(((2.0,) * n, (1.0,) * n, (2.0 * ulp) ** n))
    return rows


@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("n", [3, 4])
def test_update_vec_matches_scalar_band_bisection(kind, n):
    h = 1.0 / 16
    rows = _mixed_batch(kind, n, h)
    ref = [band_update_scalar(kind, a, c, f, h, n) for a, c, f in rows]
    iters = [it for _, it in ref if it is not None]
    assert len(set(iters)) >= 5
    assert any(it is None for _, it in ref)
    t_collapse, it_collapse = ref[-1]
    assert it_collapse == 1 and t_collapse == np.nextafter(1.0, 2.0)
    if kind is SchemeKind.S2:
        assert ref[-2] == (0.5 * h ** n, None)

    A = [np.array([a[j] for a, _, _ in rows]) for j in range(n)]
    C = None
    if kind is SchemeKind.S3:  # the kernel takes c_i a_i and 1 + c_i
        A, C = map(list, _s3_pairs(A, [np.array([c[j] for _, c, _ in rows])
                                       for j in range(n)]))
    f = np.array([f for _, _, f in rows])
    stats = _BisectStats()
    t = _update_vec(kind, A, C, f, h, n, stats)
    assert np.array_equal(t, [t for t, _ in ref])
    assert (stats.nodes, stats.iters_total, stats.iters_max) == (
        len(iters), sum(iters), max(iters))

    # the cap names the batch indices still bisecting, in batch order
    cap = sorted(iters)[len(iters) // 2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "BISECTION_CAP", cap)
        with pytest.raises(BisectionCapError) as err:
            _update_vec(kind, A, C, f, h, n, _BisectStats())
    assert err.value.local_indices.tolist() == [
        i for i, (_, it) in enumerate(ref) if it is not None and it > cap]


# ---------------------------------------------------------------------------
# Randomized property checks (smoke size)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_inputs():
    return random_update_inputs(np.random.default_rng(42), N_SMOKE)


def test_maximal_root_lower_bound(smoke_inputs):
    check_lower_bound(smoke_inputs)


def test_s2_sum_upper_bound(smoke_inputs):
    check_s2_sum_bound(smoke_inputs)


def test_monotonicity_in_neighbors_and_rhs(smoke_inputs):
    check_monotonicity(smoke_inputs[:800], np.random.default_rng(7))


def test_closed_vs_bisection_band_agreement(smoke_inputs):
    check_closed_vs_bisection(smoke_inputs)


def test_updates_match_oracle_within_band(smoke_inputs):
    for n, h, a, f, x in smoke_inputs[:600]:
        cases = [
            (s1_update, oracle_s1(a, h, f)),
            (s2_update, oracle_s2(a, h, f)),
            (s3_update, oracle_s3(x, a, h, f)),
        ]
        for update, exact in cases:
            t = update(make_inp(n, h, f, a, x=x))
            assert t >= exact - 1e-10 * max(1.0, exact)
            assert t <= exact * (1.0 + h) + 1e-10


# ---------------------------------------------------------------------------
# Certificate reduction
# ---------------------------------------------------------------------------

def _reduction_cases():
    band = 0.125
    t = np.array([1.0, 2.0, 3.0, 1e-300, 1e300])
    inside = np.array([1.0, 2.0 * (1.0 + band), 3.1, 1e-300, 1e300])
    yield "empty", np.empty(0), np.empty(0), band
    yield "empty-scalar-target", np.empty(0), 0.0, band
    yield "inside", inside, t, band
    yield "strictly-inside", t * (1.0 + 0.5 * band), t, band
    yield "inside-signed-zero-product", np.array([-0.0, 0.0, 1.0]), \
        np.array([1e-320, 5e-324, 1.0]), band
    yield "zero-band", np.array([1.0, -0.0]), np.array([1.0, 0.5]), 0.0
    yield "outside", np.array([0.5, 2.0, 4.0]), np.array([1.0, 2.0, 3.0]), band
    yield "zero-target", np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0]), band
    yield "signed-zero-target", np.array([0.0, -0.0, 1.0]), \
        np.array([-0.0, 0.0, 1.0]), band
    yield "scalar-zero-target", np.array([0.0, 0.25, -0.0]), 0.0, band
    yield "negative-target", np.array([1.0, 1.0]), np.array([1.0, -2.0]), band
    for bad in (np.nan, np.inf, -np.inf):
        yield f"product-{bad}", np.array([1.0, bad, 2.0]), \
            np.array([1.0, 1.0, 2.0]), band
        yield f"target-{bad}", np.array([1.0, 1.0, 2.0]), \
            np.array([1.0, bad, 2.0]), band
    yield "overflowing-band", np.array([1e308, 1.7e308]), \
        np.array([1e308, 1.7e308]), 1.0
    yield "overflowing-ratio", np.array([1e300, 1.0]), \
        np.array([1e-300, 1.0]), band
    rng = np.random.default_rng(5)
    t = rng.uniform(0.5, 2.0, 1000)
    yield "random", t * rng.uniform(0.9, 1.2, 1000), t, band


@pytest.mark.parametrize("product,target,band", [c[1:] for c in _reduction_cases()],
                         ids=[c[0] for c in _reduction_cases()])
def test_max_violation_equals_violation_max_bitwise(product, target, band):
    with np.errstate(all="ignore"):
        want = float(_violation(product, target, band).max(initial=0.0))
        got = _max_violation(product, target, band)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert np.float64(got).tobytes() != np.float64(-0.0).tobytes()
