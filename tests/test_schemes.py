"""Node updates and the band bisection: worked examples, high-precision oracles,
and smoke-sized randomized property checks (the acceptance suite reruns the
same checks at the full 10^4 sample count)."""

import numpy as np
import pytest

from hjsolve.schemes import (SchemeDomainError, UpdateInputs, s1_update,
                             s2_update, s3_update)

from props import (check_closed_vs_bisection, check_lower_bound,
                   check_monotonicity, check_s2_sum_bound, make_inp,
                   oracle_s1, oracle_s2, oracle_s3, random_update_inputs)

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
