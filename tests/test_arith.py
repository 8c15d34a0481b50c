"""Tests for exact integer and modular arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletree.arith import (IntPoly, OddPrime, Valuation, exact_orbit,
                             iterate_series, mult_order, ord_p, rem)
from cycletree.errors import NotPeriodicError

small_polys = st.builds(
    IntPoly, st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=9))


def test_odd_prime_accepts_primes():
    for p in (3, 5, 7, 101, 104729):
        assert OddPrime(p) == p


@pytest.mark.parametrize("bad", [2, 1, 0, -3, 4, 9, 15, 561, 104730])
def test_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        OddPrime(bad)


def test_eval_mod_examples():
    assert IntPoly([1, 0, 1]).eval_mod(2, 9) == 5
    assert IntPoly([]).eval_mod(7, 9) == 0
    assert IntPoly([2, 1, 3, 1, 3, 2]).eval_mod(0, 81) == 2


def test_iterate_eval_examples():
    # x + 1 has period 5 mod 5, x^2 maps 2 -> 4 -> 1 mod 5,
    # and the identity fixes 3 mod 7
    for f, x, k, m, want in [(IntPoly([1, 1]), 0, 5, 5, 0), (IntPoly([0, 0, 1]), 2, 2, 5, 1),
                             (IntPoly([0, 1]), 3, 12, 7, 3)]:
        for _ in range(k):
            x = f.eval_mod(x, m)
        assert x == want


def test_derivative_examples():
    assert IntPoly([0, 0, 0, 1]).derivative().coeffs == (0, 0, 3)
    assert IntPoly([0, 0, 0, 1]).derivative(3).coeffs == (6,)
    assert IntPoly([5]).derivative().coeffs == ()
    with pytest.raises(ValueError):
        IntPoly([1, 1]).derivative(0)


def test_hasse_examples():
    assert IntPoly([0, 0, 0, 0, 0, 1]).hasse(2).coeffs == (0, 0, 0, 10)
    assert IntPoly([0, 0, 1]).hasse(2).coeffs == (1,)
    f = IntPoly([3, -2, 0, 7])
    assert f.hasse(0) == f
    assert f.hasse(1) == f.derivative()


@settings(max_examples=200)
@given(small_polys, st.integers(-9, 9), st.integers(-9, 9))
def test_taylor_identity(f, x, y):
    total = sum(f.hasse(i)(x) * y**i for i in range(f.degree + 1))
    assert f(x + y) == total


@settings(max_examples=200)
@given(small_polys, st.integers(0, 10**6), st.integers(-50, 50),
       st.sampled_from([3, 5, 7]), st.integers(1, 5))
def test_linearization_kernel(f, x, t, p, n):
    """f(x + p^n t) = f(x) + p^n t f'(x)  (mod p^{2n})."""
    mod = p ** (2 * n)
    lhs = f(x + p**n * t) % mod
    rhs = (f(x) + p**n * t * f.derivative()(x)) % mod
    assert lhs == rhs


def test_ord_p_examples():
    assert ord_p(18, 3, 10) == Valuation(2, False)
    assert ord_p(0, 5, 4) == Valuation(4, True)
    assert ord_p(7, 3, 10) == Valuation(0, False)
    assert ord_p(3**10, 3, 10) == Valuation(10, True)
    assert ord_p(-18, 3, 10) == Valuation(2, False)


@settings(max_examples=200)
@given(st.integers(1, 10**9), st.integers(1, 10**9), st.sampled_from([3, 5, 7]))
def test_ord_p_additive(u, v, p):
    cap = 60
    ou, ov, ouv = ord_p(u, p, cap), ord_p(v, p, cap), ord_p(u * v, p, cap)
    if not ou.saturated and not ov.saturated and ou.value + ov.value < cap:
        assert ouv == Valuation(ou.value + ov.value, False)


REM_DTYPES = {  # dtype: (smallest a, largest a, largest m)
    np.int64: (-2**62, 2**62, 3**19),
    np.int32: (-2**31, 2**31 - 1, 2**31 - 1),
    object: (-2**70, 2**70, 3**19),
}


@settings(max_examples=300)
@given(st.sampled_from(list(REM_DTYPES)), st.data())
def test_rem_matches_percent(dtype, data):
    """``rem`` equals ``%`` elementwise, negative values included, and with
    ``inplace`` it returns the array it was given, holding the result."""
    lo, hi, m_top = REM_DTYPES[dtype]
    m = data.draw(st.one_of(st.integers(1, m_top), st.sampled_from([1, 3, m_top])))
    edges = [lo, -m, -1, 0, 1, m - 1, m, hi]
    values = data.draw(st.lists(st.one_of(st.integers(lo, hi), st.sampled_from(edges)),
                                max_size=50))
    a = np.array(values, dtype=dtype)
    want = a % m
    got = rem(a, m)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert a.tolist() == values
    assert rem(a, m, inplace=True) is a and a.tolist() == want.tolist()


def test_mult_order_examples():
    assert mult_order(1, 7) == 1
    assert mult_order(2, 7) == 3
    assert mult_order(2, 5) == 4
    with pytest.raises(ValueError):
        mult_order(0, 7)
    with pytest.raises(ValueError):
        mult_order(14, 7)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_mult_order_divides_group_order(p):
    for a in range(1, p):
        assert (p - 1) % mult_order(a, p) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 1009])
def test_mult_order_matches_naive_loop(p):
    for a in range(1, p):
        order, x = 1, a
        while x != 1:
            x = x * a % p
            order += 1
        assert mult_order(a, p) == order
        assert mult_order(a + 5 * p, p) == order


def test_poly_parse_and_str():
    f = IntPoly.parse("2,1,3,1,3,2")
    assert f.coeffs == (2, 1, 3, 1, 3, 2)
    assert str(f) == "2 + x + 3x^2 + x^3 + 3x^4 + 2x^5"
    assert str(IntPoly([])) == "0"
    with pytest.raises(ValueError):
        IntPoly.parse("2,a,3")


def test_taylor_at_matches_hasse():
    f = IntPoly([3, -1, 4, 0, 2])
    for x0 in (-3, 0, 7):
        coeffs = f.taylor_at(x0, 6)
        for i, c in enumerate(coeffs):
            assert c == f.hasse(i)(x0)


def test_taylor_at_modulus():
    f = IntPoly([3, -1, 4, 0, 2])
    coeffs = f.taylor_at(5, 4, modulus=81)
    for i, c in enumerate(coeffs):
        assert c == f.hasse(i)(5) % 81


def test_iterate_series_against_composition():
    # f = x^2 iterated twice around 3: ((3+y)^2)^2 = 81 + 108y + 54y^2 + ...
    got = iterate_series(IntPoly([0, 0, 1]), 3, 2, 3)
    assert got == [81, 108, 54, 12]
    # first-order terms are the value and the chain-rule derivative
    f = IntPoly([2, 1, 3, 1, 3, 2])
    s = iterate_series(f, 5, 3, 1)
    x = 5
    deriv = 1
    for _ in range(3):
        deriv *= f.derivative()(x)
        x = f(x)
    assert s == [x, deriv]


def test_iterate_series_modulus_matches_exact():
    f = IntPoly([1, 2, 0, 1])
    exact = iterate_series(f, 2, 3, 4)
    reduced = iterate_series(f, 2, 3, 4, modulus=3**6)
    assert [c % 3**6 for c in exact] == reduced


def test_exact_orbit():
    assert exact_orbit(IntPoly([0, 1, 3]), 0, 1) == [0]
    # x -> -x + 4 swaps 1 and 3
    assert exact_orbit(IntPoly([4, -1]), 1, 2) == [1, 3]
    with pytest.raises(NotPeriodicError):
        exact_orbit(IntPoly([4, -1]), 1, 4)  # true period divides 4 but is 2
    with pytest.raises(NotPeriodicError):
        exact_orbit(IntPoly([0, 0, 1]), 2, 3)  # 2 -> 4 -> 16 escapes
    with pytest.raises(NotPeriodicError):
        exact_orbit(IntPoly([1, 1]), 0, 5)  # translation never returns
