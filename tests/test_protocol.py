"""Property test of the map protocol against exact-integer references.

Every map type must agree with plain integer evaluation (rational maps with
num * pow(den, -1, m) and the quotient rule) through each protocol method:
walk (one step of it is a single value and derivative), taylor_at, table,
limbs and poles.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycletree import checkers
from cycletree.arith import IntPoly
from cycletree.checkers import InverseEvalMap, RationalMap
from cycletree.errors import BadReductionError

PRIMES_AND_LEVELS = [(3, n) for n in range(1, 8)] + [(5, n) for n in range(1, 5)] \
    + [(7, n) for n in range(1, 4)]  # p^n <= 3^7
LARGE_LEVELS = [(3, 19), (5, 13), (7, 11), (11, 9)]  # P^2 near 2^63
POLES = (IntPoly([2, 3, 1, 5]), IntPoly([2, 6, 4]))  # den has roots mod 3, 5 and 7


def reference(fmap, x: int, modulus: int, p: int) -> tuple[int, int] | None:
    """(f(x), f'(x)) mod modulus from exact integers; None at a pole."""
    if isinstance(fmap, IntPoly):
        return fmap(x) % modulus, fmap.derivative()(x) % modulus
    num, den = fmap.num, fmap.den
    d = den(x)
    if d % p == 0:
        return None
    inv = pow(d, -1, modulus)
    deriv = (d * num.derivative()(x) - num(x) * den.derivative()(x)) * inv * inv
    return num(x) * inv % modulus, deriv % modulus


def coeffs(p: int, size: int):
    return st.lists(st.integers(-p**3, p**3), min_size=size, max_size=size)


@st.composite
def cases(draw):
    p, n = draw(st.sampled_from(PRIMES_AND_LEVELS))
    kind = draw(st.sampled_from(["poly", RationalMap, InverseEvalMap]))
    if kind == "poly":
        return IntPoly(draw(coeffs(p, draw(st.integers(0, 6))))), p, n
    den = draw(coeffs(p, 3).filter(any))
    return kind(IntPoly(draw(coeffs(p, 4))), IntPoly(den)), p, n


WALKS = [(0, 5), (1, 3), (2, 6), (10**9 + 7, 4)]


@settings(max_examples=150, deadline=None)
@given(cases(), st.lists(st.tuples(st.integers(0, 10**12), st.integers(1, 6)),
                         min_size=4, max_size=4))
@example((IntPoly([]), 3, 4), WALKS)  # zero
@example((IntPoly([5]), 5, 3), WALKS)  # constant
@example((IntPoly([1, 2**70, 3]), 3, 7), WALKS)  # a coefficient beyond int64
@example((RationalMap(IntPoly([1, 0, 1]), IntPoly([0, 1])), 3, 5), WALKS)  # a pole at 0
@example((InverseEvalMap(IntPoly([2, 3, 1, 5]), IntPoly([2, 6, 4])), 3, 4), WALKS)  # poles 1, 2
@example((RationalMap(IntPoly([1, 2, 1]), IntPoly([3, 0, 1])), 5, 3), WALKS)  # no poles
@example((IntPoly([2, 1, 3, 1, 3, 2]), 3, 9), WALKS)  # table blocks of 16,383 and a clipped 3,300
@example((RationalMap(IntPoly([1, 0, 1]), IntPoly([-5, 1])), 131, 2), WALKS)  # 16,375 and 786
@example((InverseEvalMap(IntPoly([1, 0, 1]), IntPoly([-5, 1])), 16411, 1), WALKS)  # one class
def test_protocol_matches_reference(case, walks):
    fmap, p, n = case
    m = p**n
    ref = [reference(fmap, x, m, p) for x in range(m)]
    want_poles = [r for r in range(p) if ref[r] is None]
    assert fmap.poles(p) == want_poles
    if isinstance(fmap, IntPoly):
        assert want_poles == []

    # table: the value at every residue, -1 exactly on the pole classes
    table = fmap.table(m, p)
    assert table.dtype == np.int64
    assert table.tolist() == [-1 if r is None else r[0] for r in ref]
    defined = [x for x in range(m) if ref[x] is not None]
    assert [next(fmap.walk(x, 1, m, m, p))[0] for x in defined] == [ref[x][0] for x in defined]
    for r in want_poles:
        with pytest.raises(BadReductionError):
            next(fmap.walk(r, 1, m, m, p))

    # one step of walk and the first two Hasse coefficients agree with the reference
    for x in defined[:: max(1, len(defined) // 20)]:
        assert next(fmap.walk(x, 1, m, m, p)) == ref[x]
        assert fmap.taylor_at(x, 2, m, p)[:2] == list(ref[x])

    # walk: k steps at (work, dwork) = (m^2, m), stopping with
    # BadReductionError where the orbit meets a pole
    work = m * m
    for start, steps in walks:
        x = start % work
        want, y = [], x
        for _ in range(steps):
            r = reference(fmap, y, work, p)
            if r is None:
                break
            want.append((r[0], r[1] % m))
            y = r[0]
        got = []
        walker = fmap.walk(x, steps, work, m, p)
        if len(want) < steps:
            with pytest.raises(BadReductionError):
                for pair in walker:
                    got.append(pair)
        else:
            got = list(walker)
        assert got == want

    # limbs on int64 and on object arrays: f = hi*m + lo (mod m^2), d = f' (mod m)
    square = [reference(fmap, x, work, p) for x in defined]
    want = ([v // m for v, _ in square], [v % m for v, _ in square], [d % m for _, d in square])
    for dtype in (np.int64, object):
        hi, lo, d = fmap.limbs(np.array(defined, dtype=dtype), m, p)
        assert (hi.tolist(), lo.tolist(), d.tolist()) == want


def _refuse(*args):
    raise AssertionError("this inverse route must not be reached")


@st.composite
def large_cases(draw):
    p, n = draw(st.sampled_from(LARGE_LEVELS))
    big = st.integers(-2**70, 2**70)
    fmap = IntPoly(draw(st.lists(big, max_size=6)))
    kind = draw(st.sampled_from([None, RationalMap, InverseEvalMap]))
    if kind is not None:
        fmap = kind(fmap, IntPoly(draw(st.lists(big, min_size=1, max_size=4).filter(any))))
    xs = draw(st.lists(st.integers(0, p**n - 1), min_size=1, max_size=40))
    return fmap, p, n, xs


@settings(max_examples=150, deadline=None)
@given(large_cases())
@example((IntPoly([-1, -1, -1]), 3, 19, [0, 1, 3**19 - 2, 3**19 - 1]))
@example((RationalMap(IntPoly([-1]), IntPoly([-1])), 11, 9, [0]))  # every limb is P - 1
@example((RationalMap(IntPoly([-1, 0, -1]), IntPoly([-1, 1])), 5, 13, [1, 5**13 - 1]))
@example((InverseEvalMap(IntPoly([2**70, -1]), IntPoly([7**11 - 1, 0, -1])), 7, 11,
          [2, 7**11 - 1]))
def test_limbs_at_large_modulus(case):
    """int64 limbs at P near 2^31, where every limb product nears int64,
    against exact integers mod P^2."""
    fmap, p, n, xs = case
    P = p**n
    xs = [x for x in xs if reference(fmap, x, P, p) is not None]
    square = [reference(fmap, x, P * P, p) for x in xs]
    hi, lo, d = fmap.limbs(np.array(xs, dtype=np.int64), P, p)
    assert (hi.tolist(), lo.tolist(), d.tolist()) == \
        ([v // P for v, _ in square], [v % P for v, _ in square], [d % P for _, d in square])
    if isinstance(fmap, IntPoly):
        assert fmap.eval_array(np.array(xs, dtype=np.int64), P).tolist() == \
            [fmap(x) % P for x in xs]
    else:
        assert fmap.eval_array(np.array(xs, dtype=np.int64), P, p).tolist() == \
            [reference(fmap, x, P, p)[0] for x in xs]


def exact_limbs(fmap, xs, P, p):
    """(hi, lo, d) lists of f(x) = hi*P + lo (mod P^2) and d = f'(x) (mod P)."""
    square = [reference(fmap, x, P * P, p) for x in xs]
    return [v // P for v, _ in square], [v % P for v, _ in square], [d % P for _, d in square]


@pytest.mark.parametrize("P", [(1 << 21) - 1, 1 << 21, (1 << 21) + 1])
def test_limbs_at_the_one_limb_bound(P):
    """IntPoly.limbs on both sides of P = 2^21, where a single accumulator mod
    P^2 times x < P would first pass 2^63: x = P - 1 with every coefficient -1
    makes each Horner step's acc*x + c as large as it gets, P^3 - P."""
    f = IntPoly([-1] * 6)
    xs = [0, 1, P // 2, P - 2, P - 1]
    hi, lo, d = f.limbs(np.array(xs, dtype=np.int64), P, 3)
    assert (hi.tolist(), lo.tolist(), d.tolist()) == exact_limbs(f, xs, P, 3)


@pytest.mark.parametrize("kind", [RationalMap, InverseEvalMap])
@pytest.mark.parametrize("p, n", [(127, 3), (1447, 2), (131, 3), (1451, 2)])
def test_rational_limbs_on_both_sides_of_the_one_limb_bound(kind, p, n):
    """num and den on one limb at 127^3 and 1447^2, on two at 131^3 and 1451^2,
    with the largest accumulators (x = P - 1, coefficients -1)."""
    P = p**n
    assert (P < 1 << 21) == (p in (127, 1447))
    h = kind(IntPoly([-1] * 4), IntPoly([-1, -1, -1]))
    xs = [x for x in (0, 1, P // 2, P - 2, P - 1) if reference(h, x, P, p) is not None]
    assert P - 1 in xs
    hi, lo, d = h.limbs(np.array(xs, dtype=np.int64), P, p)
    assert (hi.tolist(), lo.tolist(), d.tolist()) == exact_limbs(h, xs, P, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES_AND_LEVELS + LARGE_LEVELS), st.data())
def test_vectorized_inverse_matches_pow(level, data):
    """Each class's array inverse (power or Newton) against pow(d, -1, m)."""
    p, n = level
    m = p**n
    units = data.draw(st.lists(st.integers(1, m - 1).filter(lambda v: v % p), max_size=60))
    want = [pow(v, -1, m) for v in units]
    for kind in (RationalMap, InverseEvalMap):
        got = kind(*POLES)._invert(np.array(units, dtype=np.int64), m, p)
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("p, n", [(3, 19), (5, 13), (7, 11), (46337, 2)])
def test_newton_inverse_at_the_largest_moduli_below_2_31(p, n):
    """Newton lifting against pow(d, -1, m) at the largest power of each p below
    2^31, where the last round's products near 2^62."""
    m = p**n
    assert m < 1 << 31 < m * p
    units = [1, p + 1, m - 2, m - 1]
    got = checkers._newton_inverse(np.array(units, dtype=np.int64), m, p)
    assert got.dtype == np.int64 and got.tolist() == [pow(d, -1, m) for d in units]


def test_newton_inverse_on_empty_pole_and_object_input():
    """No lanes, a table whose every class is a pole, and Python-int lanes."""
    assert checkers._newton_inverse(np.array([], dtype=np.int64), 3**5, 3).tolist() == []
    h = InverseEvalMap(IntPoly([1, 1]), IntPoly([3, 6]))  # den = 3(1 + 2x)
    assert h.table(3**5, 3).tolist() == [-1] * 3**5
    units = [1, 2, 4, 3**7 - 1]
    got = checkers._newton_inverse(np.array(units, dtype=object), 3**7, 3)
    assert got.tolist() == [pow(d, -1, 3**7) for d in units]


@pytest.mark.parametrize("kind, own, other",
                         [(RationalMap, "_power_inverse", "_newton_inverse"),
                          (InverseEvalMap, "_newton_inverse", "_power_inverse")])
def test_each_inverse_route_stays_with_its_class(monkeypatch, kind, own, other):
    """The surrogate never inverts by Newton lifting and the oracle route never
    by the power, so differential tests never compare a route against itself."""
    h = kind(*POLES)
    calls = []
    route = getattr(checkers, own)
    monkeypatch.setattr(checkers, own, lambda *args: calls.append(1) or route(*args))
    monkeypatch.setattr(checkers, other, _refuse)
    for p, n in [(3, 5), (5, 3), (7, 2)]:
        m = p**n
        table = h.table(m, p)
        x = np.flatnonzero(table >= 0)
        hi, lo, _ = h.limbs(x, m, p)
        assert lo.tolist() == table[x].tolist()
    assert len(calls) == 6


@pytest.mark.parametrize("kind", [RationalMap, InverseEvalMap])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_limbs_at_a_pole_raise(kind, dtype):
    h = kind(*POLES)  # den vanishes at 1 and 2 mod 3
    x = np.array([0, 3, 4, 6], dtype=dtype)
    with pytest.raises(BadReductionError) as err:
        h.limbs(x, 27, 3)
    assert (err.value.x, err.value.p) == (4, 3)
