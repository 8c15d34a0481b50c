"""Tests for permutation/single-cycle criteria and rational maps."""

import random

import pytest

from cycletree.arith import IntPoly
from cycletree.checkers import InverseEvalMap, RationalMap, is_permutation, is_single_cycle
from cycletree.errors import BadReductionError
from cycletree.graph import build_tree_bruteforce, enumerate_level
from cycletree.predictor import analyze
from cycletree.verify import verify_map


def brute_is_permutation(f, p, n):
    m = p**n
    return len({f.eval_mod(x, m) for x in range(m)}) == m


def brute_is_single_cycle(f, p, n):
    dec = enumerate_level(f, p, n)
    return len(dec.reps) == 1 and dec.lengths[0] == p**n


def test_permutation_examples():
    assert is_permutation(IntPoly([1, 1]), 7, 4)
    assert not is_permutation(IntPoly([0, 0, 0, 1]), 3, 2)  # x^3: 0 and 3 collide mod 9
    assert is_permutation(IntPoly([0, 0, 0, 1]), 3, 1)
    assert not is_permutation(IntPoly([0, 0, 1]), 5, 1)


def test_single_cycle_examples():
    assert is_single_cycle(IntPoly([1, 1]), 5, 7)
    assert not is_single_cycle(IntPoly([3, 1]), 3, 1)  # x+3 = identity mod 3
    assert not is_single_cycle(IntPoly([3, 1]), 3, 4)
    assert not is_single_cycle(IntPoly([0, 2]), 5, 3)  # 0 is fixed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_permutation_criterion_vs_bruteforce(p):
    rng = random.Random(p)
    for _ in range(40):
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        for n in range(1, 5):
            assert is_permutation(f, p, n) == brute_is_permutation(f, p, n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_cycle_criterion_vs_bruteforce(p):
    rng = random.Random(p + 100)
    for _ in range(40):
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        for n in range(1, 6):
            assert is_single_cycle(f, p, n) == brute_is_single_cycle(f, p, n)


def test_p3_needs_level_three():
    """For p = 3 the level-2 verdict genuinely lies for some polynomials
    (the 9-cycle splits at level 3); the criterion must consult level 3."""
    witnesses = [IntPoly([8, 23, 19, 6, 2, 17]), IntPoly([23, 22, 9, 13, 12, 26]),
                 IntPoly([23, 5, 17, 3, 4, 11])]
    for f in witnesses:
        assert brute_is_single_cycle(f, 3, 2)  # a level-2 rule would say yes
        assert not brute_is_single_cycle(f, 3, 3)
        for n in (3, 4, 5):
            assert is_single_cycle(f, 3, n) == brute_is_single_cycle(f, 3, n)
            assert not is_single_cycle(f, 3, n)


def test_surrogate_value_example():
    h = RationalMap(IntPoly([1, 0, 1]), IntPoly([0, 1]))
    assert next(h.walk(2, 1, 5**2, 5**2, 5))[0] == (4 + 1) * pow(2, -1, 25) % 25 == 15


def test_surrogate_degree_budget():
    h = RationalMap(IntPoly([1]), IntPoly([0, 1]))
    # the evaluation form works where the expanded surrogate would have
    # degree phi(5^6) - 1 = 12499
    v = next(h.walk(7, 1, 5**6, 5**6, 5))[0]
    assert v * 7 % 5**6 == 1


def test_surrogate_agreement_with_euclid():
    rng = random.Random(31)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 3)
        num = IntPoly(rng.randrange(p**2) for _ in range(4))
        den = IntPoly(rng.randrange(p**2) for _ in range(3))
        if den.degree < 0:
            continue
        h = RationalMap(num, den)
        x = rng.randrange(p**n)
        m = p ** (2 * n)
        if den.eval_mod(x, p) == 0:
            with pytest.raises(BadReductionError):
                next(h.walk(x, 1, m, m, p))
            continue
        expected = num.eval_mod(x, m) * pow(den.eval_mod(x, m), -1, m) % m
        assert next(h.walk(x, 1, m, m, p))[0] == expected


def test_rational_derivative_consistency():
    # quotient-rule derivative equals the first series coefficient
    h = RationalMap(IntPoly([1, 2, 1]), IntPoly([3, 0, 1]))
    p, m = 5, 5**4
    for x in (0, 2, 13):
        value, deriv = next(h.walk(x, 1, m, m, p))
        series = h.taylor_at(x, 2, m, p)
        assert series[0] == value
        assert series[1] == deriv


def test_reciprocal_map_level1():
    h = RationalMap(IntPoly([1]), IntPoly([0, 1]))
    dec = enumerate_level(h, 3, 1)
    assert list(zip(dec.lengths.tolist(), dec.reps.tolist())) == [(1, 1), (1, 2)]
    assert dec.excluded_points == 1  # the pole at 0


def test_oracle_route_of_each_map_type():
    """A rational map's oracle evaluates the Euclid route; a polynomial is its own."""
    h = RationalMap(IntPoly([1, 0, 1]), IntPoly([0, 1]))
    route = h.oracle_map()
    assert isinstance(route, InverseEvalMap) and (route.num, route.den) == (h.num, h.den)
    f = IntPoly([2, 1, 3])
    assert f.oracle_map() is f


def test_analyze_rational_flags_pole():
    h = RationalMap(IntPoly([1, 0, 1]), IntPoly([0, 1]))
    tree = analyze(h, 3, max_level=5)
    assert tree.bad_reduction_classes == [0]


def test_rational_tree_matches_inverse_oracle():
    """Maps with and without poles agree with the Euclid-inverse oracle, and
    analyze never reaches a pole: every node's rep lies in a class where the
    map is defined (lifts keep their class mod p, walks stay on orbits)."""
    rng = random.Random(12)
    done = with_poles = pole_map_nodes = 0
    while done < 24:
        p = rng.choice([3, 5, 7])
        num = IntPoly(rng.randrange(p * p) for _ in range(4))
        den = IntPoly(rng.randrange(p * p) for _ in range(3))
        if all(c % p == 0 for c in den.coeffs):
            continue  # zero mod p (or zero): undefined on every class
        h = RationalMap(num, den)
        oracle = build_tree_bruteforce(InverseEvalMap.of(h), p, 5)
        analyzed = analyze(h, p)
        report = verify_map(h, p, max_level=5, oracle=oracle, analyzed=analyzed)
        assert report.ok, report.details
        poles = set(analyzed.bad_reduction_classes)
        assert poles == set(h.poles(p))
        cycle_nodes = [n for n in analyzed.nodes if n.level]
        assert not [n.rep for n in cycle_nodes if n.rep % p in poles]
        done += 1
        with_poles += bool(poles)
        pole_map_nodes += len(cycle_nodes) if poles else 0
    assert 2 * with_poles >= done, f"only {with_poles} of {done} maps have poles"
    assert pole_map_nodes, "no map with poles has a cycle to analyze"
