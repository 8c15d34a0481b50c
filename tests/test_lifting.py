"""Tests for linearization data, classification, and child expansion."""

import dataclasses
import random

import pytest

from cycletree.arith import IntPoly, Valuation, mult_order
from cycletree.checkers import RationalMap
from cycletree.errors import NotACycleError
from cycletree.graph import Cycle, build_tree_bruteforce, enumerate_level
from cycletree.lifting import (Behavior, classify, compute_lin, compute_lin_at,
                               expand_children, make_node)


def test_translation_cycle_grows():
    # f = x + 1, p = 5: the 5-cycle of f_1 has iterate x + 5
    f = IntPoly([1, 1])
    cycle = enumerate_level(f, 5, 1).cycles[0]
    lin = compute_lin(f, 5, cycle)
    assert lin.a == 1
    assert lin.b == 1
    assert lin.A == Valuation(1, True)
    assert lin.B == Valuation(0, False)
    assert classify(lin, 5).behavior is Behavior.GROWS


def test_identity_fixed_point_splits():
    f = IntPoly([0, 1])
    for n in (1, 2, 3):
        lin = compute_lin_at(f, 7, n, 1, 3)
        assert lin.a == 1 and lin.b == 0
        assert lin.A == Valuation(n, True)
        assert lin.B == Valuation(n, True)
        assert classify(lin, 7).behavior is Behavior.SPLITS


def test_quintic_level4_values():
    f = IntPoly([2, 1, 3, 1, 3, 2])
    dec = enumerate_level(f, 3, 4)
    cycle = next(c for c in dec.cycles if 0 in c.members)
    lin = compute_lin(f, 3, cycle)
    assert lin.A == Valuation(3, False)
    assert lin.B == Valuation(4, True)


def test_classify_table():
    from cycletree.lifting import LinearData
    from cycletree.arith import ord_p

    def lin(p, n, a, b):
        return LinearData(p, n, a, b, ord_p(a - 1, p, n), ord_p(b, p, n))

    assert classify(lin(3, 2, 1, 2), 3).behavior is Behavior.GROWS
    assert classify(lin(3, 2, 1, 3), 3).behavior is Behavior.SPLITS
    assert classify(lin(5, 2, 5, 2), 5).behavior is Behavior.GROWS_TAILS
    cls = classify(lin(5, 2, 2, 1), 5)
    assert cls.behavior is Behavior.PARTIALLY_SPLITS
    assert cls.d == mult_order(2, 5) == 4


def test_not_a_cycle_errors():
    f = IntPoly([1, 1])
    with pytest.raises(NotACycleError):
        compute_lin_at(f, 5, 1, 3, 0)  # the 5-cycle is not a 3-cycle
    with pytest.raises(NotACycleError):
        compute_lin_at(IntPoly([0, 1]), 5, 1, 5, 0)  # fixed point, not a 5-cycle


def test_representative_independence():
    """What survives a change of representative:

    * a mod p^n: always.
    * b mod p^A: under re-lifting the same class to another integer.
    * min(ord b, n): under rotation along the induced integers f(x1), when
      f' is a unit on the cycle.
    * min(B, A): under arbitrary member choice (what the predictor consumes).
    """
    rng = random.Random(8)
    for _ in range(12):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 3)
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        deriv = f.derivative()
        for cycle in enumerate_level(f, p, n).cycles:
            base = compute_lin(f, p, cycle)
            # different integer lifts of the same congruence class
            for z in (1, 2, p):
                other = compute_lin_at(f, p, n, cycle.length,
                                       cycle.rep + z * p**n)
                assert other.a == base.a
                assert other.b % p**base.A.value == base.b % p**base.A.value
            # arbitrary member choice: the capped pair stays put
            for member in cycle.members:
                other = compute_lin_at(f, p, n, cycle.length, member)
                assert other.a == base.a
                assert other.A == base.A
                assert (min(other.B.value, base.A.value)
                        == min(base.B.value, base.A.value))
            if any(deriv.eval_mod(m, p) == 0 for m in cycle.members):
                continue  # ord(b) rotation invariance needs unit derivatives
            y = cycle.rep
            work = p ** (2 * n)
            for _ in range(cycle.length - 1):
                y = f.eval_mod(y, work)
                other = compute_lin_at(f, p, n, cycle.length, y)
                assert other.a == base.a
                assert other.B == base.B


def test_expand_matches_oracle():
    rng = random.Random(21)
    for _ in range(15):
        p = rng.choice([3, 5, 7])
        f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(2, 6)))
        tree = build_tree_bruteforce(f, p, 4)
        for cyc in enumerate_level(f, p, 1).cycles:
            node = make_node(f, p, cyc)
            frontier = [node]
            for level in range(1, 4):
                nxt = []
                for nd in frontier:
                    kids = expand_children(f, p, nd)
                    idx = tree.cycle_index(level, nd.cycle.rep)
                    want = sorted((tree.reps[level + 1][c], tree.lengths[level + 1][c])
                                  for c in tree.children[level][idx])
                    got = sorted((c.cycle.rep, c.cycle.length) for c in kids)
                    assert got == want
                    nxt.extend(kids)
                frontier = nxt


def test_chain_congruences_at_expansion():
    """a' = a^r and p b' = t(a^r - 1) + b(1 + a + ... + a^{r-1})  (mod p^n)."""
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 3)
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        for cycle in enumerate_level(f, p, n).cycles:
            node = make_node(f, p, cycle)
            a, b = node.lin.a, node.lin.b
            base = p**n
            for child in expand_children(f, p, node):
                r = child.cycle.length // cycle.length
                child_lin = compute_lin_at(f, p, n + 1, child.cycle.length,
                                           child.start)
                a_pow = pow(a, r, base)
                geo = sum(pow(a, j, base) for j in range(r)) % base
                assert (child_lin.a - a_pow) % base == 0
                lhs = p * child_lin.b % base
                rhs = (child.offset * (a_pow - 1) + b * geo) % base
                assert lhs == rhs
                checked += 1


def test_classification_inheritance():
    rng = random.Random(13)
    seen = set()
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        for cycle in enumerate_level(f, p, 1).cycles:
            node = make_node(f, p, cycle)
            beh = node.classification.behavior
            seen.add(beh)
            for child in expand_children(f, p, node):
                cbeh = child.classification.behavior
                if beh in (Behavior.GROWS, Behavior.SPLITS):
                    assert cbeh in (Behavior.GROWS, Behavior.SPLITS)
                elif beh is Behavior.GROWS_TAILS:
                    assert cbeh is Behavior.GROWS_TAILS
                else:
                    if child.cycle.length == cycle.length:
                        assert cbeh is Behavior.PARTIALLY_SPLITS
                        assert child.classification.d == node.classification.d
                    else:
                        assert cbeh in (Behavior.GROWS, Behavior.SPLITS)
    assert Behavior.PARTIALLY_SPLITS in seen and Behavior.GROWS_TAILS in seen


def test_partial_split_fixed_offset():
    """The same-length lift of a partial split sits at offset -b/(a-1)."""
    rng = random.Random(2)
    found = 0
    while found < 10:
        p = rng.choice([5, 7])
        f = IntPoly(rng.randrange(p * p) for _ in range(5))
        for cycle in enumerate_level(f, p, rng.randint(1, 2)).cycles:
            node = make_node(f, p, cycle)
            if node.classification.behavior is not Behavior.PARTIALLY_SPLITS:
                continue
            k_child = next(c for c in expand_children(f, p, node)
                           if c.cycle.length == cycle.length)
            a, b = node.lin.a, node.lin.b
            t_expected = -b * pow(a - 1, -1, p) % p
            assert k_child.offset == t_expected
            found += 1


def test_growth_persistence():
    """A growing cycle's lift grows again at every level >= 2 (and at level 1
    for p > 3); the p = 3 level-1 exception happens exactly when b = c."""
    rng = random.Random(77)
    from cycletree.arith import iterate_series

    for _ in range(30):
        p = rng.choice([3, 5, 7])
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        frontier = [make_node(f, p, c) for c in enumerate_level(f, p, 1).cycles]
        for level in range(1, 4):
            nxt = []
            for node in frontier:
                kids = expand_children(f, p, node)
                if node.classification.behavior is Behavior.GROWS:
                    assert len(kids) == 1
                    child = kids[0]
                    if level >= 2 or p > 3:
                        assert child.classification.behavior is Behavior.GROWS
                    else:
                        c = iterate_series(f, node.cycle.rep, node.cycle.length,
                                           2, modulus=27)[2] % 3
                        expect_split = node.lin.b % 3 == c
                        is_split = child.classification.behavior is Behavior.SPLITS
                        assert is_split == expect_split
                nxt.extend(kids)
            frontier = nxt


def test_expected_child_multisets():
    # grows -> one child of length pk; splits -> p children of length k;
    # tails -> single child of length k; partial -> 1 + (p-1)/d children
    f = IntPoly([1, 1])
    node = make_node(f, 3, enumerate_level(f, 3, 1).cycles[0])
    assert [c.cycle.length for c in expand_children(f, 3, node)] == [9]

    f = IntPoly([0, 1])
    node = make_node(f, 3, Cycle(1, 1, 0, (0,)))
    assert [c.cycle.length for c in expand_children(f, 3, node)] == [1, 1, 1]

    f = IntPoly([0, 0, 1])  # f'(0) = 0: the fixed point 0 grows tails
    node = make_node(f, 3, Cycle(1, 1, 0, (0,)))
    assert node.classification.behavior is Behavior.GROWS_TAILS
    kids = expand_children(f, 3, node)
    assert [c.cycle.length for c in kids] == [1]
    assert kids[0].classification.behavior is Behavior.GROWS_TAILS


def _random_map(rng, p, rational):
    f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(2, 6)))
    if not rational:
        return f
    while True:
        den = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(1, 3)))
        if any(c % p for c in den.coeffs):
            return RationalMap(f, den)


def _check_children_against_reference(f, p, n, node, next_level):
    """Every child of ``node`` equals the oracle's cycle over it, with the lin
    and classification computed afresh at the child's rep, and its offset is
    the smallest offset of its cycle under the walked f^k offset map."""
    x1, k = node.cycle.rep, node.cycle.length
    base, modulus = p**n, p ** (n + 1)
    phi = []
    for t in range(p):
        y = x1 + t * base
        for _ in range(k):
            y = f.value(y, modulus, p)
        phi.append((y - x1) // base % p)
    over = [c for c in next_level.cycles if c.rep % base in node.cycle.members]
    kids = expand_children(f, p, node)
    assert [c.cycle.rep for c in kids] == [c.rep for c in over]
    for child, ref in zip(kids, over):
        assert (child.cycle.level, child.cycle.length) == (ref.level, ref.length)
        assert child.cycle.members == ref.members
        lin = compute_lin(f, p, ref)
        assert child.lin == lin
        assert child.classification == classify(lin, p)
        orbit, t = [child.offset], phi[child.offset]
        while t != child.offset:
            assert len(orbit) < p, "offset is not on a cycle of the offset map"
            orbit.append(t)
            t = phi[t]
        assert child.offset == min(orbit)
        assert child.start == x1 + child.offset * base
        assert child.start in child.cycle.members
    return node.classification.behavior


@pytest.mark.parametrize("rational", [False, True])
def test_expand_matches_reference(rational):
    """Closed-form expansion against enumeration, compute_lin and a walked
    offset map, at p in {3, 5, 7, 11} with n <= 3."""
    rng = random.Random(31 + rational)
    seen = set()
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11])
        f = _random_map(rng, p, rational)
        levels = [enumerate_level(f, p, n) for n in range(1, 5 if p < 11 else 4)]
        for n, (level, next_level) in enumerate(zip(levels, levels[1:]), 1):
            for cycle in level.cycles:
                node = make_node(f, p, cycle)
                seen.add(_check_children_against_reference(f, p, n, node, next_level))
    assert seen == set(Behavior)


def test_expand_matches_reference_large_prime():
    rng = random.Random(101)
    f = IntPoly(rng.randrange(101) for _ in range(4))
    levels = [enumerate_level(f, 101, n) for n in (1, 2, 3)]
    for n, (level, next_level) in enumerate(zip(levels, levels[1:]), 1):
        for cycle in level.cycles:
            _check_children_against_reference(f, 101, n, make_node(f, 101, cycle),
                                              next_level)


def test_tampered_lin_is_caught():
    """The offset map comes from (a, b) alone, so a wrong (a, b) must be
    caught by the walk of the real map, not turned into children.  The
    classification is tampered to match, so the lift-length law agrees with
    the wrong offset cycles and only the walk can object."""
    rng = random.Random(4)
    tampered = 0
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(2, 6)))
        for cycle in enumerate_level(f, p, rng.randint(1, 2)).cycles:
            node = make_node(f, p, cycle)
            beh = node.classification.behavior
            if beh not in (Behavior.GROWS, Behavior.SPLITS):
                continue
            wrong_b = 0 if beh is Behavior.GROWS else 1
            for lin in (dataclasses.replace(node.lin, b=node.lin.b + wrong_b - node.lin.b % p),
                        dataclasses.replace(node.lin, a=node.lin.a + 1)):
                bad = make_node(f, p, cycle)
                bad.lin, bad.classification = lin, classify(lin, p)
                with pytest.raises(AssertionError):
                    expand_children(f, p, bad)
                assert not bad.expanded and bad.children == []
                tampered += 1
    assert tampered >= 20
