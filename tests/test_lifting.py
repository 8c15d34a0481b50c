"""Tests for linearization data, classification, and child expansion."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletree.arith import IntPoly, Valuation, mult_order, ord_p
from cycletree.checkers import RationalMap
from cycletree.errors import BadReductionError, InvariantError, NotACycleError
from cycletree.graph import (DEFAULT_BUDGET, Cycle, _sweep_level, build_tree_bruteforce,
                             enumerate_level)
from cycletree.lifting import (LANE_MIN_P, Behavior, CycleNode, _children, _lane_walk,
                               _point_walk, _route, classify, compute_lin, compute_lin_at,
                               expand_children, make_node, multiplier_valuation)


def orbit_members(fmap, p, n):
    """The members of each cycle of f_n, cycles in rep order, as ascending
    tuples sliced from the oracle's orbit array."""
    sw = _sweep_level(fmap, p, n, DEFAULT_BUDGET)
    orbit, ends = sw.orbit.tolist(), itertools.accumulate(sw.lengths)
    return [tuple(sorted(orbit[end - k:end])) for k, end in zip(sw.lengths, ends)]


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
    cycle = next(c for c, members in zip(dec.cycles, orbit_members(f, 3, 4), strict=True)
                 if 0 in members)
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
        for cycle, members in zip(enumerate_level(f, p, n).cycles, orbit_members(f, p, n),
                                  strict=True):
            base = compute_lin(f, p, cycle)
            # different integer lifts of the same congruence class
            for z in (1, 2, p):
                other = compute_lin_at(f, p, n, cycle.length,
                                       cycle.rep + z * p**n)
                assert other.a == base.a
                assert other.b % p**base.A.value == base.b % p**base.A.value
            # arbitrary member choice: the capped pair stays put
            for member in members:
                other = compute_lin_at(f, p, n, cycle.length, member)
                assert other.a == base.a
                assert other.A == base.A
                assert (min(other.B.value, base.A.value)
                        == min(base.B.value, base.A.value))
            if any(deriv.eval_mod(m, p) == 0 for m in members):
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
                    idx = tree.cycle_index(level, nd.rep)
                    want = sorted((tree.reps[level + 1][c], tree.lengths[level + 1][c])
                                  for c in tree.children[level][idx])
                    got = sorted((c.rep, c.length) for c in kids)
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
                r = child.length // cycle.length
                child_lin = compute_lin_at(f, p, n + 1, child.length,
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
                    if child.length == cycle.length:
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
                           if c.length == cycle.length)
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
                        c = iterate_series(f, node.rep, node.length,
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
    assert [c.length for c in expand_children(f, 3, node)] == [9]

    f = IntPoly([0, 1])
    node = make_node(f, 3, Cycle(1, 1, 0))
    assert [c.length for c in expand_children(f, 3, node)] == [1, 1, 1]

    f = IntPoly([0, 0, 1])  # f'(0) = 0: the fixed point 0 grows tails
    node = make_node(f, 3, Cycle(1, 1, 0))
    assert node.classification.behavior is Behavior.GROWS_TAILS
    kids = expand_children(f, 3, node)
    assert [c.length for c in kids] == [1]
    assert kids[0].classification.behavior is Behavior.GROWS_TAILS


def _random_map(rng, p, rational):
    f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(2, 6)))
    if not rational:
        return f
    while True:
        den = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(1, 3)))
        if any(c % p for c in den.coeffs):
            return RationalMap(f, den)


def _check_children_against_reference(f, p, n, node, members, next_level, next_members):
    """Every child of ``node`` equals the oracle's cycle over it, with the lin
    and classification computed afresh at the child's rep, and its offset is
    the smallest offset of its cycle under the walked f^k offset map.
    ``members`` and ``next_members`` are the oracle's orbit slices: those of
    ``node`` and those of every cycle of ``next_level``."""
    x1, k = node.rep, node.length
    base, modulus = p**n, p ** (n + 1)
    phi = []
    for t in range(p):
        y = x1 + t * base
        for _ in range(k):
            y = next(f.walk(y, 1, modulus, modulus, p))[0]
        phi.append((y - x1) // base % p)
    over = [(c, m) for c, m in zip(next_level.cycles, next_members, strict=True)
            if c.rep % base in members]
    kids = expand_children(f, p, node)
    assert [c.rep for c in kids] == [c.rep for c, _ in over]
    for child, (ref, ref_members) in zip(kids, over):
        assert (child.level, child.length) == (ref.level, ref.length)
        walked, y = [], child.start
        for _ in range(child.length):
            walked.append(y)
            y = next(f.walk(y, 1, modulus, modulus, p))[0]
        assert tuple(sorted(walked)) == ref_members
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
        assert child.start in ref_members
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
        top = 5 if p < 11 else 4
        levels = [enumerate_level(f, p, n) for n in range(1, top)]
        members = [orbit_members(f, p, n) for n in range(1, top)]
        for n in range(1, top - 1):
            for cycle, cycle_members in zip(levels[n - 1].cycles, members[n - 1], strict=True):
                node = make_node(f, p, cycle)
                seen.add(_check_children_against_reference(
                    f, p, n, node, cycle_members, levels[n], members[n]))
    assert seen == set(Behavior)


def test_expand_matches_reference_large_prime():
    rng = random.Random(101)
    f = IntPoly(rng.randrange(101) for _ in range(4))
    levels = [enumerate_level(f, 101, n) for n in (1, 2, 3)]
    members = [orbit_members(f, 101, n) for n in (1, 2, 3)]
    for n in (1, 2):
        for cycle, cycle_members in zip(levels[n - 1].cycles, members[n - 1], strict=True):
            _check_children_against_reference(f, 101, n, make_node(f, 101, cycle),
                                              cycle_members, levels[n], members[n])


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


def _child_data(children):
    return [(c.rep, c.length, c.lin, c.classification, c.offset, c.start)
            for c in children]


def _fixed_zero_maps(rng, p, rational):
    """Maps that fix 0 mod p, with f'(0) = 1 and b = 0 (splits) or b a unit
    (grows), or with f'(0) = 0 (grows tails, a single lane); random maps at
    large p seldom have a = 1 or a = 0."""
    u, v, w = rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p)
    maps = [IntPoly([0, 1, u, v]), IntPoly([p * w, 1, u, v]), IntPoly([0, 0, 1, v])]
    if rational:  # 1 + v x^2 is a unit at 0 and leaves f(0) and f'(0) as they are
        maps = [RationalMap(f, IntPoly([1, 0, v])) for f in maps]
    return [(f, [make_node(f, p, Cycle(1, 1, 0))]) for f in maps]


@pytest.mark.parametrize("rational", [False, True])
def test_lane_walk_matches_point_walk(rational):
    """Both child walks on the same nodes: p in {101, 211, 1009} at levels 1
    and 2, and p = 101 at level 3 as well, in all four behaviours."""
    rng = random.Random(7 + rational)
    seen = set()
    for p, top in ((101, 3), (211, 2), (1009, 2)):
        assert _route(p, top) is _lane_walk
        frontier = []
        while not frontier:  # a rational map can send every point to a pole
            f = _random_map(rng, p, rational)
            frontier = [make_node(f, p, c) for c in enumerate_level(f, p, 1).cycles]
        for f, frontier in [(f, frontier)] + _fixed_zero_maps(rng, p, rational):
            for _ in range(top):
                nxt = []
                # the three shortest cycles, as the big-int walk takes k*p steps
                for node in sorted(frontier, key=lambda c: c.length)[:3]:
                    if node.length * p > 200_000:
                        continue
                    kids = _children(f, p, node, _point_walk)
                    assert _child_data(_children(f, p, node, _lane_walk)) == _child_data(kids)
                    seen.add(node.classification.behavior)
                    nxt.extend(kids)
                frontier = nxt
    assert seen == set(Behavior)


def test_lane_route_int64_boundary():
    """p = 46337 has p^2 < 2^31 < p^3: level 1 walks lanes, level 2 big ints."""
    p = 46337
    assert p**2 < 2**31 < p**3
    assert _route(p, 1) is _lane_walk and _route(p, 2) is _point_walk
    assert _route(89, 1) is _point_walk and _route(LANE_MIN_P, 1) is _lane_walk
    f = IntPoly([0, 1, 1])  # x + x^2: 0 is a fixed point that splits into p
    node = make_node(f, p, Cycle(1, 1, 0))
    kids = _children(f, p, node, _lane_walk)
    assert _child_data(kids) == _child_data(_children(f, p, node, _point_walk))
    assert _child_data(expand_children(f, p, node)) == _child_data(kids)
    child = min(kids, key=lambda c: c.length)
    assert _child_data(expand_children(f, p, child)) == \
        _child_data(_children(f, p, child, _point_walk))


def test_tampered_lin_is_caught_by_lanes():
    """As ``test_tampered_lin_is_caught``, at primes where the lanes walk:
    their end-offset check must raise and leave the node unexpanded.  Random
    maps rarely have a = 1 at large p, so f = x + u x^2 + v x^3 + p w fixes 0
    mod p with f'(0) = 1: it grows (w a unit) or splits (w = 0), and so do its
    lifts."""
    rng = random.Random(6)
    tampered = 0
    for p in (LANE_MIN_P, 211, 1009):
        for w in (0, rng.randrange(1, p)):
            f = IntPoly([p * w, 1, rng.randrange(1, p), rng.randrange(p)])
            node = make_node(f, p, Cycle(1, 1, 0))
            for node in (node, expand_children(f, p, node)[0]):
                beh = node.classification.behavior
                assert beh in (Behavior.GROWS, Behavior.SPLITS)
                assert _route(p, node.level) is _lane_walk
                wrong_b = 0 if beh is Behavior.GROWS else 1
                for lin in (dataclasses.replace(node.lin,
                                                b=node.lin.b + wrong_b - node.lin.b % p),
                            dataclasses.replace(node.lin, a=node.lin.a + 1)):
                    bad = CycleNode(node.level, node.length, node.rep, lin, classify(lin, p))
                    with pytest.raises(InvariantError, match="t -> b"):
                        expand_children(f, p, bad)
                    assert not bad.expanded and bad.children == []
                    tampered += 1
    assert tampered == 24


@pytest.mark.parametrize("p", [7, LANE_MIN_P])
def test_pole_raises_bad_reduction(p):
    """A walk that meets a pole raises BadReductionError on either route: here
    a split fixed point of the identity, handed to 1/x, whose lifts are all
    poles."""
    node = make_node(IntPoly([0, 1]), p, Cycle(1, 1, 0))
    bad = CycleNode(node.level, node.length, node.rep, node.lin, node.classification)
    with pytest.raises(BadReductionError):
        expand_children(RationalMap(IntPoly([1]), IntPoly([0, 1])), p, bad)
    assert not bad.expanded and bad.children == []


@pytest.mark.parametrize("p, message", [(7, "offset cycle length"),
                                        (LANE_MIN_P, "returns to its fiber")])
def test_early_return_is_caught(p, message):
    """A node claiming twice its cycle length: its lifts return to their fiber
    after k steps, which both walks must reject.  Where the offset map is the
    identity (splits) or constant (grows tails), f^{2k} moves offsets as f^k
    does, so only this check can object."""
    rng = random.Random(p)
    maps = _fixed_zero_maps(rng, p, False)
    for _ in range(3):
        f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(2, 6)))
        maps.append((f, [make_node(f, p, c) for c in enumerate_level(f, p, 1).cycles[:3]]))
    seen = set()
    for f, nodes in maps:
        for node in nodes:
            bad = CycleNode(1, 2 * node.length, node.rep, node.lin, node.classification)
            with pytest.raises(InvariantError, match=message):
                expand_children(f, p, bad)
            assert not bad.expanded and bad.children == []
            seen.add(node.classification.behavior)
    assert {Behavior.SPLITS, Behavior.GROWS_TAILS} <= seen


def _one_walk_valuation(fmap, p, node, cap):
    """Reference: ord_p((f^k)' - 1) capped at cap, from one walk at p^(cap+1)."""
    work = p ** (cap + 1)
    a = 1
    for _, der in fmap.walk(node.rep, node.length, work, work, p):
        a = a * der % work
    return ord_p(a - 1, p, cap)


def _near_root_of_unity(p, lam0, alpha, j, tail, rational):
    """alpha + w(x - alpha) + p^j tail(x), w the root of unity mod p^40 over
    lam0; as a RationalMap it is divided by the unit 1 + p^j x.  A walk of
    d = ord(lam0) steps from alpha has a multiplier near w^d = 1, so its
    valuation runs up to about j."""
    w = pow(lam0, p**39, p**40)
    coeffs = [alpha - w * alpha, w]
    poly = IntPoly([c + p**j * t for c, t in itertools.zip_longest(coeffs, tail, fillvalue=0)])
    if rational:
        return RationalMap(poly, IntPoly([1, p**j]))
    return poly


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((3, 5, 7, 11, 13)), data=st.data())
def test_multiplier_valuation_matches_one_walk(p, data):
    """The rising-precision walks agree with one walk at p^(cap+1), on
    polynomials and on rational maps with a unit denominator."""
    lam0 = data.draw(st.integers(1, p - 1))
    d = mult_order(lam0, p)
    fmap = _near_root_of_unity(
        p, lam0, data.draw(st.integers(0, p * p)), data.draw(st.integers(1, 12)),
        data.draw(st.lists(st.integers(0, p**3), max_size=4)), data.draw(st.booleans()))
    start = data.draw(st.integers(0, p**3))
    cap = data.draw(st.sampled_from((1, 2, 3, 4, 6, 8, 10, 12, 16, 17, 24)))
    node = CycleNode(1, d * data.draw(st.integers(1, 2)), start, None, None)
    assert multiplier_valuation(fmap, p, node, cap) == _one_walk_valuation(fmap, p, node, cap)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("cap", [1, 2, 6, 10, 16, 23])
def test_exact_kd_multiplier_saturates(p, cap):
    """f = -x and f = w*x with w of order d mod p^(cap+1): the d-step
    multiplier is 1 at every precision walked, so the valuation saturates."""
    w = pow(2, p**cap, p ** (cap + 1))
    d = mult_order(2, p)
    for f, length in ((IntPoly([0, -1]), 2), (IntPoly([0, w]), d),
                      (RationalMap(IntPoly([0, w]), IntPoly([1])), d)):
        node = CycleNode(1, length, 1, None, None)
        assert multiplier_valuation(f, p, node, cap) == Valuation(cap, True)
        assert _one_walk_valuation(f, p, node, cap) == Valuation(cap, True)


def _recorded_works(monkeypatch, fmap):
    works = []
    real = type(fmap).walk

    def walk(self, x, steps, work, dwork, p):
        works.append(work)
        return real(self, x, steps, work, dwork, p)

    monkeypatch.setattr(type(fmap), "walk", walk)
    return works


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 9, 14])
def test_multiplier_valuation_precision(monkeypatch, rational, p, j):
    """f = w(1 + p^j)x, w of order d mod p^21: the d-step multiplier is
    (1 + p^j)^d, of valuation exactly j.  An unsaturated result e walks no
    higher than p^(2e+1); a saturated one ends with a walk at p^(cap+1)."""
    d = mult_order(2, p)
    w = pow(2, p**20, p**21) * (1 + p**j)
    f = RationalMap(IntPoly([0, w]), IntPoly([1])) if rational else IntPoly([0, w])
    works = _recorded_works(monkeypatch, f)
    for cap in (1, 2, 3, 6, 10, 12):
        works.clear()
        e = multiplier_valuation(f, p, CycleNode(1, d, 1, None, None), cap)
        assert e == (Valuation(j, False) if j < cap else Valuation(cap, True))
        assert works == sorted(works) and works
        if e.saturated:
            assert works[-1] == p ** (cap + 1)
        else:
            assert max(works) <= p ** (2 * e.value + 1)
