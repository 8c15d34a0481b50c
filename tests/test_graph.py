"""Tests for the brute-force oracle."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycletree import cli, graph
from cycletree.arith import IntPoly, MapProtocol
from cycletree.checkers import InverseEvalMap, RationalMap
from cycletree.errors import BudgetExceededError
from cycletree.graph import (DEFAULT_BUDGET, ORACLE_MAX_POINTS, build_tree_bruteforce,
                             distance_to_cycle, enumerate_level, tail_analysis,
                             tail_length_by_cycle)


def orbit_members(fmap, p, n):
    """The members of each cycle of f_n, cycles in rep order, as ascending
    tuples sliced from the oracle's orbit array."""
    sw = enumerate_level(fmap, p, n, DEFAULT_BUDGET)
    orbit, ends = sw.orbit.tolist(), itertools.accumulate(sw.lengths)
    return [tuple(sorted(orbit[end - k:end])) for k, end in zip(sw.lengths, ends)]


def brute_decompose(f, p, n):
    """Independent reference sweep: dict successor walk, no numpy."""
    m = p**n
    succ = {x: f.eval_mod(x, m) for x in range(m)}
    state = {}
    cycles = []
    for s in range(m):
        if s in state:
            continue
        path, x = [], s
        while x not in state and x not in set(path):
            path.append(x)
            x = succ[x]
        if x in path:
            i = path.index(x)
            cycles.append(sorted(path[i:]))
            for y in path[i:]:
                state[y] = "c"
            for y in path[:i]:
                state[y] = "t"
        else:
            # path feeds an already-settled point: everything on it is a tail
            for y in path:
                state[y] = "t"
    tails = sum(1 for v in state.values() if v != "c")
    return sorted(cycles), tails


def reference_level(fmap, p, n):
    """Independent reference with poles: dict walk over exact integer values.

    Returns (the cycles in rep order, each in orbit order from its rep as
    the smallest member; tail points; poles; [(cycle length, longest tail)]
    in rep order for cycles that own tails; per-residue distance to a cycle;
    per-residue rep of the cycle entered).  Poles and the points whose orbit
    meets a pole have distance -1 and rep None.
    """
    m = p**n
    if isinstance(fmap, IntPoly):
        succ = {x: fmap(x) % m for x in range(m)}
    else:
        succ = {x: None if fmap.den(x) % p == 0 else fmap.num(x) * pow(fmap.den(x), -1, m) % m
                for x in range(m)}
    cycles, rep_of, settled = [], {}, set()
    for s in range(m):
        path, pos, x = [], {}, s
        while x is not None and x not in settled and x not in pos:
            pos[x] = len(path)
            path.append(x)
            x = succ[x]
        if x is not None and x in pos:
            cycle = path[pos[x]:]
            i = cycle.index(min(cycle))
            cycles.append(cycle[i:] + cycle[:i])
            for y in cycle:
                rep_of[y] = cycle[i]
        settled.update(path)
    dist = {y: 0 for y in rep_of}
    owner = dict(rep_of)
    for s in range(m):
        path, x = [], s
        while x is not None and x not in dist:
            path.append(x)
            x = succ[x]
        d, o = (dist[x], owner[x]) if x is not None else (-1, None)
        for y in reversed(path):
            d = d + 1 if o is not None else -1
            dist[y], owner[y] = d, o
    cycles.sort()
    longest = {c[0]: 0 for c in cycles}
    for y, rep in owner.items():
        if rep is not None:
            longest[rep] = max(longest[rep], dist[y])
    poles = sum(1 for y in succ.values() if y is None)
    pairs = [(len(c), longest[c[0]]) for c in cycles if longest[c[0]] > 0]
    return cycles, m - len(rep_of) - poles, poles, pairs, dist, owner


def _coeffs(p):
    return st.lists(st.one_of(st.integers(0, p * p), st.integers(-2**80, 2**80)), max_size=6)


@st.composite
def maps(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    num = IntPoly(draw(_coeffs(p)))
    if draw(st.booleans()):
        return p, num
    den = IntPoly(draw(_coeffs(p).filter(any)))
    return p, draw(st.sampled_from([RationalMap, InverseEvalMap]))(num, den)


# The top level of each sweep case's prime: every level up to p^n <= 20000.
TOP = {3: 9, 5: 6, 7: 5, 131: 2}


def sweep_cases(test):
    """Drawn maps plus the edge cases of the sweep."""
    for case in [
        (3, IntPoly([])),  # zero map
        (5, IntPoly([4])),  # constant map
        (3, IntPoly([2**70 + 2, 1, 3, 1, 3, 2])),  # coefficient beyond int64
        (3, InverseEvalMap(IntPoly([2, 3, 1, 5]), IntPoly([2, 6, 4]))),  # poles at 1, 2 mod 3
        (3, RationalMap(IntPoly([0, 1, 1]), IntPoly([1, 0, 1]))),  # 1 + x^2 has no root mod 3
        (3, RationalMap(IntPoly([1]), IntPoly([0, 1]))),  # 1/x: a pole at 0, -1 fixed
        (3, IntPoly([0, 1])),  # identity: every point its own cycle
        (3, IntPoly([1, 1])),  # x + 1: one 3^9-point cycle, the most doubling rounds
        (3, IntPoly([0, 3])),  # 3x: tails up to n long into 0, the most peeling rounds
        (3, RationalMap(IntPoly([3]), IntPoly([0, 1]))),  # 3/x: no cycle at any level >= 1
        (131, RationalMap(IntPoly([1, 0, 1]), IntPoly([-5, 1]))),  # a clipped table block at 131^2
    ]:
        test = example(case)(test)
    return settings(max_examples=15, deadline=None)(given(maps())(test))


@sweep_cases
def test_sweep_matches_reference_with_poles(case):
    # every level up to p^n <= 20000, from a few points to the largest
    p, fmap = case
    top = TOP[p]
    tree = build_tree_bruteforce(fmap, p, top, with_tail_lengths=True)
    for n in range(1, top + 1):
        cycles, tails, poles, pairs, dist, owner = reference_level(fmap, p, n)
        orbit = tree.orbits[n].tolist()
        ends = [sum(tree.lengths[n][:i + 1]) for i in range(len(tree.lengths[n]))]
        assert [orbit[e - k:e] for e, k in zip(ends, tree.lengths[n])] == cycles
        assert tree.reps[n] == [c[0] for c in cycles]
        assert tree.tail_points[n] == tails + poles
        assert tree.tail_pairs[n] == pairs
        dec = enumerate_level(fmap, p, n)
        members = [tuple(sorted(orbit[e - k:e])) for e, k in zip(ends, tree.lengths[n])]
        assert list(zip(dec.reps.tolist(), dec.lengths.tolist(), members, strict=True)) == \
            [(c[0], len(c), tuple(sorted(c))) for c in cycles]
        assert (dec.tail_point_count, dec.excluded_points) == (tails, poles)
        got_dist, got_owner = distance_to_cycle(enumerate_level(fmap, p, n, DEFAULT_BUDGET))
        assert got_dist.tolist() == [dist[x] for x in range(p**n)]
        assert [tree.reps[n][i] if i >= 0 else None for i in got_owner.tolist()] == \
            [owner[x] for x in range(p**n)]


@sweep_cases
def test_contracted_sweep_matches_reference_with_poles(case):
    # The same levels through the leader contraction, which otherwise starts at
    # 2^18 cyclic points: the identity bails out, x + 1 walks one cycle of leaders.
    with mock.patch.object(graph, "LEADER_MIN_POINTS", 1):
        test_sweep_matches_reference_with_poles.hypothesis.inner_test(case)


def basin_tail_pairs(sweep):
    """(cycle length, longest tail) for cycles with tails, from the per-owner
    maximum of the outward distances."""
    dist, owner = distance_to_cycle(sweep)
    longest = [0] * len(sweep.reps)
    for d, o in zip(dist.tolist(), owner.tolist()):
        if d > 0:
            longest[o] = max(longest[o], d)
    return [(k, t) for k, t in zip(sweep.lengths.tolist(), longest) if t]


@example((3, InverseEvalMap(IntPoly([0, 0, 1]), IntPoly([1, 1]))))  # 1 -> 1/2: a chain into a pole
@example((3, IntPoly([3, 0, 3])))  # 3 + 3x^2: almost every residue on a tail, peeled over rounds
@sweep_cases
def test_peeling_rounds_match_outward_distances(case):
    # every level up to p^n <= 20000, on both labelling paths
    p, fmap = case
    for n in range(1, TOP[p] + 1):
        for leaders in (graph.LEADER_MIN_POINTS, 1):
            with mock.patch.object(graph, "LEADER_MIN_POINTS", leaders):
                sw = enumerate_level(fmap, p, n)
            assert sw.tails.dtype == np.int32
            assert tail_length_by_cycle(sw) == basin_tail_pairs(sw)


class HandTable(MapProtocol):
    """One fixed successor table, -1 at poles, whatever the modulus."""

    def __init__(self, succ):
        self.succ = succ

    def table(self, modulus, p):
        return np.array(self.succ, dtype=np.int64)


def test_longest_tail_through_a_feeder_with_preimages_of_different_rounds():
    # Mod 27: the 2-cycle 0 <-> 1 is fed by 2 <- 3 and by 4, whose preimages are the
    # leaf 5 (round 0) and the end of 8 -> 7 -> 6 (round 2), so 4 is peeled in round 3
    # and the longest tail, 8 -> 7 -> 6 -> 4 -> 1, is 4 long.  9 is a pole fed by the
    # chain 11 -> 10, which enters no cycle; 13 is fixed and fed by 15 -> 14; 12 and
    # 16..26 are fixed with no tail.
    succ = [1, 0, 0, 2, 1, 4, 4, 6, 7, -1, 9, 10, 12, 13, 13, 14] + list(range(16, 27))
    sw = enumerate_level(HandTable(succ), 3, 3)
    assert sw.reps.tolist() == [0, 12, 13] + list(range(16, 27))
    assert sw.tails.tolist() == [4, 0, 2] + [0] * 11
    assert tail_length_by_cycle(sw) == [(2, 4), (1, 2)] == basin_tail_pairs(sw)
    assert (sw.tail_point_count, sw.excluded_points) == (11, 1)
    dist, owner = distance_to_cycle(sw)
    assert dist[[8, 3, 15, 11]].tolist() == [4, 2, 2, -1]
    assert owner[[8, 3, 15, 11]].tolist() == [0, 0, 2, -1]


@pytest.mark.parametrize("p, n, coeffs", [
    (3, 12, [2, 1, 3, 1, 3, 2]),  # README quintic: 531,441 cyclic points
    (3, 12, [1, 1]),  # x + 1: one cycle
    (5, 8, [0, 1]),  # identity: the bail-out to plain doubling
    (5, 8, [0, -1]),  # x -> -x: 2-cycles, the bail-out too
    (3, 12, [32, 1]),  # x + 32: the orbit steps by 32, in step with strided leaders
])
def test_contraction_matches_plain_doubling(p, n, coeffs):
    f = IntPoly(coeffs)
    got = enumerate_level(f, p, n)
    assert len(got.orbit) >= graph.LEADER_MIN_POINTS
    with mock.patch.object(graph, "LEADER_MIN_POINTS", ORACLE_MAX_POINTS):
        want = enumerate_level(f, p, n)
    for name in ("labels", "reps", "lengths", "orbit"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_enumerate_square_mod_3():
    dec = enumerate_level(IntPoly([0, 0, 1]), 3, 1)
    assert list(zip(dec.lengths.tolist(), dec.reps.tolist())) == [(1, 0), (1, 1)]
    assert dec.tail_point_count == 1


def test_enumerate_translation():
    dec = enumerate_level(IntPoly([1, 1]), 3, 2)
    assert len(dec.reps) == 1
    assert dec.lengths[0] == 9
    assert dec.tail_point_count == 0


def test_enumerate_quintic_level_4():
    f = IntPoly([2, 1, 3, 1, 3, 2])
    dec = enumerate_level(f, 3, 4)
    with_zero = [(k, m) for k, m in zip(dec.lengths.tolist(), orbit_members(f, 3, 4),
                                        strict=True) if 0 in m]
    assert len(with_zero) == 1
    assert with_zero[0][0] == 9
    assert with_zero[0][1] == (0, 2, 14, 22, 33, 35, 39, 55, 61)


def test_level_zero():
    dec = enumerate_level(IntPoly([5, 3]), 7, 0)
    assert len(dec.reps) == 1
    assert dec.lengths[0] == 1 and dec.reps[0] == 0
    assert dec.tail_point_count == 0


@pytest.mark.parametrize("seed", range(6))
def test_sweep_matches_reference(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    n = rng.randint(1, 4)
    f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(1, 6)))
    dec = enumerate_level(f, p, n)
    members = orbit_members(f, p, n)
    assert list(zip(dec.reps.tolist(), dec.lengths.tolist())) == [(m[0], len(m)) for m in members]
    got = sorted(list(m) for m in members)
    want, tails = brute_decompose(f, p, n)
    assert got == want
    assert dec.tail_point_count == tails


def test_numpy_and_python_paths_agree():
    # 3^8 = 6561 points against the naive reference
    f = IntPoly([2, 1, 3, 1, 3, 2])
    dec = enumerate_level(f, 3, 8)
    want, tails = brute_decompose(f, 3, 8)
    members = orbit_members(f, 3, 8)
    assert list(zip(dec.reps.tolist(), dec.lengths.tolist())) == [(m[0], len(m)) for m in members]
    got = sorted(list(m) for m in members)
    assert got == want and dec.tail_point_count == tails


def test_partition_invariant():
    rng = random.Random(99)
    for _ in range(10):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 4)
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        dec = enumerate_level(f, p, n)
        assert sum(dec.lengths.tolist()) + dec.tail_point_count == p**n


def test_budget_error_carries_requirement():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_level(IntPoly([0, 1]), 5, 9, budget=10**4)
    assert err.value.required == 5**9
    assert str(err.value).endswith("budget is 10000")


class TableReached(Exception):
    """Raised by ``TableRaises.table``: the oracle got past its size check."""


class TableRaises(MapProtocol):
    def table(self, modulus, p):
        raise TableReached(modulus)


@pytest.mark.parametrize("p, n", [(11, 9), (3, 20)])
def test_oracle_refuses_more_than_2_31_points(p, n, capsys):
    """Above 2^31 residues the oracle refuses whatever the budget, before it
    asks the map for a table, and says the cap refused, not the budget;
    11^9 lies between 2^31 and 3e9."""
    assert p**n > ORACLE_MAX_POINTS == 2**31
    cap = f"the oracle's 2^31-point cap (no budget raises it) is {ORACLE_MAX_POINTS}"
    for build in (enumerate_level, build_tree_bruteforce):
        with pytest.raises(BudgetExceededError) as err:
            build(TableRaises(), p, n, budget=10**10)
        assert err.value.required == p**n
        assert str(err.value).endswith(cap)
    assert cli.main(["verify", "--prime", str(p), "--poly", "0,1", "--max-level", str(n),
                     "--budget", str(10**10)]) == cli.EXIT_BUDGET
    assert cap in capsys.readouterr().err


def test_oracle_admits_7_11():
    """7^11 is below 2^31, so the size check passes and the map's table is asked for."""
    assert 7**11 < ORACLE_MAX_POINTS
    with pytest.raises(TableReached) as err:
        enumerate_level(TableRaises(), 7, 11, budget=10**10)
    assert err.value.args == (7**11,)
    with pytest.raises(TableReached):
        build_tree_bruteforce(TableRaises(), 7, 11, budget=10**10)


def test_tree_identity_map():
    tree = build_tree_bruteforce(IntPoly([0, 1]), 3, 2)
    assert tree.lengths[0] == [1]
    assert tree.lengths[1] == [1, 1, 1]
    assert tree.lengths[2] == [1] * 9
    assert tree.children[0][0] == [0, 1, 2]
    for idx in range(3):
        assert len(tree.children[1][idx]) == 3


def test_tree_translation_path():
    tree = build_tree_bruteforce(IntPoly([1, 1]), 3, 3)
    assert [tree.lengths[n] for n in range(4)] == [[1], [3], [9], [27]]
    assert all(t == 0 for t in tree.tail_points)


def test_tree_pathological_chain():
    # x + 3x^2: the chain through 0 is a fixed point at every level
    tree = build_tree_bruteforce(IntPoly([0, 1, 3]), 3, 4)
    level, idx = 1, tree.cycle_index(1, 0)
    for n in range(1, 4):
        assert tree.lengths[level][idx] == 1
        kids = tree.children[level][idx]
        same = [c for c in kids if tree.reps[level + 1][c] == 0]
        assert len(same) == 1
        level, idx = level + 1, same[0]


def test_tree_parent_projection():
    rng = random.Random(3)
    for _ in range(5):
        p = rng.choice([3, 5])
        f = IntPoly(rng.randrange(p * p) for _ in range(5))
        tree = build_tree_bruteforce(f, p, 3)
        for level in range(1, 4):
            for idx, rep in enumerate(tree.reps[level]):
                parent = tree.parents[level][idx]
                members = set()
                x = rep
                for _ in range(tree.lengths[level][idx]):
                    members.add(x % p ** (level - 1))
                    x = f.eval_mod(x, p**level)
                want = set()
                y = tree.reps[level - 1][parent]
                for _ in range(tree.lengths[level - 1][parent]):
                    want.add(y)
                    y = f.eval_mod(y, p ** (level - 1))
                assert members <= want or level == 1


def test_no_tails_over_noncritical_cycles():
    # if f' has no root on any mod-p cycle member, everything above lies on cycles
    rng = random.Random(11)
    found = 0
    while found < 5:
        p = rng.choice([3, 5])
        f = IntPoly(rng.randrange(p * p) for _ in range(5))
        members = [m for c in orbit_members(f, p, 1) for m in c]
        deriv = f.derivative()
        if any(deriv.eval_mod(m, p) == 0 for m in members):
            continue
        found += 1
        for n in (2, 3):
            dec = enumerate_level(f, p, n)
            cyclic = sum(dec.lengths.tolist())
            expected = len(members) * p ** (n - 1)
            assert cyclic == expected


def test_tail_histogram_square_p5():
    stats = tail_analysis(IntPoly([0, 0, 1]), 5, 4, 0)
    assert stats.preimage_histogram == {10: 10, 25: 1}
    assert stats.expected_histogram == {10: 10, 25: 1}
    assert stats.shape_matches is True
    assert stats.max_tail_length <= 5 + (4 - 2) * 1


def test_tail_histogram_small_level():
    stats = tail_analysis(IntPoly([0, 0, 1]), 5, 2, 0)
    assert stats.preimage_histogram == {5: 1}
    assert stats.shape_matches is True


def test_tail_histogram_degenerate_second_derivative():
    stats = tail_analysis(IntPoly([0, 0, 0, 1]), 3, 3, 0)
    assert stats.second_deriv_unit is False
    assert stats.expected_histogram is None
    assert stats.shape_matches is None
    assert sum(s * c for s, c in stats.preimage_histogram.items()) == 3**2


def test_tail_analysis_preconditions():
    with pytest.raises(ValueError):
        tail_analysis(IntPoly([1, 1]), 5, 3, 0)  # f' = 1, no critical point
    with pytest.raises(ValueError):
        tail_analysis(IntPoly([0, 0, 1]), 5, 3, 2)  # 2 is not on a mod-5 cycle


def test_tail_bound_over_corpus_sample():
    rng = random.Random(17)
    for _ in range(8):
        p = rng.choice([3, 5])
        f = IntPoly(rng.randrange(p * p) for _ in range(6))
        dec1 = enumerate_level(f, p, 1)
        deriv = f.derivative()
        for k, members in zip(dec1.lengths.tolist(), orbit_members(f, p, 1), strict=True):
            critical = [m for m in members if deriv.eval_mod(m, p) == 0]
            if not critical:
                continue
            for n in (2, 3, 4):
                stats = tail_analysis(f, p, n, critical[0])
                assert stats.max_tail_length <= p + (n - 2) * k
