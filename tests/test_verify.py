"""Tests for the verification pipeline and the array chain congruences."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletree import cli, verify
from cycletree.arith import IntPoly
from cycletree.checkers import InverseEvalMap, RationalMap
from cycletree.errors import InvariantError
from cycletree.graph import build_tree_bruteforce
from cycletree.lifting import compute_lin_at
from cycletree.predictor import PredictedShape, Scope, ShapeKind, analyze
from cycletree.verify import (VerifyReport, check_chain_congruences, check_kd_identity,
                              check_lift_length_law, check_orbit_lengths,
                              check_tail_bounds, oracle_depth, random_poly,
                              verify_all, verify_map)

# `cycletree verify --prime 3 --poly 2,1,3,1,3,2 --max-level 8`, recorded
# before verify shared one oracle between its checks.
README_VERIFY_STDOUT = """\
chain-congruence: 229 checked, 0 mismatches, pass
exceptional-split: 2 checked, 0 mismatches, pass
grows-then-splits: 1 checked, 0 mismatches, pass
kd-identity: 0 checked, 0 mismatches, pass
lift-length-law: 149 checked, 0 mismatches, pass
orbit-bound: 27 checked, 0 mismatches, pass
prefix: 16 checked, 0 mismatches, pass
splits-then-grows: 6 checked, 0 mismatches, pass
undetermined-prefix: 2 checked, 0 mismatches, pass
polynomials: 1; total mismatches: 0
"""


def _random_case(rng, p, rational):
    """(map, oracle map) with the rational oracle on the Euclid route."""
    if not rational:
        f = IntPoly(rng.randrange(p * p) for _ in range(rng.randint(2, 6)))
        return f, f
    while True:
        den = IntPoly(rng.randrange(p * p) for _ in range(3))
        if den.degree >= 0:
            break
    h = RationalMap(IntPoly(rng.randrange(p * p) for _ in range(4)), den)
    return h, InverseEvalMap.of(h)


def _chain_lins(fmap, p, tree):
    """Per level, the (chosen, a, b) arrays the chain check compares."""
    lins = [None, verify._level_lin(fmap, p, 1, tree, None)]
    for level in range(2, tree.max_level + 1):
        over = lins[-1][0][np.array(tree.parents[level], dtype=np.int64)]
        lins.append(verify._level_lin(fmap, p, level, tree, over))
    return lins


def _rule_table(report):
    return {name: (s.checked, s.mismatches) for name, s in report.rules.items()}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("rational", [False, True])
def test_array_lin_matches_scalar(p, rational):
    rng = random.Random(10 * p + rational)
    compared = 0
    for _ in range(6):
        fmap, oracle_map = _random_case(rng, p, rational)
        tree = build_tree_bruteforce(oracle_map, p, oracle_depth(p, 3000))
        lins = _chain_lins(fmap, p, tree)
        for level in range(1, tree.max_level + 1):
            chosen, a, b = lins[level]
            for i, length in enumerate(tree.lengths[level]):
                x = int(chosen[i])
                if level > 1:
                    parent = tree.parents[level][i]
                    assert x % p ** (level - 1) == lins[level - 1][0][parent]
                lin = compute_lin_at(fmap, p, level, length, x)
                assert (int(a[i]), int(b[i])) == (lin.a, lin.b)
                compared += 1
    assert compared > 50


def test_level_without_cycles():
    h = RationalMap(IntPoly([7, 4, 7, 7]), IntPoly([3, 8, 6]))
    tree = build_tree_bruteforce(InverseEvalMap.of(h), 3, 5)
    assert tree.lengths[1] == []
    stats = check_chain_congruences(h, 3, tree, VerifyReport())
    assert (stats.checked, stats.mismatches) == (0, 0)


def test_cycle_longer_than_chunk(monkeypatch):
    rng = random.Random(7)
    cases = [(IntPoly([1, 1]), 3)] + [(random_poly(rng, p), p) for p in (3, 5, 7)]
    longest = 0
    for f, p in cases:
        tree = build_tree_bruteforce(f, p, oracle_depth(p, 5000))
        longest = max(longest, *(max(lens, default=0) for lens in tree.lengths))
        want = [tuple(map(list, lin)) for lin in _chain_lins(f, p, tree)[1:]]
        stats = check_chain_congruences(f, p, tree, VerifyReport())
        monkeypatch.setattr(verify, "_CHAIN_CHUNK", 4)
        assert [tuple(map(list, lin)) for lin in _chain_lins(f, p, tree)[1:]] == want
        assert check_chain_congruences(f, p, tree, VerifyReport()) == stats
        assert stats.mismatches == 0
        monkeypatch.undo()
    assert longest > 4


def _doubling_scan(der, hi, seg, modulus):
    """Reference: the log-doubling segmented scan the chain check used before
    the blocked one, (slope, carry) after every member."""
    lens = np.diff(seg, append=len(der))
    pos = np.arange(len(der)) - np.repeat(seg, lens)
    slope, carry = der.copy(), hi.copy()
    shift = 1
    while shift < lens.max():
        live = pos[shift:] >= shift
        s_prev, c_prev = slope[:-shift][live], carry[:-shift][live]
        s_here = slope[shift:][live]
        slope[shift:][live] = s_prev * s_here % modulus
        carry[shift:][live] = (s_here * c_prev + carry[shift:][live]) % modulus
        shift *= 2
    return slope, carry


def _naive_scan(der, hi, lengths, modulus):
    """Reference: the carry steps u -> hi + u * der walked cycle by cycle."""
    slope, carry, i = [], [], 0
    for k in lengths:
        s, c = 1, 0
        for _ in range(k):
            s, c = s * int(der[i]) % modulus, (c * int(der[i]) + int(hi[i])) % modulus
            slope.append(s)
            carry.append(c)
            i += 1
    return slope, carry


def _check_scan(lengths, at, modulus, seed):
    """``_scan_at`` at positions ``at`` (row-wise offsets into each cycle)
    equals both references."""
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    seg = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    der, hi = rng.integers(0, modulus, (2, n), dtype=np.int64)
    if seed % 4 == 0:
        der[:] = hi[:] = modulus - 1
    pos = seg + np.asarray(at, dtype=np.int64)
    slope, carry = verify._scan_at(der, hi, seg, pos, modulus)
    d_slope, d_carry = _doubling_scan(der, hi, seg, modulus)
    n_slope, n_carry = _naive_scan(der, hi, lengths, modulus)
    assert slope.tolist() == d_slope[pos].tolist() == np.array(n_slope)[pos].tolist()
    assert carry.tolist() == d_carry[pos].tolist() == np.array(n_carry)[pos].tolist()


def _block(lengths):
    """The block size ``verify._scan_at`` picks for a chunk of these cycles."""
    return min(64, int(sum(lengths) ** 0.5), max(lengths))


@pytest.mark.parametrize("lengths", [
    [1], [3], [1, 1, 1], [2, 1],
    [8, 1, 7, 9, 31, 8],  # B = 8: cycles of B-1, B, B+1; 31 spans four blocks
    [64, 1, 63, 65, 3000, 64, 839],  # B = 64
])
def test_blocked_scan_every_member(lengths):
    B = _block(lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    if B > 1:
        assert {B - 1, B, B + 1} <= set(lengths) and max(lengths) > 3 * B
        assert np.count_nonzero(starts % B == 0) >= 3
    at = np.minimum(np.arange(max(lengths))[:, None], np.array(lengths) - 1)
    for modulus in (3**5, 5**9, 2**31):
        _check_scan(lengths, at, modulus, seed=len(lengths) + modulus)


@st.composite
def _scan_cases(draw):
    """Cycle lengths for a chunk whose block size is B: n in [B^2, (B+1)^2)
    and one cycle at least B long; lengths cluster at 1, B-1, B, B+1, many
    blocks, and pads that put the next start on a block boundary."""
    B = draw(st.sampled_from([1, 2, 3, 7, 8, 16, 63, 64]) | st.integers(1, 64))
    n = draw(st.integers(B * B, B * B + 2 * B) if B < 64 else st.integers(4096, 6000))
    lengths = [min(n, B * draw(st.integers(1, 4)) + draw(st.integers(0, 1)))]
    while sum(lengths) < n:
        kind = draw(st.sampled_from(["1", "B-1", "B", "B+1", "span", "align", "any"]))
        k = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1,
             "span": B * draw(st.integers(2, 9)) + draw(st.integers(0, B)),
             "align": B - sum(lengths) % B, "any": draw(st.integers(1, 3 * B))}[kind]
        lengths.append(max(1, min(k, n - sum(lengths))))
    assert _block(lengths) == B
    offsets = [draw(st.sampled_from([0, k // 2, k - 1]) | st.integers(0, k - 1))
               for k in lengths]
    modulus = draw(st.sampled_from([3, 3**13, 5**9, 7**11, 2**31 - 1, 2**31])
                   | st.integers(2, 2**31))
    return lengths, [offsets, [k - 1 for k in lengths]], modulus, draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(_scan_cases())
def test_blocked_scan_matches_references(case):
    _check_scan(*case)


def test_tampered_orbit_is_a_mismatch():
    # An orbit that does not follow the map is one chain-congruence mismatch, which
    # names its rep and level, and no (a, b) at that level or below is compared.
    f = IntPoly([2, 1, 3, 1, 3, 2])
    tree = build_tree_bruteforce(f, 3, 6)
    level = 4
    i = next(i for i, k in enumerate(tree.lengths[level]) if k >= 3)
    start = sum(tree.lengths[level][:i])
    orbit = tree.orbits[level]
    orbit[start + 1], orbit[start + 2] = orbit[start + 2], orbit[start + 1]
    report = VerifyReport()
    stats = check_chain_congruences(f, 3, tree, report)
    assert (stats.checked, stats.mismatches) == (len(tree.lengths[2]) + len(tree.lengths[3]) + 1, 1)
    assert report.details == [
        f"chain-congruence: orbit of rep={tree.reps[level][i]}@{level} does not follow the map"]


def test_child_off_its_parent_raises():
    f = IntPoly([2, 1, 3, 1, 3, 2])
    tree = build_tree_bruteforce(f, 3, 5)
    level = 4
    parents = tree.parents[level]
    i = next(i for i, q in enumerate(parents) if any(q != other for other in parents))
    parents[i] = next(q for q in parents if q != parents[i])
    with pytest.raises(InvariantError) as info:
        check_chain_congruences(f, 3, tree, VerifyReport())
    err = info.value
    assert "no member over the parent rep" in str(err)
    assert (err.p, err.level, err.rep) == (3, level, tree.reps[level][i])


def test_orbit_arrays_follow_the_map():
    rng = random.Random(3)
    for p, rational in [(3, False), (5, False), (3, True), (5, True)]:
        fmap, oracle_map = _random_case(rng, p, rational)
        tree = build_tree_bruteforce(oracle_map, p, oracle_depth(p, 20000))
        for level in range(1, tree.max_level + 1):
            modulus = p**level
            orbit = tree.orbits[level].tolist()
            assert len(orbit) == sum(tree.lengths[level])
            pos = 0
            for rep, k in zip(tree.reps[level], tree.lengths[level]):
                members = orbit[pos:pos + k]
                assert members[0] == rep == min(members)
                for x, y in zip(members, members[1:] + members[:1]):
                    assert next(oracle_map.walk(x, 1, modulus, modulus, p))[0] == y
                pos += k


def test_verify_all_matches_hand_sequence():
    rng = random.Random(5)
    for _ in range(12):
        p = rng.choice([3, 5, 7])
        f = random_poly(rng, p, max_degree=rng.randint(1, 5))
        depth = oracle_depth(p, 5000)
        tree = build_tree_bruteforce(f, p, depth, with_tail_lengths=True)
        want = verify_map(f, p, max_level=depth, oracle=tree)
        check_lift_length_law(tree, p, want)
        check_chain_congruences(f, p, tree, want)
        check_kd_identity(f, p, tree, want)
        check_orbit_lengths(tree, p, want)
        if any(tree.tail_points[1:]):
            check_tail_bounds(f, p, depth, report=want, tree=tree)
        got, got_tree = verify_all(f, p, max_level=depth)
        assert _rule_table(got) == _rule_table(want)
        assert got.details == want.details
        assert got_tree.reps == tree.reps


def test_verify_builds_one_oracle(monkeypatch, capsys):
    calls = []
    real = verify.build_tree_bruteforce

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "build_tree_bruteforce", counting)
    verify_all(IntPoly([0, 0, 1]), 5, max_level=4)
    assert len(calls) == 1
    calls.clear()
    assert cli.main(["verify", "--prime", "5", "--poly", "0,0,1", "--max-level", "4"]) == 0
    assert len(calls) == 1
    assert "tail-bound" in capsys.readouterr().out


def test_cli_verify_readme_stdout(capsys):
    code = cli.main(["verify", "--prime", "3", "--poly", "2,1,3,1,3,2",
                     "--max-level", "8"])
    assert code == 0
    assert capsys.readouterr().out == README_VERIFY_STDOUT


def test_rational_oracle_is_built_from_its_route(capsys, monkeypatch):
    """verify_all and verify_map build their oracles from ``fmap.oracle_map()``
    while the checkers evaluate fmap: a route to a different map, x + 2/x for
    x + 1/x, must show up as mismatches (exit 1), not pass unnoticed."""
    h = RationalMap(IntPoly([1, 0, 1]), IntPoly([0, 1]))
    assert verify_map(h, 3, max_level=8).ok
    monkeypatch.setattr(RationalMap, "oracle_map",
                        lambda self: InverseEvalMap(IntPoly([1, 0, 2]), IntPoly([0, 1])))
    assert not verify_map(h, 3, max_level=8).ok
    code = cli.main(["verify", "--prime", "3", "--num", "1,0,1", "--den", "0,1",
                     "--max-level", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "total mismatches: 0" not in out


def test_verify_map_horizon_is_the_given_oracle():
    """A given oracle sets verify_map's horizon, whatever the point budget
    would allow, and a max_level other than its depth is refused."""
    for f in (IntPoly([0, 1]), IntPoly([0, 1, 0, 3])):
        oracle = build_tree_bruteforce(f, 3, 4)
        report = verify_map(f, 3, oracle=oracle)
        assert report.ok and report.checked > 0
        assert verify_map(f, 3, max_level=4, oracle=oracle).ok
        with pytest.raises(ValueError, match="differs from the oracle"):
            verify_map(f, 3, max_level=5, oracle=oracle)


def test_invariant_error_exit_4(capsys, monkeypatch):
    def broken(fmap, p, tree, report=None):
        raise InvariantError("planted", p, fmap, 2, 0)

    monkeypatch.setattr(verify, "check_chain_congruences", broken)
    code = cli.main(["verify", "--prime", "3", "--poly", "1,1", "--max-level", "3"])
    err = capsys.readouterr().err
    assert code == 4
    assert "planted" in err and "p=3" in err and "level=2" in err and "rep=0" in err


def test_check_tail_bounds_needs_tail_lengths():
    tree = build_tree_bruteforce(IntPoly([0, 0, 1]), 3, 3)
    with pytest.raises(ValueError):
        check_tail_bounds(IntPoly([0, 0, 1]), 3, 3, report=VerifyReport(), tree=tree)


def test_report_keeps_first_50_details():
    """``record`` and ``note`` share one cap; ``note`` reads no more of its
    iterable than the cap leaves room for, so an endless one is fine."""
    report = verify.VerifyReport()
    for i in range(30):
        report.record("prefix", False, str(i))
    report.note(f"chain-congruence: {i}" for i in itertools.count())
    report.record("prefix", False, "late")
    report.note(["orbit-bound: late"])
    assert report.details == ([f"prefix: {i}" for i in range(30)]
                              + [f"chain-congruence: {i}" for i in range(20)])
    assert report.rules["prefix"].mismatches == 31


def test_relabelled_node_is_flagged():
    """Relabelling one node with a shape its own lift pattern contradicts is
    one mismatch: splits-then-grows(0, all lifts) where the node does not
    split, grows-forever where it does not grow."""
    stg = PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=0, scope=Scope.ALL)
    grows = PredictedShape(ShapeKind.GROWS_FOREVER)
    quintic, rng = IntPoly([2, 1, 3, 1, 3, 2]), random.Random(1)
    cases = [(quintic, 3, 8), (quintic, 5, 6)] + [
        (random_poly(rng, p), p, level) for p, level in ((3, 7), (5, 5), (7, 4))]
    swaps = 0
    for f, p, level in cases:
        oracle = build_tree_bruteforce(f, p, level)
        analyzed = analyze(f, p, max_level=level)
        assert verify_map(f, p, max_level=level, analyzed=analyzed, oracle=oracle).ok
        for i, node in enumerate(analyzed.nodes):
            if node.prediction is None or not 0 < node.level < level:
                continue
            lifts = verify._lifts(oracle, node.level, oracle.cycle_index(node.level, node.rep))
            for shape, unless in ((stg, verify._SPLITS), (grows, verify._GROWS)):
                if lifts == unless:
                    continue
                nodes = list(analyzed.nodes)
                nodes[i] = dataclasses.replace(node, prediction=shape)
                report = verify_map(f, p, max_level=level, oracle=oracle,
                                    analyzed=dataclasses.replace(analyzed, nodes=nodes))
                assert report.mismatches == 1, (p, node, shape)
                swaps += 1
    assert swaps > 40


def test_prefix_mismatch_paths():
    """Each way an analyzed prefix can leave the oracle is caught by the prefix
    rule: a missing child in its parent's child set, a wrong length or a rep
    the oracle lacks at the node and in its parent's child set.  The root's
    child set is compared even when the analyzed tree lists no level-1 node."""
    f, p, level = IntPoly([0, 0, 1]), 5, 4
    oracle = build_tree_bruteforce(f, p, level)
    analyzed = analyze(f, p, max_level=level)
    nodes = analyzed.nodes
    level1 = [n for n in nodes if n.level == 1]
    leaf = next(n for n in nodes if n.level == 2 and n.prediction.kind is ShapeKind.GROWS_FOREVER)
    assert len(level1) == 2 and not any(n.parent == leaf.id for n in nodes)
    off_oracle = next(r for r in range(p**2) if r not in oracle.reps[2])

    def prefix_mismatches(tampered):
        report = verify_map(f, p, max_level=level, oracle=oracle,
                            analyzed=dataclasses.replace(analyzed, nodes=tampered))
        return report.rules["prefix"].mismatches

    def swap(node, **changes):
        return [dataclasses.replace(n, **changes) if n is node else n for n in nodes]

    assert prefix_mismatches(nodes) == 0
    assert prefix_mismatches([n for n in nodes if n is not level1[0]]) == 1
    assert prefix_mismatches(swap(leaf, length=2 * leaf.length)) == 2
    assert prefix_mismatches(swap(leaf, rep=off_oracle)) == 2
    assert prefix_mismatches([n for n in nodes if n is not leaf]) == 1
    assert prefix_mismatches([n for n in nodes if n.level != 1]) == 1
