"""Acceptance suite: one test per criterion, each printing a PASS line.

The random-corpus criteria (4-10) share one module-scoped sweep over 500
seeded polynomials with the oracle built to the deepest level with
p^n <= 10^6.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
from dataclasses import dataclass, field

import pytest

from cycletree.arith import IntPoly, Valuation
from cycletree.checkers import InverseEvalMap, RationalMap, is_permutation, is_single_cycle
from cycletree.graph import build_tree_bruteforce, enumerate_level, tail_analysis
from cycletree.lifting import compute_lin_at
from cycletree.predictor import Scope, ShapeKind, analyze, separation_analysis
from cycletree.verify import (RuleStats, oracle_depth, random_poly, verify_all,
                              verify_map)

BUDGET = 10**7
ORACLE_POINTS = 10**6
CORPUS_SEED = 20240811
CORPUS = [(3, 200), (5, 150), (7, 150)]  # 500 polynomials total


def report(criterion: int, ok: bool, text: str):
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@dataclass
class CorpusStats:
    polys: int = 0
    predictor: RuleStats = field(default_factory=RuleStats)
    law: RuleStats = field(default_factory=RuleStats)
    congruence: RuleStats = field(default_factory=RuleStats)
    kd_identity: RuleStats = field(default_factory=RuleStats)
    orbit: RuleStats = field(default_factory=RuleStats)
    tail: RuleStats = field(default_factory=RuleStats)
    perm_disagreements: int = 0
    perm_checked: int = 0
    cycle_disagreements: int = 0
    cycle_checked: int = 0
    details: list = field(default_factory=list)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    stats = CorpusStats()
    for p, count in CORPUS:
        depth = oracle_depth(p, ORACLE_POINTS)
        for _ in range(count):
            f = random_poly(rng, p, max_degree=5)
            rep, tree = verify_all(f, p, max_level=depth, budget=BUDGET)
            for name, rule in rep.rules.items():
                bucket = {
                    "lift-length-law": stats.law,
                    "chain-congruence": stats.congruence,
                    "kd-identity": stats.kd_identity,
                    "orbit-bound": stats.orbit,
                    "tail-bound": stats.tail,
                }.get(name, stats.predictor)
                bucket.checked += rule.checked
                bucket.mismatches += rule.mismatches
            if not rep.ok and len(stats.details) < 20:
                stats.details.append((p, list(f.coeffs), rep.details[:3]))

            # criterion 9: closed-form criteria vs the already-built oracle
            for n in range(1, 5):
                stats.perm_checked += 1
                brute = tree.tail_points[n] == 0
                if is_permutation(f, p, n) != brute:
                    stats.perm_disagreements += 1
                    stats.details.append(("perm", p, list(f.coeffs), n))
            for n in range(1, 6):
                stats.cycle_checked += 1
                brute = (len(tree.lengths[n]) == 1
                         and tree.lengths[n][0] == p**n)
                if is_single_cycle(f, p, n) != brute:
                    stats.cycle_disagreements += 1
                    stats.details.append(("cycle", p, list(f.coeffs), n))
            stats.polys += 1
    return stats


def test_criterion_01_paper_nine_cycle():
    f = IntPoly([2, 1, 3, 1, 3, 2])
    dec = enumerate_level(f, 3, 4, budget=BUDGET)  # members from its orbit array
    ends = itertools.accumulate(dec.lengths)
    nine = [(rep, k) for rep, k, end in zip(dec.reps.tolist(), dec.lengths.tolist(), ends,
                                            strict=True)
            if 0 in dec.orbit[end - k:end]]
    ok = len(nine) == 1 and nine[0][1] == 9
    lin = compute_lin_at(f, 3, 4, nine[0][1], nine[0][0])
    ok &= lin.A == Valuation(3, False)  # ord_3(a_4 - 1) = 3 exactly
    ok &= lin.B == Valuation(4, True)  # ord_3(b_4) = 4 = the level cap

    tree = analyze(f, 3, max_level=8, budget=BUDGET)
    chain = [n for n in tree.nodes if n.length == 9 and n.rep == 0]
    ok &= sorted(n.level for n in chain) == [2, 3, 4, 5]
    by_pos = {(n.level, n.rep): n for n in tree.nodes}
    case2 = by_pos[(4, 0)].prediction
    ok &= (case2.kind is ShapeKind.SPLITS_THEN_GROWS
           and case2.scope is Scope.ALL_BUT_ONE and case2.splits == 2)
    ok &= by_pos[(5, 0)].prediction.scope is Scope.ALL_BUT_ONE
    ok &= tree.determined

    rep = verify_map(f, 3, budget=BUDGET, max_level=8)
    ok &= rep.ok and rep.stat("exceptional-split").checked >= 2
    report(1, ok, "3-adic 9-cycle: ord(a4-1)=3, ord(b4)=4, stationary 9-chain, "
                  f"case-2 verified to level 8 ({rep.checked} checks, "
                  f"{rep.mismatches} mismatches)")


def test_criterion_02_pathological_separation():
    f = IntPoly([0, 1, 3])
    sep = separation_analysis(f, 3, 0, 1)
    ok = sep.pathological and sep.ell == 2 and sep.m == 1
    ok &= [sep.formula_splits(n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]

    tree = build_tree_bruteforce(f, 3, 10, budget=BUDGET)
    for n in range(1, 7):
        level = n + 1
        for unit in (1, 2):
            y = unit * 3**n
            # exact displacement valuation: ord_3(f(y) - y) = n*ell + m
            diff = f(y) - y
            e = 0
            while diff % 3 == 0:
                diff //= 3
                e += 1
            ok &= e == n * sep.ell + sep.m
        idx = tree.cycle_index(level, 3**n)
        ok &= tree.lengths[level][idx] == 1
        splits = 0
        frontier = [(level, idx)]
        while True:
            lvl, i = frontier[0]
            if lvl >= 10:
                break
            kids = tree.children[lvl][i]
            if len(kids) == 3 and all(tree.lengths[lvl + 1][c] == 1 for c in kids):
                splits += 1
                frontier = [(lvl + 1, c) for c in kids]
            else:
                ok &= len(kids) == 1 and tree.lengths[lvl + 1][kids[0]] == 3
                break
        if n <= 4:  # growth at level 2n+2 <= 10 is inside the window
            ok &= splits == sep.formula_splits(n) == n
        else:  # only the splitting prefix fits below level 10
            ok &= splits == 10 - level
    report(2, ok, "x+3x^2 separation: ell=2, m=1, n splits then growth "
                  "confirmed for n=1..6 (levels to 10)")


def test_criterion_03_growth_criterion_p3():
    # b = c: grows then splits; b != c: grows forever
    splitting, growing = IntPoly([3, 1, 1]), IntPoly([3, 1, 0, 1])
    ok = True
    tree_s = build_tree_bruteforce(splitting, 3, 4, budget=BUDGET)
    idx = tree_s.cycle_index(1, 0)
    kids = tree_s.children[1][idx]
    ok &= [tree_s.lengths[2][c] for c in kids] == [3]  # grows at level 1
    grandkids = tree_s.children[2][kids[0]]
    ok &= sorted(tree_s.lengths[3][c] for c in grandkids) == [3, 3, 3]  # splits

    tree_g = build_tree_bruteforce(growing, 3, 4, budget=BUDGET)
    level, idx = 1, tree_g.cycle_index(1, 0)
    length = 1
    while level < 4:
        kids = tree_g.children[level][idx]
        ok &= len(kids) == 1
        length *= 3
        ok &= tree_g.lengths[level + 1][kids[0]] == length  # grows at each level
        level, idx = level + 1, kids[0]

    shape_s = analyze(splitting, 3, max_level=6).nodes[1].prediction
    shape_g = analyze(growing, 3, max_level=6).nodes[1].prediction
    ok &= shape_s.kind is ShapeKind.GROWS_THEN_SPLITS
    ok &= shape_g.kind is ShapeKind.GROWS_FOREVER
    report(3, ok, "p=3 growth criterion: 3+x+x^2 (b=c) grows then splits, "
                  "3+x+x^3 (b!=c) grows forever; oracle levels 1-4 agree")


def test_criterion_04_soundness_sweep(corpus):
    ok = corpus.polys == 500 and corpus.predictor.mismatches == 0
    report(4, ok, f"{corpus.polys} random polynomials, "
                  f"{corpus.predictor.checked} predictor claims checked against "
                  f"the oracle, {corpus.predictor.mismatches} mismatches "
                  f"{corpus.details if corpus.predictor.mismatches else ''}")


def test_criterion_05_lift_length_law(corpus):
    ok = corpus.law.checked > 0 and corpus.law.mismatches == 0
    report(5, ok, f"lift-length law on {corpus.law.checked} oracle nodes, "
                  f"{corpus.law.mismatches} exceptions")


def test_criterion_06_chain_congruences(corpus):
    ok = corpus.congruence.checked > 0 and corpus.congruence.mismatches == 0
    report(6, ok, f"multiplier/offset recurrences on {corpus.congruence.checked} "
                  f"parent-child pairs, {corpus.congruence.mismatches} failures")


def test_criterion_07_capped_valuation_identity(corpus):
    ok = corpus.kd_identity.checked > 0 and corpus.kd_identity.mismatches == 0
    report(7, ok, f"capped-valuation identity on {corpus.kd_identity.checked} "
                  f"kd-lifts, {corpus.kd_identity.mismatches} failures")


def test_criterion_08_tail_histogram(corpus):
    stats = tail_analysis(IntPoly([0, 0, 1]), 5, 4, 0, budget=BUDGET)
    ok = stats.preimage_histogram == {10: 10, 25: 1}
    ok &= sum(s * c for s, c in stats.preimage_histogram.items()) == 5**3
    ok &= stats.shape_matches is True
    ok &= corpus.tail.mismatches == 0
    report(8, ok, "x^2 mod 5^4 fiber histogram {10: 10, 25: 1}; tail bound "
                  f"held on {corpus.tail.checked} cycles with tails")


def test_criterion_09_closed_form_criteria(corpus):
    ok = (corpus.perm_disagreements == 0 and corpus.cycle_disagreements == 0
          and corpus.perm_checked == 4 * corpus.polys
          and corpus.cycle_checked == 5 * corpus.polys)
    # the p = 3 level-3 rule, exercised where level 2 would lie
    for f in (IntPoly([8, 23, 19, 6, 2, 17]), IntPoly([23, 22, 9, 13, 12, 26])):
        dec2 = enumerate_level(f, 3, 2, budget=BUDGET)
        ok &= len(dec2.reps) == 1 and dec2.lengths[0] == 9
        ok &= not is_single_cycle(f, 3, 3)
        dec3 = enumerate_level(f, 3, 3, budget=BUDGET)
        ok &= len(dec3.reps) > 1
    report(9, ok, f"permutation criterion == brute on {corpus.perm_checked} "
                  f"cases (n<=4), single-cycle on {corpus.cycle_checked} cases "
                  "(n<=5, including the p=3 level-3 rule)")


def test_criterion_10_orbit_bound(corpus):
    ok = corpus.orbit.mismatches == 0
    report(10, ok, f"orbit-length bound on {corpus.orbit.checked} stationary "
                   f"chains: all <= p^2 and of k*r form (p in {{5,7}})")


def test_criterion_11_rational_maps():
    rng = random.Random(CORPUS_SEED + 1)
    checked = mismatches = count = 0
    while count < 50:
        p = [3, 5, 7][count % 3]
        num = IntPoly(rng.randrange(p * p) for _ in range(4))
        den = IntPoly(rng.randrange(p * p) for _ in range(3))
        if den.degree < 0 or any(den.eval_mod(x, p) == 0 for x in range(p)):
            continue
        h = RationalMap(num, den)
        oracle = build_tree_bruteforce(InverseEvalMap.of(h), p, 5, budget=BUDGET)
        analyzed = analyze(h, p, budget=BUDGET)
        rep = verify_map(h, p, max_level=5, budget=BUDGET,
                         oracle=oracle, analyzed=analyzed)
        checked += rep.checked
        mismatches += rep.mismatches
        count += 1
    ok = count == 50 and mismatches == 0
    report(11, ok, f"50 rational maps vs the Newton-lifted oracle to level 5: "
                   f"{checked} checks, {mismatches} mismatches")
