"""Tests for shape prediction, tree analysis, and separation analysis."""

import pytest

import cycletree.predictor as predictor_mod
from cycletree import cli
from cycletree.arith import IntPoly
from cycletree.errors import InvariantError, NotPeriodicError, SeparationError
from cycletree.graph import build_tree_bruteforce, enumerate_level
from cycletree.lifting import Behavior, Classification, expand_children, make_node
from cycletree.predictor import (SEPARATION_MAX_ORDER, PredictedShape, Scope, ShapeKind,
                                 UndeterminedReason, analyze, predict, separation_analysis)
from cycletree.verify import VerifyReport, check_kd_identity, collect_kd_samples, verify_map


def level1_node(f, p, rep=None):
    dec = enumerate_level(f, p, 1)
    cycles = list(zip(dec.reps.tolist(), dec.lengths.tolist()))
    rep, length = cycles[0] if rep is None else next(c for c in cycles if c[0] == rep)
    return make_node(f, p, 1, length, rep)


def test_predict_grows_levels():
    # x + 1 grows at every level; p > 3 settles it at level 1 already
    node = level1_node(IntPoly([1, 1]), 5)
    assert predict(IntPoly([1, 1]), 5, node).kind is ShapeKind.GROWS_FOREVER


def test_predict_grows_p3_criterion():
    # 3 + x + x^2 at the fixed point 0: b = 1, c = 1, so growth gives way
    f = IntPoly([3, 1, 1])
    shape = predict(f, 3, level1_node(f, 3, rep=0))
    assert shape.kind is ShapeKind.GROWS_THEN_SPLITS
    # 3 + x + x^3: b = 1, c = 0, growth persists
    g = IntPoly([3, 1, 0, 1])
    shape = predict(g, 3, level1_node(g, 3, rep=0))
    assert shape.kind is ShapeKind.GROWS_FOREVER


def test_predict_split_cases():
    f = IntPoly([2, 1, 3, 1, 3, 2])
    tree = analyze(f, 3, max_level=8)
    by_level_rep = {(n.level, n.rep): n for n in tree.nodes}
    case2 = by_level_rep[(4, 0)].prediction
    assert case2.kind is ShapeKind.SPLITS_THEN_GROWS
    assert case2.scope is Scope.ALL_BUT_ONE
    assert case2.splits == 2
    case1 = by_level_rep[(4, 1)].prediction
    assert case1.kind is ShapeKind.SPLITS_THEN_GROWS
    assert case1.scope is Scope.ALL
    assert case1.splits == 1
    case3 = by_level_rep[(2, 0)].prediction
    assert case3.kind is ShapeKind.UNDETERMINED
    assert case3.beyond_level == 4
    assert case3.reason is UndeterminedReason.CASE3_AB


def test_predict_tails():
    f = IntPoly([0, 0, 1])  # fixed point 0 with f'(0) = 0
    node = level1_node(f, 3, rep=0)
    shape = predict(f, 3, node)
    assert shape.kind is ShapeKind.TAILS_FOREVER
    assert shape.tail_bound == 3 + (1 - 2) * 1


def test_predict_partial_and_kd_rule():
    f = IntPoly([0, 0, 1])  # fixed point 1: f'(1) = 2, order 4 mod 5
    node = level1_node(f, 5, rep=1)
    shape = predict(f, 5, node)
    assert shape.kind is ShapeKind.STATIONARY_PARTIAL_SPLIT
    assert shape.d == 4
    kd_child = next(c for c in expand_children(f, 5, node) if c.length == 4)
    kd_shape = predict(f, 5, kd_child)
    # m = ord_5(2^4 - 1) = 1, so the 4-cycle grows immediately
    assert kd_shape.kind is ShapeKind.GROWS_FOREVER


def test_analyze_translation():
    tree = analyze(IntPoly([1, 1]), 3, max_level=8)
    assert tree.determined
    assert tree.orbits.confirmed == []
    assert tree.orbits.undetermined_chains == 0
    kinds = {n.prediction.kind for n in tree.nodes if n.prediction}
    assert kinds == {ShapeKind.GROWS_FOREVER}


def test_analyze_quintic_orbit():
    tree = analyze(IntPoly([2, 1, 3, 1, 3, 2]), 3, max_level=8)
    assert tree.determined
    assert 9 in tree.orbits.confirmed_lengths()
    chain = next(c for c in tree.orbits.confirmed if c.length == 9)
    assert chain.kind == "exceptional-split"


def test_analyze_identity_not_determined():
    tree = analyze(IntPoly([0, 1]), 5, max_level=9)
    assert not tree.determined
    assert tree.orbits.undetermined_chains > 0
    assert all(n.classification in (None, "splits") for n in tree.nodes)
    assert all(n.Asat and n.Bsat for n in tree.nodes if n.level >= 1)


def test_analyze_pathological_suspect_flag():
    tree = analyze(IntPoly([0, 1, 3]), 3, max_level=9)
    assert not tree.determined
    reasons = {n.prediction.reason for n in tree.nodes
               if n.prediction and n.prediction.reason}
    assert UndeterminedReason.PATHOLOGICAL_SUSPECT in reasons
    assert {"length": 1, "level": 8} in tree.orbits.stable_so_far


@pytest.mark.parametrize("rounds", range(4))
def test_deepening_doubles_the_horizon(rounds):
    """Each deepening round doubles the horizon, and a partial chain's head
    gets its first round for free: with r rounds at p = 3, the identity's
    deepest node is at level 2^r and the partial chain of 4x + 8x^2 + 4x^3
    reaches level 2^(r+1)."""
    tree = analyze(IntPoly([0, 1]), 3, max_level=30, max_deepen=rounds)
    assert max(n.level for n in tree.nodes) == 2**rounds
    tree = analyze(IntPoly([0, 4, 8, 4]), 3, max_level=30, max_deepen=rounds)
    assert max(n.level for n in tree.nodes
               if n.classification == "partially-splits") == 2 ** (rounds + 1)



def test_each_kd_lift_valuation_walked_once(monkeypatch):
    """4x + 8x^2 + 4x^3 at p = 3 has 11 kd-lifts to level 12, every one of
    them saturated; process reuses the shape its chain already predicted."""
    calls = []
    real = predictor_mod.multiplier_valuation

    def counted(fmap, p, node, cap):
        calls.append((node.level, node.rep))
        return real(fmap, p, node, cap)

    monkeypatch.setattr(predictor_mod, "multiplier_valuation", counted)
    tree = analyze(IntPoly([0, 4, 8, 4]), 3, max_level=12)
    kd_lifts = [n for n in tree.nodes if n.prediction
                and n.prediction.reason is UndeterminedReason.PARTIAL_SPLIT_HORIZON]
    assert len(calls) == len(set(calls)) == len(kd_lifts) == 11

def test_analyze_partial_chain_certificate():
    # x^2 mod 5: the fixed point 1 heads a stationary partial-split chain
    tree = analyze(IntPoly([0, 0, 1]), 5, max_level=8)
    assert tree.determined
    lengths = tree.orbits.confirmed_lengths()
    assert {1} <= lengths  # 0 and 1 are genuine 5-adic fixed points
    kinds = {c.kind for c in tree.orbits.confirmed}
    assert "partial-split" in kinds and "grows-tails" in kinds


def test_shapes_are_interned():
    """Every shape analyze emits is one object per value, within a run and
    across runs, and an undetermined shape carries one horizon."""
    seen = set()
    for coeffs, p, kwargs in (([2, 1, 3, 1, 3, 2], 3, {}),  # grows-then-splits, case 2, case 3
                              ([0, 4], 5, {}),  # a stationary partial chain
                              ([0, 0, 1], 5, {}),  # tails-forever
                              ([0, 1], 3, {"max_deepen": 1})):  # pathological-suspect
        first, again = (analyze(IntPoly(coeffs), p, **kwargs).nodes for _ in range(2))
        shapes = [n.prediction for n in first]
        assert len(shapes) == len(again)
        assert all(s is n.prediction for s, n in zip(shapes, again))
        shapes.remove(None)  # the root
        assert len({id(s) for s in shapes}) == len(set(shapes))
        for s in shapes:
            data = s.to_dict()
            assert data["beyondLevel"] == data["splitKnownUntil"]
            seen.add(s.reason or s.kind)
    assert seen == {*ShapeKind, UndeterminedReason.CASE3_AB,
                    UndeterminedReason.PATHOLOGICAL_SUSPECT} - {ShapeKind.UNDETERMINED}


def test_orbit_bound_statement():
    tree = analyze(IntPoly([1, 1]), 3)
    assert tree.orbits.bound["maxLength"] == 9
    assert tree.orbits.bound["p3Exception"] is True
    tree = analyze(IntPoly([1, 1]), 7)
    assert tree.orbits.bound["maxLength"] == 49
    assert tree.orbits.bound["p3Exception"] is False


# ---------------------------------------------------------------------------
# separation analysis
# ---------------------------------------------------------------------------


def test_separation_pathological_example():
    sep = separation_analysis(IntPoly([0, 1, 3]), 3, 0, 1)
    assert sep.pathological
    assert sep.d == 1
    assert sep.ell == 2
    assert sep.m == 1
    assert [sep.formula_splits(n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_separation_generic_example():
    sep = separation_analysis(IntPoly([0, 0, 1]), 5, 1, 1)
    assert not sep.pathological
    assert sep.d == 4
    assert sep.multiplier == 16
    assert sep.m == 1
    assert sep.formula_splits(3) == 0  # separating 4-cycles grow immediately


def test_separation_generic_against_oracle():
    # x^2, p=5: cycles separating from 1 at level n+1 are 4-cycles that grow
    f = IntPoly([0, 0, 1])
    tree = build_tree_bruteforce(f, 5, 6)
    for n in range(1, 5):
        level = n + 1
        y = 1 + 5**n  # ord_5(y - 1) = n
        idx = next(i for i, rep in enumerate(tree.reps[level])
                   if _on_cycle(f, 5, level, tree, i, y))
        assert tree.lengths[level][idx] == 4
        kids = tree.children[level][idx]
        assert len(kids) == 1
        assert tree.lengths[level + 1][kids[0]] == 20


def _on_cycle(f, p, level, tree, idx, y):
    rep = tree.reps[level][idx]
    m = p**level
    x = rep
    for _ in range(tree.lengths[level][idx]):
        if x == y % m:
            return True
        x = f.eval_mod(x, m)
    return False


def test_separation_errors():
    with pytest.raises(NotPeriodicError):
        separation_analysis(IntPoly([1, 1]), 3, 0, 1)
    with pytest.raises(SeparationError):
        separation_analysis(IntPoly([0, 0, 1]), 5, 0, 1)  # f'(0) = 0: tails
    with pytest.raises(SeparationError):
        separation_analysis(IntPoly([0, -1]), 5, 0, 1)  # linear with h' = 1


def test_separation_doubles_the_series_order():
    """x + x^5 at 3: the iterate series is x + x^5, so the search doubles the
    order from 2 to 4 to 8 before it finds ell = 5, a unit."""
    sep = separation_analysis(IntPoly([0, 1, 0, 0, 0, 1]), 3, 0, 1)
    assert (sep.pathological, sep.d, sep.ell, sep.m) == (True, 1, 5, 0)
    assert sep.taylor == (0, 1, 0, 0, 0, 1, 0, 0, 0)


def test_separation_gives_up_past_the_max_order():
    f = IntPoly([0, 1] + [0] * 68 + [1])  # x + x^70
    with pytest.raises(SeparationError, match=f"up to order {SEPARATION_MAX_ORDER}"):
        separation_analysis(f, 3, 0, 1)


def test_separation_matches_pathological_oracle():
    # x + 3x^2: chains separating at level n+1 split n times then grow
    f = IntPoly([0, 1, 3])
    sep = separation_analysis(f, 3, 0, 1)
    tree = build_tree_bruteforce(f, 3, 8)
    for n in (1, 2):
        level = n + 1
        y = 3**n
        idx = tree.cycle_index(level, y)
        assert tree.lengths[level][idx] == 1
        # follow the chain: it must split exactly n times, then grow
        splits = 0
        cur = [(level, idx)]
        while True:
            lvl, i = cur[0]
            kids = tree.children[lvl][i]
            if len(kids) == 3 and all(tree.lengths[lvl + 1][c] == 1 for c in kids):
                splits += 1
                cur = [(lvl + 1, c) for c in kids]
            else:
                break
        assert splits == sep.formula_splits(n) == n


# ---------------------------------------------------------------------------
# capped-valuation identity
# ---------------------------------------------------------------------------


def test_identity_check_on_partial_chain():
    f = IntPoly([0, 0, 1])
    tree = build_tree_bruteforce(f, 5, 6)
    samples = collect_kd_samples(tree)
    assert samples, "x^2 mod 5 must expose kd-lifts over the fixed point 1"
    stats = check_kd_identity(f, 5, tree, VerifyReport())
    assert stats.checked == len(samples)
    assert stats.mismatches == 0


def test_proposition_on_quintic_orbit():
    # the quintic's 3-adic orbit is not an integer orbit; use a constructed map
    # with an integer 2-cycle and d > 1 instead: x -> -x + 4 swaps 1 and 3
    f = IntPoly([4, -1])
    with pytest.raises(SeparationError):
        # linear map with multiplier (-1)^2 = 1: the separation analysis refuses
        separation_analysis(f, 5, 1, 2)


def test_verify_harness_catches_corruption(monkeypatch):
    """Self-test: a deliberately corrupted rule must produce mismatches."""
    import cycletree.predictor as predictor_mod

    real_predict = predictor_mod.predict

    def corrupted(fmap, p, node):
        shape = real_predict(fmap, p, node)
        if shape.kind is ShapeKind.SPLITS_THEN_GROWS:
            return predictor_mod.PredictedShape(
                ShapeKind.SPLITS_THEN_GROWS, splits=shape.splits + 1,
                scope=shape.scope)
        return shape

    monkeypatch.setattr(predictor_mod, "predict", corrupted)
    report = verify_map(IntPoly([2, 1, 3, 1, 3, 2]), 3, max_level=8)
    assert not report.ok
    assert report.mismatches > 0


# ---------------------------------------------------------------------------
# analyze's own invariant checks, reached through a tampered predict or
# expand_children.  4x at p = 5: the level-1 fixed point 0 partially splits
# with d = 2 into the fixed point 0 and the kd-lifts (2-cycles) at 5 and 10.
# 6x at p = 5: the fixed point 0 is case 2 from level 2 on (at level 1 both
# valuations saturate), its exceptional lift at offset 0.
# ---------------------------------------------------------------------------


def _second_kd_lift_splits(real):
    def predict(fmap, p, node):
        if (node.level, node.rep) == (2, 10):
            return PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=0, scope=Scope.ALL)
        return real(fmap, p, node)
    return predict


def _edit_children(edit):
    """An expand_children wrapper that passes each node's children through edit."""
    def wrap(real):
        return lambda fmap, p, node: edit(node, list(real(fmap, p, node)))
    return wrap


@_edit_children
def _drop_same_length_lift(node, kids):
    return [c for c in kids if c.length != node.length]


@_edit_children
def _change_d(node, kids):
    for c in kids:
        if c.length == node.length:
            c.classification = Classification(Behavior.PARTIALLY_SPLITS, 4)
    return kids


@_edit_children
def _move_exceptional_offset(node, kids):
    for c in kids:
        if c.rep == node.rep:
            c.offset = 1
    return kids


@pytest.mark.parametrize("coeffs, target, tamper, message, level", [
    ([0, 4], "predict", _second_kd_lift_splits, "kd-lifts of one chain disagree", 1),
    ([0, 4], "expand_children", _drop_same_length_lift, "lost its same-length lift", 1),
    ([0, 4], "expand_children", _change_d, "changed d along the chain", 1),
    ([0, 6], "expand_children", _move_exceptional_offset,
     "disagrees with -b/\\(a-1\\) offset", 2),
])
def test_analysis_invariants_raise(monkeypatch, coeffs, target, tamper, message, level):
    monkeypatch.setattr(predictor_mod, target, tamper(getattr(predictor_mod, target)))
    with pytest.raises(InvariantError, match=message) as err:
        analyze(IntPoly(coeffs), 5, max_level=4)
    assert (err.value.p, err.value.level, err.value.rep) == (5, level, 0)


def test_analysis_invariant_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(predictor_mod, "predict", _second_kd_lift_splits(predictor_mod.predict))
    code = cli.main(["analyze", "--prime", "5", "--poly", "0,4", "--max-level", "4"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("error: invariant violated: kd-lifts of one chain disagree")
    assert "p=5" in err and "level=1" in err and "rep=0" in err
