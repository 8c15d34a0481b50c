"""The lift-length law on hand-built oracle trees.

A k-cycle of f_n lifts to one pk-cycle (grows), p k-cycles (splits), one
k-cycle carrying tails, or one k-cycle plus (p-1)/d kd-cycles (partially
splits).  Every subtree rule of ``verify_map`` and the structural law checks
are driven here to a passing and to a failing verdict on small trees whose
shape is written out by hand.
"""

import pytest

from cycletree.arith import IntPoly
from cycletree.errors import InvariantError
from cycletree.graph import BruteTree, enumerate_level
from cycletree.lifting import (Behavior, Classification, classify_lifts,
                               expand_children, make_node)
from cycletree.predictor import (AnalyzedTree, OrbitReport, PredictedShape, Scope,
                                 ShapeKind, TreeNode, UndeterminedReason,
                                 orbit_length_allowed)
from cycletree.verify import (check_lift_length_law, check_orbit_lengths,
                              collect_kd_samples, verify_map)


def _tree(p, *roots):
    """BruteTree over the given level-1 cycles, each (length, [child, ...]).

    Cycles are indexed per level in breadth-first order and the rep of
    cycle i is i; the deepest level given is the oracle's horizon.
    """
    reps, lengths, parents, children = [[0]], [[1]], [[-1]], [[[]]]
    frontier = [(spec, 0) for spec in roots]
    while frontier:
        reps.append(list(range(len(frontier))))
        lengths.append([length for (length, _), _ in frontier])
        parents.append([parent for _, parent in frontier])
        children.append([[] for _ in frontier])
        nxt = []
        for i, ((_, kids), parent) in enumerate(frontier):
            children[-2][parent].append(i)
            nxt += [(kid, i) for kid in kids]
        frontier = nxt
    top = len(lengths) - 1
    return BruteTree(p, top, reps, lengths, parents, children, [0] * (top + 1), [])


def leaf(k):
    return (k, [])


def split(k, p, below=()):
    """A k-cycle whose p lifts have length k, each with the lifts ``below``."""
    return (k, [(k, list(below))] * p)


def _verdict(tree, level, idx, shape, rule):
    """Whether ``verify_map`` accepts ``shape`` for cycle (level, idx) under ``rule``."""
    nodes = [TreeNode(0, None, 0, 1, 0, None, None, None, None, None, None, None),
             TreeNode(1, 0, level, tree.lengths[level][idx], tree.reps[level][idx],
                      None, None, None, None, None, None, shape)]
    analyzed = AnalyzedTree(tree.p, {}, tree.max_level, 0, True, False, nodes,
                            OrbitReport([], [], 0, {}))
    report = verify_map(IntPoly([0, 1]), tree.p, max_level=tree.max_level,
                        analyzed=analyzed, oracle=tree)
    stats = report.rules[rule]
    assert stats.checked == 1
    return stats.mismatches == 0


GROWS = PredictedShape(ShapeKind.GROWS_FOREVER)
TAILS = PredictedShape(ShapeKind.TAILS_FOREVER, tail_bound=3)
GROWS_THEN_SPLITS = PredictedShape(ShapeKind.GROWS_THEN_SPLITS)


def _splits_then_grows(s, scope):
    return PredictedShape(ShapeKind.SPLITS_THEN_GROWS, splits=s, scope=scope)


def _partial(d, m):
    return PredictedShape(ShapeKind.STATIONARY_PARTIAL_SPLIT, d=d, m=m)


def _undetermined(until):
    return PredictedShape(ShapeKind.UNDETERMINED, beyond_level=until,
                          reason=UndeterminedReason.CASE3_AB, split_known_until=until)


def test_grows_forever_verdicts():
    chain = _tree(3, (1, [(3, [leaf(9)])]))
    assert _verdict(chain, 1, 0, GROWS, "grows-forever")
    split_below = _tree(3, (1, [split(3, 3)]))
    assert not _verdict(split_below, 1, 0, GROWS, "grows-forever")
    # at the horizon nothing is left to contradict the claim
    assert _verdict(split_below, 3, 0, GROWS, "grows-forever")
    assert _verdict(_tree(5, (1, [leaf(5)])), 1, 0, GROWS, "grows-forever")
    assert not _verdict(_tree(5, (1, [leaf(1)])), 1, 0, GROWS, "grows-forever")


def test_splits_then_grows_verdicts():
    # every lift of the node splits once more, then each lift grows
    lift = split(1, 3, [leaf(3)])
    tree = _tree(3, (1, [lift] * 3))
    rule = "splits-then-grows"
    assert _verdict(tree, 1, 0, _splits_then_grows(1, Scope.ALL), rule)
    assert not _verdict(tree, 1, 0, _splits_then_grows(0, Scope.ALL), rule)
    early = _tree(3, (1, [lift, lift, (1, [(3, [leaf(9)])])]))
    assert not _verdict(early, 1, 0, _splits_then_grows(1, Scope.ALL), rule)
    # a level-3 node has one 3-lift: it grows, so it does not split
    assert not _verdict(tree, 3, 0, _splits_then_grows(1, Scope.ALL), rule)
    # at the horizon nothing is left to contradict the claim
    assert _verdict(tree, 4, 0, _splits_then_grows(2, Scope.ALL), rule)
    # the node splits and its lifts sit at the horizon: any split count holds
    assert _verdict(_tree(3, split(1, 3)), 1, 0, _splits_then_grows(7, Scope.ALL), rule)
    assert not _verdict(_tree(3, (1, [leaf(3)])), 1, 0, _splits_then_grows(7, Scope.ALL), rule)
    # p = 5: five lifts that grow at once
    tree5 = _tree(5, split(2, 5, [leaf(10)]))
    assert _verdict(tree5, 1, 0, _splits_then_grows(0, Scope.ALL), rule)
    assert not _verdict(tree5, 1, 0, _splits_then_grows(1, Scope.ALL), rule)


def test_exceptional_split_verdicts():
    grows = (1, [leaf(3)])
    again = split(1, 3)
    rule = "exceptional-split"
    shape = _splits_then_grows(0, Scope.ALL_BUT_ONE)
    assert _verdict(_tree(3, (1, [grows, grows, again])), 1, 0, shape, rule)
    assert not _verdict(_tree(3, (1, [grows, again, again])), 1, 0, shape, rule)
    assert not _verdict(_tree(3, (1, [(3, [leaf(9)])])), 1, 0, shape, rule)
    # the exceptional lift must split again, not grow tails
    assert not _verdict(_tree(3, (1, [grows, grows, (1, [leaf(1)])])), 1, 0, shape, rule)
    # too shallow to single out the exceptional lift
    assert _verdict(_tree(3, (1, [grows, grows, grows])), 1, 0, shape, rule)
    assert _verdict(_tree(3, (1, [grows, grows, again])), 3, 0, shape, rule)


def test_tails_forever_verdicts():
    assert _verdict(_tree(3, (1, [(1, [leaf(1)])])), 1, 0, TAILS, "tails-forever")
    assert not _verdict(_tree(3, (1, [(1, [leaf(3)])])), 1, 0, TAILS, "tails-forever")
    assert not _verdict(_tree(5, (2, [(2, [leaf(2), leaf(4)])])), 1, 0, TAILS,
                        "tails-forever")


def test_partial_split_verdicts():
    rule = "partial-split"
    # p = 3, d = 2: one 1-lift and one 2-lift per level; the 2-lifts grow (m = 1)
    chain = _tree(3, (1, [(1, [leaf(1), leaf(2)]), (2, [leaf(6)])]))
    assert _verdict(chain, 1, 0, _partial(2, 1), rule)
    assert _verdict(chain, 1, 0, _partial(2, None), rule)
    split_kd = _tree(3, (1, [(1, [leaf(1), leaf(2)]), split(2, 3)]))
    assert not _verdict(split_kd, 1, 0, _partial(2, 1), rule)
    assert _verdict(split_kd, 1, 0, _partial(2, None), rule)  # m unknown: not checked
    lost = _tree(3, (1, [(1, [leaf(3)]), (2, [leaf(6)])]))
    assert not _verdict(lost, 1, 0, _partial(2, None), rule)
    # p = 5: d = 2 gives two 2k-lifts, d = 4 one 4k-lift
    d2 = _tree(5, (1, [(1, [leaf(1), leaf(2), leaf(2)]), leaf(2), leaf(2)]))
    assert _verdict(d2, 1, 0, _partial(2, None), rule)
    assert not _verdict(d2, 1, 0, _partial(4, None), rule)
    d4 = _tree(5, (2, [(2, [leaf(2), leaf(8)]), leaf(8)]))
    assert _verdict(d4, 1, 0, _partial(4, None), rule)
    assert not _verdict(d4, 1, 0, _partial(2, None), rule)
    uneven = _tree(5, (1, [leaf(1), leaf(2), leaf(4)]))
    assert not _verdict(uneven, 1, 0, _partial(2, None), rule)
    assert _verdict(uneven, 2, 0, _partial(2, None), rule)  # at the horizon


def test_grows_then_splits_verdicts():
    rule = "grows-then-splits"
    assert _verdict(_tree(3, (1, [split(3, 3)])), 1, 0, GROWS_THEN_SPLITS, rule)
    assert not _verdict(_tree(3, (1, [(3, [leaf(9)])])), 1, 0, GROWS_THEN_SPLITS, rule)
    assert not _verdict(_tree(3, split(1, 3)), 1, 0, GROWS_THEN_SPLITS, rule)
    # only the growth step is inside the horizon
    assert _verdict(_tree(3, (1, [leaf(3)])), 1, 0, GROWS_THEN_SPLITS, rule)


def test_undetermined_prefix_verdicts():
    rule = "undetermined-prefix"
    full = _tree(3, split(1, 3, [leaf(1)] * 3))
    assert _verdict(full, 1, 0, _undetermined(3), rule)
    lift = (1, [leaf(1)] * 3)
    grows = _tree(3, (1, [lift, lift, (1, [leaf(3)])]))
    assert not _verdict(grows, 1, 0, _undetermined(3), rule)
    assert _verdict(grows, 1, 0, _undetermined(2), rule)  # the growth is past the claim
    assert not _verdict(_tree(3, (1, [leaf(3)])), 1, 0, _undetermined(2), rule)


@pytest.mark.parametrize("p, kids", [
    (3, [3]), (3, [1, 1, 1]), (3, [1]), (3, [1, 2]), (3, [2, 1]),
    (5, [5]), (5, [1] * 5), (5, [1]), (5, [1, 2, 2]), (5, [1, 4]),
    (7, [1, 3, 3]), (7, [1, 6]), (7, [1, 2, 2, 2]),
])
def test_lift_length_law_accepts(p, kids):
    tree = _tree(p, (1, [leaf(k) for k in kids]))
    stats = check_lift_length_law(tree, p)
    assert (stats.checked, stats.mismatches) == (1, 0)


@pytest.mark.parametrize("p, kids", [
    (3, [1, 1]), (3, [9]), (3, [1, 1, 1, 1]), (5, [1, 2, 4]), (5, [1, 3]),
    (5, [1, 2]), (5, [2, 2]), (7, [1, 4]), (7, [1, 3, 6]), (7, [1, 3]),
])
def test_lift_length_law_rejects(p, kids):
    tree = _tree(p, (1, [leaf(k) for k in kids]))
    stats = check_lift_length_law(tree, p)
    assert (stats.checked, stats.mismatches) == (1, 1)


def test_lift_length_law_counts_every_node():
    # a cycle without lifts breaks the law; the other one keeps it
    tree = _tree(5, leaf(1), (1, [leaf(5)]))
    stats = check_lift_length_law(tree, 5)
    assert (stats.checked, stats.mismatches) == (2, 1)


def test_kd_samples_follow_the_law():
    tree = _tree(5, (1, [leaf(1), leaf(2), leaf(2)]), (1, [leaf(1), leaf(2), leaf(4)]),
                 (3, [leaf(3), leaf(12)]))
    samples = collect_kd_samples(tree)
    assert [(s.parent_level, s.k, s.d, s.child_rep, s.child_length) for s in samples] == [
        (1, 1, 2, 1, 2), (1, 1, 2, 2, 2), (1, 3, 4, 7, 12)]


@pytest.mark.parametrize("p, kids, k, want", [
    (3, [6], 2, Classification(Behavior.GROWS)),
    (3, [2, 2, 2], 2, Classification(Behavior.SPLITS)),
    (3, [2], 2, Classification(Behavior.GROWS_TAILS)),
    (3, [4, 2], 2, Classification(Behavior.PARTIALLY_SPLITS, 2)),
    (7, [3, 1, 3], 1, Classification(Behavior.PARTIALLY_SPLITS, 3)),
    (7, [5, 30], 5, Classification(Behavior.PARTIALLY_SPLITS, 6)),
    (7, [1, 2, 2, 2], 1, Classification(Behavior.PARTIALLY_SPLITS, 2)),
])
def test_classify_lifts_patterns(p, kids, k, want):
    assert classify_lifts(kids, k, p) == want


@pytest.mark.parametrize("p, kids, k", [
    (3, [2, 2], 2),        # two same-length lifts
    (7, [1, 3, 6], 1),     # unequal long lifts
    (7, [1, 2, 2, 4], 1),
    (7, [1, 4], 1),        # d = 4 does not divide p - 1
    (5, [1, 3], 1),
    (7, [1, 3], 1),        # d = 3 needs two 3-lifts at p = 7
    (3, [], 2),            # no lifts at all
    (3, [2, 3], 2),        # a lift length that k does not divide
    (3, [2, 6], 2),        # a lift that grows beside one that does not
    (3, [4], 2),
])
def test_classify_lifts_near_misses(p, kids, k):
    assert classify_lifts(kids, k, p) is None


def test_expand_children_checks_the_law():
    """A node whose classification disagrees with the lengths its walk finds
    is refused rather than expanded."""
    f = IntPoly([1, 1])  # x + 1 grows: its 3-cycle lifts to one 9-cycle
    node = make_node(f, 3, enumerate_level(f, 3, 1).cycles[0])
    node.classification = Classification(Behavior.SPLITS)
    with pytest.raises(InvariantError, match="lift-length law"):
        expand_children(f, 3, node)
    assert not node.expanded and node.children == []


ALLOWED_ORBIT_LENGTHS = {
    3: {1, 2, 3, 4, 6, 9},
    5: {1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20},
    7: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 21, 24, 30, 36, 42},
}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_orbit_length_allowed(p):
    allowed = {c for c in range(1, 2 * p * p) if orbit_length_allowed(c, p)}
    assert allowed == ALLOWED_ORBIT_LENGTHS[p]


@pytest.mark.parametrize("c", range(1, 11))
def test_orbit_bound_check_at_p3(c):
    """A stationary chain of length c through every level passes the oracle's
    orbit-bound check exactly when the length is allowed."""
    tree = _tree(3, (c, [(c, [leaf(c)])]))
    stats = check_orbit_lengths(tree, 3)
    assert (stats.checked, stats.mismatches) == (1, int(c not in ALLOWED_ORBIT_LENGTHS[3]))
