"""Predict the infinite shape of the cycle-lift tree from a finite prefix.

Each explored node is annotated with a PredictedShape.  The annotation is a
claim about the node's entire (infinite) subtree:

* grows-forever: a single chain whose length multiplies by p at every level.
* splits-then-grows(s, scope): each lift of the node (all, or all but one)
  splits s more times itself and then its descendants grow forever.  The
  all-but-one form recurs in the exceptional lift, which pins a p-adic
  periodic orbit of the node's length.
* stationary-partial-split(d, m): the node partially splits and its unique
  same-length lift does so again, forever; m, once certified, gives the
  behaviour of every kd-lift at a parent level nu with nu*d > m (it splits
  m-1 times, then grows).
* tails-forever(k, bound): the node grows tails at every level; each level
  has a single same-length lift carrying tails of bounded length.
* grows-then-splits: the p = 3, level-1 special case; the single lift splits
  and analysis continues below it.
* undetermined(beyond, reason): full splitting is known down to level
  ``beyond_level``, and nothing is claimed past it.

``analyze`` sweeps level 1 once for the root's children and explores below
it with expand_children only, deepens undetermined nodes by doubling their
horizon, and assembles an orbit-length report from the theorem-backed
stationary chains.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from .arith import IntPoly, iterate_series, mult_order, ord_p, exact_orbit
from .errors import InvariantError, SeparationError
from .graph import DEFAULT_BUDGET, enumerate_level
from .lifting import (Behavior, CycleNode, expand_children, make_node,
                      multiplier_valuation)

__all__ = [
    "ShapeKind",
    "Scope",
    "UndeterminedReason",
    "PredictedShape",
    "TreeNode",
    "OrbitChain",
    "OrbitReport",
    "AnalyzedTree",
    "SeparationAnalysis",
    "predict",
    "analyze",
    "separation_analysis",
    "orbit_length_allowed",
    "tail_bound",
]


class ShapeKind(str, Enum):
    GROWS_FOREVER = "grows-forever"
    SPLITS_THEN_GROWS = "splits-then-grows"
    STATIONARY_PARTIAL_SPLIT = "stationary-partial-split"
    TAILS_FOREVER = "tails-forever"
    GROWS_THEN_SPLITS = "grows-then-splits"
    UNDETERMINED = "undetermined"


class Scope(str, Enum):
    ALL = "all-lifts"
    ALL_BUT_ONE = "all-but-one-lift"


class UndeterminedReason(str, Enum):
    CASE3_AB = "case3-ab"
    PARTIAL_SPLIT_HORIZON = "partial-split-horizon"
    PATHOLOGICAL_SUSPECT = "pathological-suspect"


@dataclass(frozen=True, slots=True)
class PredictedShape:
    kind: ShapeKind
    splits: int | None = None  # lifts split this many times each (then grow)
    scope: Scope | None = None
    d: int | None = None
    m: int | None = None  # certified kd-family rule for stationary partial chains
    tail_bound: int | None = None
    beyond_level: int | None = None  # full splitting holds through it, nothing past
    reason: UndeterminedReason | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "splits": self.splits,
            "scope": self.scope.value if self.scope else None,
            "d": self.d,
            "m": self.m,
            "tailBound": self.tail_bound,
            "beyondLevel": self.beyond_level,
            "reason": self.reason.value if self.reason else None,
            "splitKnownUntil": self.beyond_level,  # the same horizon, kept for the schema
        }

    def describe(self) -> str:
        k = self.kind
        if k is ShapeKind.GROWS_FOREVER:
            return "grows forever"
        if k is ShapeKind.SPLITS_THEN_GROWS:
            who = "every lift" if self.scope is Scope.ALL else "all lifts but one"
            tail = "" if self.scope is Scope.ALL else "; the exception repeats this"
            return f"{who} splits {self.splits}x then grows{tail}"
        if k is ShapeKind.STATIONARY_PARTIAL_SPLIT:
            rule = f", kd-lifts split {self.m - 1}x then grow" if self.m is not None else ""
            return f"stationary partial split (d={self.d}{rule})"
        if k is ShapeKind.TAILS_FOREVER:
            return f"grows tails forever (tail length <= {self.tail_bound})"
        if k is ShapeKind.GROWS_THEN_SPLITS:
            return "grows once, then the lift splits"
        return (f"undetermined beyond level {self.beyond_level} "
                f"({self.reason.value}; splits through level {self.beyond_level})")


# Every shape analyze emits is built here; the same keywords give the same object.
_shape = functools.lru_cache(maxsize=4096)(PredictedShape)


def tail_bound(p: int, n: int, k: int) -> int:
    """Longest tail over a k-cycle with tails at level n: at most p + (n-2)k."""
    return max(p + (n - 2) * k, 0)


def _is_kd_lift(node: CycleNode) -> bool:
    parent = node.parent
    return (parent is not None
            and parent.classification is not None
            and parent.classification.behavior is Behavior.PARTIALLY_SPLITS
            and node.length == parent.length * parent.classification.d)


def predict(fmap, p: int, node: CycleNode) -> PredictedShape:
    """Shape of the subtree below ``node`` from its linearization data.

    Lifts of partially splitting cycles read their context from ``node.parent``
    (the horizon rule needs the parent's level and d).  Pure: never expands
    the node.
    """
    if node.lin is None:
        raise ValueError("the level-0 root has no prediction")
    n, k = node.level, node.length
    beh = node.classification.behavior

    if beh is Behavior.GROWS_TAILS:
        return _shape(kind=ShapeKind.TAILS_FOREVER, tail_bound=tail_bound(p, n, k))

    if beh is Behavior.GROWS:
        if n >= 2 or p > 3:
            return _shape(kind=ShapeKind.GROWS_FOREVER)
        # p = 3, level 1: growth continues unless b = c (mod 3), where c is
        # the quadratic coefficient of the iterate at the representative.
        series = iterate_series(fmap, node.rep, k, 2, modulus=p**3, p=p)
        c = series[2] % p
        if node.lin.b % p != c:
            return _shape(kind=ShapeKind.GROWS_FOREVER)
        return _shape(kind=ShapeKind.GROWS_THEN_SPLITS)

    if beh is Behavior.PARTIALLY_SPLITS:
        return _shape(kind=ShapeKind.STATIONARY_PARTIAL_SPLIT, d=node.classification.d)

    # Splitting cycles.
    if _is_kd_lift(node):
        # Lift of a partially splitting cycle: the iterate multiplier's valuation,
        # capped at nu*d and walked at rising precision, decides the subtree.
        nu = node.parent.level
        d = node.parent.classification.d
        e = multiplier_valuation(fmap, p, node, cap=nu * d)
        if e.saturated:
            return _shape(kind=ShapeKind.UNDETERMINED, beyond_level=nu + nu * d,
                          reason=UndeterminedReason.PARTIAL_SPLIT_HORIZON)
        if e.value < 2:
            raise InvariantError("splitting kd-lift must have e >= 2",
                                 p, fmap, node.level, node.rep)
        return _shape(kind=ShapeKind.SPLITS_THEN_GROWS, splits=e.value - 2, scope=Scope.ALL)

    A, B = node.lin.A, node.lin.B
    if not B.saturated and (A.saturated or B.value < A.value):
        return _shape(kind=ShapeKind.SPLITS_THEN_GROWS, splits=B.value - 1, scope=Scope.ALL)
    if not A.saturated and (B.saturated or A.value <= B.value):
        return _shape(kind=ShapeKind.SPLITS_THEN_GROWS, splits=A.value - 1,
                      scope=Scope.ALL_BUT_ONE)
    return _shape(kind=ShapeKind.UNDETERMINED, beyond_level=2 * n,
                  reason=UndeterminedReason.CASE3_AB)


@dataclass(frozen=True, slots=True)
class TreeNode:
    """Flat, serializable view of one analyzed node."""

    id: int
    parent: int | None
    level: int
    length: int
    rep: int
    classification: str | None
    d: int | None
    A: int | None
    B: int | None
    Asat: bool | None
    Bsat: bool | None
    prediction: PredictedShape | None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "level": self.level,
            "length": self.length,
            "rep": self.rep,
            "class": self.classification,
            "d": self.d,
            "A": self.A,
            "B": self.B,
            "Asat": self.Asat,
            "Bsat": self.Bsat,
            "prediction": self.prediction.to_dict() if self.prediction else None,
            # analyze never evaluates at a pole (see its docstring); the key
            # stays so that the JSON schema does not change.
            "badReduction": False,
        }


@dataclass(frozen=True)
class OrbitChain:
    """A stationary chain certifying a p-adic periodic orbit."""

    length: int
    kind: str  # "partial-split" | "exceptional-split" | "grows-tails"
    node_id: int
    level: int

    def to_dict(self) -> dict:
        return {"length": self.length, "kind": self.kind,
                "node": self.node_id, "level": self.level}


@dataclass
class OrbitReport:
    confirmed: list[OrbitChain]
    stable_so_far: list[dict]  # {"length": L, "level": deepest explored}
    undetermined_chains: int
    bound: dict

    def confirmed_lengths(self) -> set[int]:
        return {c.length for c in self.confirmed}

    def to_dict(self) -> dict:
        return {
            "confirmed": [c.to_dict() for c in self.confirmed],
            "stableSoFar": [dict(s) for s in self.stable_so_far],
            "undeterminedChains": self.undetermined_chains,
            "bound": dict(self.bound),
        }


def orbit_bound_statement(p: int) -> dict:
    return {
        "maxLength": p * p,
        "form": f"k*r with k <= {p} and r dividing {p - 1}",
        "p3Exception": p == 3,
    }


def orbit_length_allowed(c: int, p: int) -> bool:
    """Whether a p-adic periodic orbit may have length c (at most p^2): c = k*r
    with k <= p and r | p-1, or c = 9 at p = 3 (the exception)."""
    return (p == 3 and c == 9) or any(
        (p - 1) % r == 0 and c % r == 0 and c // r <= p for r in range(1, p))


@dataclass
class AnalyzedTree:
    p: int
    map_desc: dict
    max_level: int
    budget: int
    determined: bool
    budget_exceeded: bool
    nodes: list[TreeNode]
    orbits: OrbitReport
    bad_reduction_classes: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "prime": self.p,
            "poly": self.map_desc.get("poly", self.map_desc),
            "maxLevel": self.max_level,
            "budget": self.budget,
            "determined": self.determined,
            "budgetExceeded": self.budget_exceeded,
            "nodes": [n.to_dict() for n in self.nodes],
            "orbits": self.orbits.to_dict(),
            "badReductionClasses": list(self.bad_reduction_classes),
        }
        return out


# Undetermined nodes one analyze() run deepens at most; past it the frontier stays
# undetermined (perpetually splitting maps would force exponential exploration).
DEEPEN_WIDTH = 4096


class _Analysis:
    """Worklist state for one analyze() run."""

    def __init__(self, fmap, p: int, max_level: int, budget: int, max_deepen: int):
        self.fmap = fmap
        self.p = p
        self.max_level = max_level
        self.budget = budget
        self.max_deepen = max_deepen
        self.deepen_nodes = 0
        self.work = 0
        self.budget_exceeded = False
        self.unresolved = 0

    # -- expansion with work accounting -------------------------------------

    def expand(self, node: CycleNode) -> list[CycleNode] | None:
        """The children of ``node``, its k*p map evaluations charged to the work
        budget; None, and no charge, at max_level or when the charge does not fit."""
        if node.level >= self.max_level:
            return None
        cost = node.length * self.p
        if self.work + cost > self.budget:
            self.budget_exceeded = True
            return None
        self.work += cost
        return expand_children(self.fmap, self.p, node)

    def next_round(self, level: int, rounds_left: int,
                   round_until: int) -> tuple[int, int] | None:
        """The deepening round (rounds_left, round_until) a node at ``level`` is
        expanded in: the current one below round_until, else a new one to
        min(2*level, max_level) while rounds remain; None when none remain."""
        if level < round_until:
            return rounds_left, round_until
        if rounds_left > 0:
            return rounds_left - 1, min(2 * level, self.max_level)
        return None

    # -- main recursion ------------------------------------------------------

    def process(self, node: CycleNode, rounds_left: int, round_until: int) -> None:
        if node.shape is None:  # a pending kd-lift arrives predicted by its chain
            node.shape = predict(self.fmap, self.p, node)
        shape = node.shape
        kind = shape.kind

        if kind in (ShapeKind.GROWS_FOREVER, ShapeKind.TAILS_FOREVER):
            return
        if kind is ShapeKind.SPLITS_THEN_GROWS and shape.scope is Scope.ALL:
            return
        if kind is ShapeKind.SPLITS_THEN_GROWS:  # all-but-one: case 2
            self._process_exceptional_split(node)
            return
        if kind is ShapeKind.STATIONARY_PARTIAL_SPLIT:
            self._process_partial_chain(node, rounds_left)
            return
        if kind is ShapeKind.GROWS_THEN_SPLITS:
            rounds = rounds_left, round_until
        else:  # undetermined splitting (case 3): deepen by doubling the horizon
            assert kind is ShapeKind.UNDETERMINED
            rounds = self.next_round(node.level, rounds_left, round_until)
            if rounds is None:
                node.shape = _shape(kind=ShapeKind.UNDETERMINED, beyond_level=shape.beyond_level,
                                    reason=UndeterminedReason.PATHOLOGICAL_SUSPECT)
                self.unresolved += 1
                return
            if self.deepen_nodes >= DEEPEN_WIDTH:
                # deepening frontier got too wide; stay honestly undetermined
                self.unresolved += 1
                return
        children = self.expand(node)
        if children is None:
            self.unresolved += 1
            return
        self.deepen_nodes += kind is ShapeKind.UNDETERMINED
        for child in children:
            self.process(child, *rounds)

    def _process_exceptional_split(self, node: CycleNode) -> None:
        """Case 2 of the splitting trichotomy: identify the exceptional lift,
        verify it against the closed-form offset, and close the chain.

        The exceptional lift provably repeats case 2 with the same valuation
        at every deeper level, so one expansion certifies the whole chain.
        """
        if not _chain_head(node):
            return  # parent's expansion already certified this chain
        children = self.expand(node)
        if children is None:
            return  # annotation alone still determines the subtree
        lin = node.lin
        a_val = lin.A.value
        exceptional, regular = [], []
        for c in children:
            (exceptional if c.lin.B.saturated or c.lin.B.value >= a_val else regular).append(c)
        if len(exceptional) != 1 or any(c.lin.B.value != a_val - 1 for c in regular):
            raise InvariantError("exceptional-lift pattern violated in case 2",
                                 self.p, self.fmap, node.level, node.rep)
        # Closed-form check: the exceptional offset is -b/(a-1) at precision A.
        unit = (lin.a - 1) // self.p**a_val % self.p
        z = -(lin.b // self.p**a_val) * pow(unit, -1, self.p) % self.p
        if exceptional[0].offset != z:
            raise InvariantError("exceptional lift disagrees with -b/(a-1) offset",
                                 self.p, self.fmap, node.level, node.rep)
        for child in children:
            self.process(child, 0, 0)

    def _process_partial_chain(self, head: CycleNode, rounds_left: int) -> None:
        """Walk the stationary chain below a partially splitting cycle.

        Every level contributes one same-length lift (which partially splits
        again, same d) and kd-lifts whose multiplier valuation is capped at
        nu*d.  The first level with an unsaturated kd-lift certifies the
        kd-lift shape, which every unsaturated kd-lift of the chain must share,
        and m with it.  Until then the chain is extended, doubling the horizon
        up to ``max_deepen`` times beyond the head's own round.  Saturated
        kd-lifts stay undetermined, and each is deepened by its own expansion.
        """
        d = head.classification.d
        node = head
        certified: PredictedShape | None = None
        pending: list[CycleNode] = []
        chain = [head]
        rounds = rounds_left + 1, 0  # the head's round is free
        while certified is None:
            rounds = self.next_round(node.level, *rounds)
            if rounds is None or (children := self.expand(node)) is None:
                break
            k_child = None
            for child in children:
                if child.length == node.length:
                    k_child = child
                    continue
                child.shape = predict(self.fmap, self.p, child)
                if child.shape.kind is ShapeKind.UNDETERMINED:
                    pending.append(child)
                elif certified is None:
                    certified = child.shape
                elif child.shape != certified:
                    raise InvariantError(
                        "kd-lifts of one chain disagree on the certified m",
                        self.p, self.fmap, node.level, node.rep)
            if k_child is None or k_child.classification.behavior is not Behavior.PARTIALLY_SPLITS:
                raise InvariantError("partial split lost its same-length lift",
                                     self.p, self.fmap, node.level, node.rep)
            if k_child.classification.d != d:
                raise InvariantError("partial split changed d along the chain",
                                     self.p, self.fmap, node.level, node.rep)
            node = k_child
            chain.append(node)
        if certified is None:
            m = None
        else:  # a kd-lift with valuation m grows (m = 1) or splits m-2 more times
            m = 1 if certified.kind is ShapeKind.GROWS_FOREVER else certified.splits + 2
        for visited in chain:
            visited.shape = _shape(kind=ShapeKind.STATIONARY_PARTIAL_SPLIT, d=d, m=m)
        for child in pending:
            self.process(child, self.max_deepen, 0)
        if certified is None and not pending:
            # chain stopped before any kd-lift was examined
            self.unresolved += 1


def _chain_kind(node: CycleNode) -> str | None:
    """The theorem-backed stationary chain a node lies on, if any: it
    partially splits, grows tails, or is the exceptional case-2 lift."""
    beh = node.classification.behavior if node.classification else None
    if beh is Behavior.PARTIALLY_SPLITS:
        return "partial-split"
    if beh is Behavior.GROWS_TAILS:
        return "grows-tails"
    if node.shape is not None and node.shape.scope is Scope.ALL_BUT_ONE:  # splits-then-grows
        return "exceptional-split"


def _chain_head(node: CycleNode) -> str | None:
    """The kind of stationary chain node starts, if any: it lies on one, and
    its parent is not on a chain of the same kind and length."""
    kind, parent = _chain_kind(node), node.parent
    same = kind is not None and parent is not None and parent.length == node.length
    return None if same and _chain_kind(parent) == kind else kind


def analyze(fmap, p: int, max_level: int = 9, budget: int = DEFAULT_BUDGET,
            max_deepen: int = 3) -> AnalyzedTree:
    """Explore the lift tree with expand_children, annotate every node with
    its predicted shape, and report possible p-adic orbit lengths.

    Classes where a rational map's denominator vanishes mod p (its poles) are
    listed in ``bad_reduction_classes`` but never reached: every point analyze
    evaluates lies in the class mod p of a level-1 cycle member (lifts keep
    their class, walks stay on orbits), and the level-1 sweep sends poles to a
    sink that lies on no cycle.
    """
    analysis = _Analysis(fmap, p, max_level, budget, max_deepen)
    # The level-0 root, with its level-1 children from direct enumeration.
    root = CycleNode(0, 1, 0, None, None)
    level1 = enumerate_level(fmap, p, 1, budget=budget)
    for rep, length in zip(level1.reps.tolist(), level1.lengths.tolist()):
        child = make_node(fmap, p, 1, length, rep)
        child.parent = root
        root.children.append(child)
    for child in root.children:
        analysis.process(child, max_deepen, 0)

    # One breadth-first pass, children in rep order: the flat rows, the heads
    # of theorem-backed stationary chains (each within the orbit bound) and
    # the unexpanded undetermined frontier.
    nodes: list[TreeNode] = []
    confirmed: list[OrbitChain] = []
    stable: dict[int, int] = {}
    undetermined_count = 0
    order: list[tuple[CycleNode, int | None]] = [(root, None)]
    for nid, (cnode, parent_id) in enumerate(order):  # order grows as the pass runs
        lin, cls, shape = cnode.lin, cnode.classification, cnode.shape
        ab = (lin.A.value, lin.B.value, lin.A.saturated, lin.B.saturated) if lin else (None,) * 4
        nodes.append(TreeNode(nid, parent_id, cnode.level, cnode.length, cnode.rep,
                              cls.behavior.value if cls else None, cls.d if cls else None,
                              *ab, shape))
        order += [(child, nid) for child in cnode.children]
        if kind := _chain_head(cnode):  # the root, the one node with no shape, heads none
            if not orbit_length_allowed(cnode.length, p):
                raise InvariantError(f"confirmed orbit length {cnode.length} violates the "
                                     "orbit bound", p, fmap, cnode.level, cnode.rep)
            confirmed.append(OrbitChain(cnode.length, kind, nid, cnode.level))
        if shape is not None and shape.kind is ShapeKind.UNDETERMINED and not cnode.children:
            undetermined_count += 1
            stable[cnode.length] = max(stable.get(cnode.length, 0), cnode.level)

    orbits = OrbitReport(
        confirmed=sorted(confirmed, key=lambda c: (c.length, c.node_id)),
        stable_so_far=[{"length": L, "level": lvl} for L, lvl in sorted(stable.items())],
        undetermined_chains=undetermined_count,
        bound=orbit_bound_statement(p),
    )
    determined = analysis.unresolved == 0 and not analysis.budget_exceeded
    return AnalyzedTree(
        p=int(p),
        map_desc=fmap.describe(),
        max_level=max_level,
        budget=budget,
        determined=determined,
        budget_exceeded=analysis.budget_exceeded,
        nodes=nodes,
        orbits=orbits,
        bad_reduction_classes=fmap.poles(p),
    )


# ---------------------------------------------------------------------------
# Separation of cycles from an exact integer periodic point.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationAnalysis:
    """Behaviour of cycles separating from an integer periodic point.

    With h the (k*d)-th iterate: in the generic case (h'(alpha) != 1 with
    m = ord_p(h'(alpha) - 1)), a cycle separating at level n+1 with n > m/d
    stays the same length until level n+m and then grows.  In the
    pathological case (h'(alpha) = 1), with ell the first index >= 2 whose
    iterate Taylor coefficient at alpha is nonzero and m its valuation,
    separations at level n+1 with n > m split n(ell-1) + (m-1) times.
    """

    alpha: int
    k: int
    d: int
    multiplier: int  # h'(alpha), exact
    pathological: bool
    m: int
    ell: int | None
    taylor: tuple[int, ...]  # exact iterate coefficients at alpha, index 0..order

    def formula_splits(self, sep_n: int) -> int:
        """The split-count formula, with no validity gating."""
        if self.pathological:
            return sep_n * (self.ell - 1) + self.m - 1
        return self.m - 1


# Highest iterate-series order separation_analysis expands to while it looks for
# the first nonzero coefficient past the linear term.
SEPARATION_MAX_ORDER = 64


def separation_analysis(f: IntPoly, p: int, alpha: int, k: int) -> SeparationAnalysis:
    """Analyze the cycles separating from the exact periodic point alpha.

    Verifies that alpha has exact period k over the integers and that the
    multiplier is a unit mod p; raises otherwise.
    """
    orbit = exact_orbit(f, alpha, k)  # NotPeriodicError on failure
    fprime = f.derivative()
    g1 = 1
    for x in orbit:
        g1 *= fprime(x)
    if g1 % p == 0:
        raise SeparationError("derivative vanishes mod p on the orbit (tails case)")
    d = mult_order(g1 % p, p)
    h1 = g1**d
    order = max(d, 2)
    taylor = iterate_series(f, alpha, k * d, order)
    if taylor[1] != h1:
        raise InvariantError("iterate series disagrees with multiplier product",
                             p, f, rep=alpha)
    # The exact valuations below use caps p^cap > |v| that cannot bind.
    if h1 != 1:
        m = ord_p(h1 - 1, p, (h1 - 1).bit_length()).value
        return SeparationAnalysis(alpha, k, d, h1, False, m, None, tuple(taylor))
    if f.degree <= 1:
        raise SeparationError("f is linear with unit multiplier; no separation rule")
    while True:
        ell = next((i for i in range(2, len(taylor)) if taylor[i] != 0), None)
        if ell is not None:
            break
        if order >= SEPARATION_MAX_ORDER:
            raise SeparationError(
                f"no nonzero iterate coefficient up to order {order}")
        order = min(2 * order, SEPARATION_MAX_ORDER)
        taylor = iterate_series(f, alpha, k * d, order)
    if d > 1 and ell % d != 1:
        # commuting compositions force the first nonzero index = 1 mod d
        raise InvariantError(f"first nonzero iterate coefficient at {ell}, "
                             f"violating ell = 1 (mod {d})", p, f, rep=alpha)
    m = ord_p(taylor[ell], p, taylor[ell].bit_length()).value
    return SeparationAnalysis(alpha, k, d, h1, True, m, ell, tuple(taylor))
