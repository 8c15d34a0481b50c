"""Differential harness: every analytic claim is checked against the oracle.

``verify_all`` is the pipeline for every map: it builds one oracle (a
``BruteTree`` with tail lengths and orbit arrays) from ``fmap.oracle_map()``
(extended Euclid for a rational map), and runs on it ``verify_map`` and the
structural laws that need no predictor, which evaluate fmap: the lift-length
law, the multiplier/offset chain congruences, the capped-valuation identity on
kd-lifts, orbit-length and tail-length bounds.  ``verify_map`` checks that the
analyzed prefix matches the oracle node for node, and that each annotation holds
up to the oracle's horizon: ``_claim`` turns a shape into one claim on its
node's subtree (the node's own lift pattern and the claim each child keeps), and
one memoized walker, ``_holds``, checks every claim.  Every reading of a cycle's
lift lengths goes through ``lifting.classify_lifts``, the one statement of the
lift-length law, which the analytic engine checks too.

The chain congruences read (a, b) off the orbit arrays in numpy.  At level m,
P = p^m, take a cycle x_0 = rep, ..., x_{L-1} in orbit order and write
f(x_i) = c_i P + x_{i+1} (mod P^2); the low limb must be the next member, so
the oracle's orbit is never trusted (a cycle whose orbit breaks this is one
mismatch, and ends the check).  Lifting the walk from x_0 to Z/P^2 as
x_i + u_i P (u_0 = 0), Taylor's f(x + uP) = f(x) + uP f'(x) (mod P^2) gives
the exact carry recurrence u_{i+1} = c_i + u_i f'(x_i) (mod P): b at the rep
is u_L and a is the product of the f'(x_i), a segmented scan of the affine
steps.  At x_j, with D_j = f'(x_0)...f'(x_{j-1}), b_j = b D_j - u_j (a - 1).
The scan is blocked (Blelloch 1990): B sequential steps across the n/B blocks of
a chunk (about n multiplications), then a doubling over the n/B block totals only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .arith import IntPoly, ord_p, rem
from .errors import InvariantError
from .graph import DEFAULT_BUDGET, BruteTree, build_tree_bruteforce
from .lifting import Behavior, Classification, classify_lifts
from .predictor import (AnalyzedTree, PredictedShape, Scope, ShapeKind, analyze,
                        orbit_length_allowed, tail_bound)

__all__ = [
    "RuleStats",
    "VerifyReport",
    "verify_map",
    "verify_all",
    "random_poly",
    "check_lift_length_law",
    "check_chain_congruences",
    "KdLiftSample",
    "collect_kd_samples",
    "check_orbit_lengths",
    "check_tail_bounds",
    "oracle_depth",
]


def oracle_depth(p: int, budget: int) -> int:
    """Deepest level enumerable within the point budget."""
    n = 0
    while p ** (n + 1) <= budget:
        n += 1
    return n


def random_poly(rng: random.Random, p: int, max_degree: int = 5) -> IntPoly:
    """Random polynomial with coefficients uniform in [0, p^2)."""
    return IntPoly(rng.randrange(p * p) for _ in range(max_degree + 1))


@dataclass
class RuleStats:
    checked: int = 0
    mismatches: int = 0

    def record(self, ok: bool):
        self.checked += 1
        if not ok:
            self.mismatches += 1


@dataclass
class VerifyReport:
    rules: dict[str, RuleStats] = field(default_factory=dict)
    details: list[str] = field(default_factory=list)

    def stat(self, name: str) -> RuleStats:
        return self.rules.setdefault(name, RuleStats())

    def record(self, name: str, ok: bool, detail: str = ""):
        self.stat(name).record(ok)
        if not ok:
            self.note([f"{name}: {detail}"])

    def note(self, details) -> None:
        """Keep mismatch details, the first 50 of the report only."""
        self.details += itertools.islice(details, max(50 - len(self.details), 0))

    @property
    def mismatches(self) -> int:
        return sum(s.mismatches for s in self.rules.values())

    @property
    def checked(self) -> int:
        return sum(s.checked for s in self.rules.values())

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


_GROWS = Classification(Behavior.GROWS)
_SPLITS = Classification(Behavior.SPLITS)
_TAILS = Classification(Behavior.GROWS_TAILS)


def _lifts(tree: BruteTree, level: int, idx: int) -> Classification | None:
    """The lift pattern of cycle (level, idx) in the oracle, or None if lawless."""
    lens = [tree.lengths[level + 1][c] for c in tree.children[level][idx]]
    return classify_lifts(lens, tree.lengths[level][idx], tree.p)


def _claim(shape: PredictedShape, level: int) -> tuple[str, tuple]:
    """The rule name and the subtree claim of a level-``level`` node's shape."""
    kind = shape.kind
    if kind is ShapeKind.GROWS_FOREVER:
        return "grows-forever", ("S", 0)
    if kind is ShapeKind.SPLITS_THEN_GROWS and shape.scope is Scope.ALL:
        return "splits-then-grows", ("S", shape.splits + 1)
    if kind is ShapeKind.SPLITS_THEN_GROWS:
        return "exceptional-split", ("E", shape.splits)
    if kind is ShapeKind.STATIONARY_PARTIAL_SPLIT:
        return "partial-split", ("P", shape.d, shape.m)
    if kind is ShapeKind.TAILS_FOREVER:
        return "tails-forever", ("T",)
    if kind is ShapeKind.GROWS_THEN_SPLITS:
        return "grows-then-splits", ("GS", level + 2)
    return "undetermined-prefix", ("U", shape.beyond_level)


def _holds(tree: BruteTree, level: int, idx: int, claim: tuple, memo: dict) -> bool:
    """Whether cycle (level, idx) of the oracle keeps ``claim`` down to the
    horizon; true at or past it.  A claim names the lift pattern its node
    must read (``_lifts``) and the claim each child must keep:

    * ("S", s): splits, every child keeps ("S", s-1); at s = 0 it grows and
      its child keeps ("S", 0).  grows-forever is ("S", 0), and
      splits-then-grows(s, all lifts) is ("S", s+1).
    * ("E", s): splits, at most one child fails ("S", s), and that child
      keeps ("E", s): exceptional-split, splits-then-grows(s, all but one).
    * ("T",): grows tails, its child keeps ("T",).
    * ("P", d, m): partially splits with d, its k-lift keeps ("P", d, m);
      with m certified and level*d > m its kd-lifts keep ("S", m-1).
    * ("GS", n+2): grows, its lift keeps ("U", n+2): grows-then-splits.
    * ("U", until): splits at each level below ``until``: undetermined-prefix.
    """
    if level >= tree.max_level:
        return True
    key = (level, idx, claim)
    if key in memo:
        return memo[key]
    kind = claim[0]
    lifts = _lifts(tree, level, idx)
    kids = tree.children[level][idx]

    def keeps(child: int, sub: tuple) -> bool:
        return _holds(tree, level + 1, child, sub, memo)

    if kind == "S" and claim[1] == 0:
        ok = lifts == _GROWS and keeps(kids[0], claim)
    elif kind == "S":
        ok = lifts == _SPLITS and all(keeps(c, ("S", claim[1] - 1)) for c in kids)
    elif kind == "E":
        stray = [c for c in kids if not keeps(c, ("S", claim[1]))]
        ok = lifts == _SPLITS and len(stray) <= 1 and all(keeps(c, claim) for c in stray)
    elif kind == "T":
        ok = lifts == _TAILS and keeps(kids[0], claim)
    elif kind == "P":
        _, d, m = claim
        k = tree.lengths[level][idx]
        kd = ("S", m - 1) if m is not None and level * d > m else None
        ok = lifts == Classification(Behavior.PARTIALLY_SPLITS, d) and all(
            keeps(c, claim if tree.lengths[level + 1][c] == k else kd)
            for c in kids if kd or tree.lengths[level + 1][c] == k)
    elif kind == "GS":
        ok = lifts == _GROWS and keeps(kids[0], ("U", claim[1]))
    else:
        ok = level >= claim[1] or (lifts == _SPLITS and all(keeps(c, claim) for c in kids))
    memo[key] = ok
    return ok


def verify_map(fmap, p: int, budget: int = DEFAULT_BUDGET,
               max_level: int | None = None,
               analyzed: AnalyzedTree | None = None,
               oracle: BruteTree | None = None) -> VerifyReport:
    """Compare the predictor's annotated tree against the brute-force tree.

    ``max_level`` bounds the oracle depth (default: deepest level within the
    point budget).  Precomputed trees may be passed in to share work; a given
    oracle sets the horizon, and a ``max_level`` other than its depth is an error.
    """
    if oracle is None:
        top = max_level if max_level is not None else oracle_depth(p, budget)
        oracle = build_tree_bruteforce(fmap.oracle_map(), p, top, budget=budget)
    elif max_level not in (None, oracle.max_level):
        raise ValueError(f"max_level {max_level} differs from the oracle's {oracle.max_level}")
    top = oracle.max_level
    if analyzed is None:
        analyzed = analyze(fmap, p, budget=budget)
    report = VerifyReport()

    # Locate every analyzed node in the oracle, the root at (0, 0), and group the
    # children of each node.  analyze always expands the root, so its child set
    # is compared whenever the oracle has a level-1 cycle (a map with a pole in
    # every class has none, and no child set to compare).
    root, *rest = analyzed.nodes
    index: dict[int, tuple[int, int]] = {root.id: (0, 0)}
    children_of: dict[int, list] = {root.id: []} if top and oracle.children[0][0] else {}
    for node in rest:
        children_of.setdefault(node.parent, []).append(node)
        if node.level > top:
            continue
        try:
            idx = oracle.cycle_index(node.level, node.rep)
        except KeyError:
            report.record("prefix", False,
                          f"analyzed cycle rep={node.rep}@{node.level} missing from oracle")
            continue
        ok = oracle.lengths[node.level][idx] == node.length
        report.record("prefix", ok, f"length mismatch at rep={node.rep}@{node.level}")
        if ok:
            index[node.id] = (node.level, idx)

    # Expanded nodes must reproduce the oracle's child sets exactly.
    for nid, kids in children_of.items():
        pos = index.get(nid)
        if pos is None or pos[0] >= top:
            continue
        level, idx = pos
        got = sorted((c.rep, c.length) for c in kids)
        want = sorted((oracle.reps[level + 1][c], oracle.lengths[level + 1][c])
                      for c in oracle.children[level][idx])
        report.record("prefix", got == want,
                      f"children of rep={oracle.reps[level][idx]}@{level} differ")

    # Annotation conformance: one claim per shape, checked by ``_holds``.
    memo: dict = {}
    for node in analyzed.nodes:
        pos = index.get(node.id)
        if node.prediction is None or pos is None:
            continue
        rule, claim = _claim(node.prediction, pos[0])
        report.record(rule, _holds(oracle, *pos, claim, memo), f"rep={node.rep}@{pos[0]}")
    return report


# ---------------------------------------------------------------------------
# Structural oracle invariants (no predictor involved).
# ---------------------------------------------------------------------------


def check_lift_length_law(tree: BruteTree, p: int, report: VerifyReport) -> RuleStats:
    """Every cycle's lift lengths must form one of the four lawful patterns
    (``_lifts``, at the tree's prime)."""
    stats = report.stat("lift-length-law")
    for level in range(1, tree.max_level):
        for idx, k in enumerate(tree.lengths[level]):
            ok = _lifts(tree, level, idx) is not None
            stats.record(ok)
            if not ok:
                lens = sorted(tree.lengths[level + 1][c] for c in tree.children[level][idx])
                report.note([f"lift-length-law: {lens} under k={k}@{level}"])
    return stats


# Orbit members per chunk of whole cycles (bounds peak memory).  On the README quintic's 5^9
# top level the tracemalloc peak of _level_lin is 39 B/member: 46.0 MB over its 1,171,876
# members, whose 625,000-member cycle is one chunk.
_CHAIN_CHUNK = 1 << 15


def _scan_at(der, hi, seg, at, modulus: int) -> tuple:
    """(slope, carry) after member at[..., i] of the scan of the steps u -> hi + u * der
    along each cycle (cycle i starts at seg[i]): B sequential steps on the (B, nb) layout,
    a doubling over the nb block totals, and their carry-in at the ``at`` members only."""
    n = len(der)
    longest = max(n - int(seg[-1]), int((seg[1:] - seg[:-1]).max(initial=0)))
    B = min(64, int(n**0.5), longest)
    nb = -(-n // B)
    lanes = np.zeros((3, nb * B), dtype=np.int64)
    lanes[0, :n], lanes[2, :n] = der, hi
    lanes = lanes.reshape(3, nb, B).transpose(2, 0, 1)  # a view: member b*B + j at [j, :, b]
    keep, sc = lanes[:, 0], lanes[:, 1:]  # step multiplier der * keep; (slope, carry)
    row, col = np.divmod(seg, B)[::-1]
    sc[0, 0], sc[row, 0, col] = keep[0], keep[row, col]  # reset at j = 0 and at starts
    keep[0], keep[row, col] = 0, 0
    for j in range(1, B):
        sc[j] += sc[j - 1] * keep[j]
        rem(sc[j], modulus, inplace=True)
    tot, idx = sc[B - 1].copy(), np.arange(nb)
    bpos = idx - np.maximum.accumulate(idx * (np.bincount(col, minlength=nb) > 0))
    for r in range(int(bpos.max()).bit_length()):
        live = np.flatnonzero(bpos >= 1 << r)
        step = tot[:, live - (1 << r)] * tot[0, live]
        step[1] += tot[1, live]
        tot[:, live] = rem(step, modulus)
    blk, j = np.divmod(at, B)
    slope, carry = sc[j, 0, blk], sc[j, 1, blk]
    cin = col < blk
    prev = tot[:, blk[cin] - 1]
    carry[cin] = rem(prev[1] * slope[cin] + carry[cin], modulus)
    slope[cin] = rem(prev[0] * slope[cin], modulus)
    return slope, carry


def _level_lin(fmap, p: int, level: int, tree: BruteTree, over) -> tuple:
    """Arrays (chosen member, a, b at it) over the cycles of ``level``, in
    chunks of whole cycles.  The chosen member is the rep, or with ``over``
    the first member from the rep that is over[cycle] mod p^(level-1); it is -1
    at a cycle whose orbit does not follow fmap."""
    modulus = p**level
    lengths = np.array(tree.lengths[level], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    chosen, a, b = (np.empty(len(lengths), dtype=np.int64) for _ in range(3))
    i0 = 0
    while i0 < len(lengths):
        i1 = max(i0 + 1, int(np.searchsorted(starts, starts[i0] + _CHAIN_CHUNK, "right")) - 1)
        x = tree.orbits[level][starts[i0]:starts[i1]].astype(np.int64)
        seg = starts[i0:i1] - starts[i0]
        seg_len = lengths[i0:i1]
        last = seg + seg_len - 1
        cyc = np.repeat(np.arange(i1 - i0), seg_len)
        hi, lo, der = fmap.limbs(x, modulus, p)
        follow = np.arange(1, len(x) + 1)
        follow[last] = seg
        off = cyc[lo != x[follow]]
        if over is None:
            first = seg
        else:
            hit = np.append(np.flatnonzero(rem(x, modulus // p) == over[i0:i1][cyc]), len(x))
            first = hit[np.searchsorted(hit, seg)]
            stray = np.flatnonzero(first > last)
            if len(stray):
                raise InvariantError("child has no member over the parent rep", p, fmap,
                                     level, tree.reps[level][i0 + stray[0]])
        # (slope, carry) = (D, u) after the last member and before ``first``, by the blocked
        # scan: about n multiplications, then a doubling over the n/B block totals.
        at_rep = first == seg
        (a_l, d_j), (u_l, u_j) = _scan_at(der, hi, seg, np.stack((last, first - 1 + at_rep)),
                                          modulus)
        d_j[at_rep], u_j[at_rep] = 1, 0
        a[i0:i1] = a_l
        b[i0:i1] = rem(u_l * d_j - u_j * (a_l - 1), modulus)
        chosen[i0:i1] = x[first]
        chosen[i0 + off] = -1
        i0 = i1
    return chosen, a, b


def check_chain_congruences(fmap, p: int, tree: BruteTree, report: VerifyReport) -> RuleStats:
    """The multiplier power law and the offset recurrence across every
    parent/child pair:

        a' = a^r (mod p^n)
        p b' = t (a^r - 1) + b (1 + a + ... + a^{r-1})  (mod p^n)

    computed at coherent representatives (each child's chosen member reduces
    to its parent's chosen member, x' = x + t p^n; level 1 uses the reps).
    Every (a, b) is read off the oracle's orbit arrays by ``_level_lin``.
    """
    stats = report.stat("chain-congruence")
    if tree.max_level < 2:
        return stats
    for level in range(1, tree.max_level + 1):
        par = np.array(tree.parents[level], dtype=np.int64)
        over = chosen[par] if level > 1 else None
        c_chosen, c_a, c_b = _level_lin(fmap, p, level, tree, over)
        off = np.flatnonzero(c_chosen < 0)
        for c in off:  # no (a, b) at this level or below can be compared
            report.record("chain-congruence", False,
                          f"orbit of rep={tree.reps[level][c]}@{level} does not follow the map")
        if len(off):
            break
        if level > 1:
            base = p ** (level - 1)
            r = np.array(tree.lengths[level]) // np.array(tree.lengths[level - 1])[par]
            pa, pb = a[par], b[par]
            a_pow, geo = np.ones_like(pa), np.zeros_like(pa)
            for i in range(int(r.max()) if len(r) else 0):
                live = i < r
                geo = np.where(live, rem(geo + a_pow, base), geo)
                a_pow = np.where(live, rem(a_pow * pa, base), a_pow)
            t = (c_chosen - chosen[par]) // base
            ok = ((rem(c_a - a_pow, base) == 0)
                  & (rem(p * c_b - (t * (a_pow - 1) + pb * geo), base) == 0))
            stats.checked += len(ok)
            bad = np.flatnonzero(~ok)
            stats.mismatches += len(bad)
            report.note(f"chain-congruence: rep={tree.reps[level][c]}@{level}"
                        for c in bad[np.argsort(par[bad], kind="stable")])
        chosen, a, b = c_chosen, c_a, c_b
    return stats


@dataclass(frozen=True)
class KdLiftSample:
    """A kd-lift of a partially splitting k-cycle at level ``parent_level``."""

    parent_level: int
    k: int
    d: int
    child_rep: int
    child_length: int


def collect_kd_samples(tree: BruteTree) -> list[KdLiftSample]:
    """kd-lifts of partially splitting cycles, identified structurally."""
    samples = []
    for level in range(1, tree.max_level):
        for idx, k in enumerate(tree.lengths[level]):
            lifts = _lifts(tree, level, idx)
            if lifts is None or lifts.behavior is not Behavior.PARTIALLY_SPLITS:
                continue
            kd = k * lifts.d
            samples += [KdLiftSample(level, k, lifts.d, tree.reps[level + 1][c], kd)
                        for c in tree.children[level][idx]
                        if tree.lengths[level + 1][c] == kd]
    return samples


def check_kd_identity(fmap, p: int, tree: BruteTree, report: VerifyReport) -> RuleStats:
    """The capped-valuation identity on every kd-lift y of the oracle,

        min(ord_p(h(y) - y) - n, n*d) = min(ord_p(h'(y) - 1), n*d),

    where h is the (k*d)-th iterate and n the parent level."""
    stats = report.stat("kd-identity")
    for sample in collect_kd_samples(tree):
        n, y, kd = sample.parent_level, sample.child_rep, sample.child_length
        cap = n * sample.d
        big, med = p ** (n + cap + 1), p ** (cap + 1)
        a = 1
        for x, der in fmap.walk(y, kd, big, med, p):
            a = a * der % med
        ok = (min(ord_p((x - y) % big, p, n + cap + 1).value - n, cap)
              == min(ord_p(a - 1, p, cap + 1).value, cap))
        stats.record(ok)
        if not ok:
            report.note([f"kd-identity: {sample}"])
    return stats


def check_orbit_lengths(tree: BruteTree, p: int, report: VerifyReport) -> RuleStats:
    """Deepest-level cycles with the length of their parent (chains of constant
    length reaching the horizon) must obey the orbit bound
    (``orbit_length_allowed``, evaluated once per length)."""
    stats = report.stat("orbit-bound")
    top = tree.max_level
    if top < 2:
        return stats
    lengths = np.array(tree.lengths[top], dtype=np.int64)
    stationary = lengths[lengths == np.array(tree.lengths[top - 1])[tree.parents[top]]]
    distinct, which = np.unique(stationary, return_inverse=True)
    bad = stationary[~np.array([orbit_length_allowed(c, p) for c in distinct.tolist()],
                               dtype=bool)[which]]
    stats.checked += len(stationary)
    stats.mismatches += len(bad)
    report.note(f"orbit-bound: stationary length {c}" for c in bad.tolist())
    return stats


def check_tail_bounds(fmap, p: int, max_level: int, report: VerifyReport,
                      tree: BruteTree) -> RuleStats:
    """Observed longest tail over each cycle with tails is at most
    ``tail_bound(p, n, k)`` = p + (n-2)k at level n.

    Reads the per-cycle pairs of a tree built with ``with_tail_lengths=True``
    (levels 1..``max_level``); ``fmap`` is not evaluated.
    """
    if tree.tail_pairs is None:
        raise ValueError("check_tail_bounds needs a tree built with_tail_lengths")
    stats = report.stat("tail-bound")
    for n in range(1, max_level + 1):
        for k, longest in tree.tail_pairs[n]:
            ok = longest <= tail_bound(p, n, k)
            stats.record(ok)
            if not ok:
                report.note([f"tail-bound: tail of {longest} at level {n} over k={k}"])
    return stats


def verify_all(fmap, p: int, max_level: int | None = None,
               budget: int = DEFAULT_BUDGET) -> tuple[VerifyReport, BruteTree]:
    """Every check on one oracle: ``verify_map`` and the structural checkers,
    all reading one tree built with tail lengths.  Returns (report, tree).

    The tail-bound rule runs when some level has a residue on no cycle
    (``BruteTree.tail_points``, poles included), so only a permutation reports
    no tail-bound line.  Where every such residue is a pole or feeds into one,
    no cycle owns a tail and the line reads 0 checked.
    """
    top = max_level if max_level is not None else oracle_depth(p, budget)
    tree = build_tree_bruteforce(fmap.oracle_map(), p, top, budget=budget, with_tail_lengths=True)
    report = verify_map(fmap, p, budget=budget, oracle=tree)
    check_lift_length_law(tree, p, report)
    check_chain_congruences(fmap, p, tree, report)
    check_kd_identity(fmap, p, tree, report)
    check_orbit_lengths(tree, p, report)
    if any(tree.tail_points[1:]):
        check_tail_bounds(fmap, p, top, report=report, tree=tree)
    return report, tree
