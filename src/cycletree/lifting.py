"""Linearization data of a cycle and the four-way lift classification.

For a k-cycle of f_n through x1, the lift behaviour at level n+1 is governed
by the affine map t -> b + a*t induced on fiber offsets, where

    a = (f^k)'(x1)            (well defined mod p^n)
    b = (f^k(x1) - x1) / p^n  (an integer; here stored mod p^n)

Both are computed exactly by walking the cycle once at working precision
p^{2n}, which is enough for every congruence used downstream.  The offset
map is affine because, for n >= 1, Taylor's formula gives
f^k(x1 + t p^n) = f^k(x1) + t p^n (f^k)'(x1) (mod p^{2n}), and p^{2n} is
divisible by p^{n+1}.  So ``expand_children`` reads the map off (a, b) mod p,
advances each of the p lifts k steps, as numpy lanes or with big ints
(``_route``), and chains the lifts along each cycle of the offset map into one
child.

The lift-length law (a k-cycle lifts to one pk-cycle, to p k-cycles, to one
k-cycle carrying tails, or to one k-cycle plus (p-1)/d kd-cycles) is stated
once, in ``classify_lifts``; ``expand_children`` and ``verify`` both check
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .arith import Valuation, mult_order, ord_p, rem
from .errors import InvariantError, NotACycleError
from .graph import ORACLE_MAX_POINTS

__all__ = [
    "Behavior",
    "Classification",
    "LinearData",
    "CycleNode",
    "compute_lin_at",
    "classify",
    "classify_lifts",
    "expand_children",
    "multiplier_valuation",
]

# Child expansion walks the lifts as numpy lanes from this p on (``_route``).
# Big-int over lane kernel time, level-1 expansions of random quintics, 40
# nodes per p, two runs: p = 61: 0.97-1.26, 71: 1.13-1.67, 79: 1.60-1.69,
# 89: 1.36-1.52, 97: 1.73-1.79, 131: 2.08-2.12, 211: 4.01-4.61, 1009: 10.4-11.4.
# Lanes tie at p = 61 and win from 71; no workload has 7 < p < 1009, so 97 stays.
LANE_MIN_P = 97


class Behavior(str, Enum):
    GROWS = "grows"
    SPLITS = "splits"
    PARTIALLY_SPLITS = "partially-splits"
    GROWS_TAILS = "grows-tails"


@dataclass(frozen=True, slots=True)
class Classification:
    """Lift behaviour of a cycle; d is set only for partial splits."""

    behavior: Behavior
    d: int | None = None

    def __str__(self) -> str:
        if self.behavior is Behavior.PARTIALLY_SPLITS:
            return f"partially-splits(d={self.d})"
        return self.behavior.value


@dataclass(frozen=True, slots=True)
class LinearData:
    """Slope/intercept of the induced offset map, with capped valuations.

    ``a`` is representative independent mod p^n.  ``b`` is stored as computed
    at one chosen member and is only partly canonical: re-lifting the class to
    another integer shifts it by a multiple of (a - 1), so b mod p^A survives;
    rotating to another member multiplies it by a unit but re-canonicalizing
    re-lifts, so only min(B, A) is fully choice independent.  Predictions
    consume nothing finer: the B < A / A <= B / both-saturated trichotomy and
    B's exact value only when B < A.
    """

    a: int
    b: int
    A: Valuation  # min(ord_p(a - 1), level), saturation flagged
    B: Valuation  # min(ord_p(b), level), saturation flagged


def _lin(p: int, level: int, a: int, b: int) -> LinearData:
    return LinearData(a, b, ord_p(a - 1, p, level), ord_p(b, p, level))


def compute_lin_at(fmap, p: int, level: int, length: int, member: int) -> LinearData:
    """Linearization data computed from a specific cycle member."""
    if level < 1:
        raise ValueError("linearization data requires level >= 1")
    modulus = p**level
    work = modulus * modulus
    a, x = 1, member
    for i, (x, der) in enumerate(fmap.walk(member, length, work, modulus, p), 1):
        a = a * der % modulus
        if i < length and (x - member) % modulus == 0:
            raise NotACycleError(
                f"{member} returns after {i} steps, not {length}, at level {level}")
    if (x - member) % modulus != 0:
        raise NotACycleError(f"{member} is not on a {length}-cycle of f_{level}")
    b = (x - member) % work // modulus
    return _lin(p, level, a, b)


def classify(lin: LinearData, p: int) -> Classification:
    """The four-way lift classification from (a mod p, b mod p)."""
    a, b = lin.a % p, lin.b % p
    if a == 1:
        if b != 0:
            return Classification(Behavior.GROWS)
        return Classification(Behavior.SPLITS)
    if a == 0:
        return Classification(Behavior.GROWS_TAILS)
    return Classification(Behavior.PARTIALLY_SPLITS, mult_order(a, p))


def classify_lifts(child_lengths, k: int, p: int) -> Classification | None:
    """The lift-length law: the classification that the lift lengths of a
    k-cycle read, or None if they match no pattern.  Lengths {pk}: grows; k
    p times: splits; {k}: grows tails; k plus (p-1)/d times kd (d > 1 dividing
    p-1): partially splits."""
    lens = sorted(child_lengths)
    if lens == [p * k]:
        return Classification(Behavior.GROWS)
    if lens == [k] * p:
        return Classification(Behavior.SPLITS)
    if lens == [k]:
        return Classification(Behavior.GROWS_TAILS)
    if len(lens) < 2 or lens[0] != k or lens[1] % k:
        return None
    d = lens[1] // k
    if d > 1 and (p - 1) % d == 0 and lens[1:] == [k * d] * ((p - 1) // d):
        return Classification(Behavior.PARTIALLY_SPLITS, d)
    return None


def multiplier_valuation(fmap, p: int, node: CycleNode, cap: int) -> Valuation:
    """ord_p((f^k)'(x1) - 1) capped at ``cap``, from walks at rising precision.

    The cycle's own LinearData only pins this valuation up to the level, which
    is not enough for the partial-split horizon rule (cap = n*d).  Walks at
    p^(c+1), c = 2, 4, 8, ... up to ``cap``, stop at the first c where the
    valuation is below c.  Exact: (f^k)' mod p^(c+1) depends only on the orbit
    mod p^(c+1), so a valuation below c there is the true one.
    """
    c = 0
    while c < cap:
        c = min(2 * c or 2, cap)
        work = p ** (c + 1)
        a = 1
        for _, der in fmap.walk(node.rep, node.length, work, work, p):
            a = a * der % work
        if not (e := ord_p(a - 1, p, c)).saturated:
            return e
    return Valuation(cap, True)


@dataclass(eq=False, slots=True)
class CycleNode:
    """Tree node: the cycle of f_level with smallest member ``rep``, plus its
    linearization data and classification.

    ``offset`` is the fiber offset t of the member its expansion walk started
    from, parent.rep + t p^parent.level (None at levels 0 and 1).  Nodes compare
    by identity; the tree mutates them only by attaching children once.
    """

    level: int
    length: int
    rep: int
    lin: LinearData | None
    classification: Classification | None
    children: list["CycleNode"] = field(default_factory=list)
    offset: int | None = None
    parent: "CycleNode | None" = field(default=None, repr=False)
    shape: object | None = None  # PredictedShape, attached by the predictor


def make_node(fmap, p: int, level: int, length: int, rep: int) -> CycleNode:
    """The node of the cycle of f_level with smallest member ``rep``."""
    lin = compute_lin_at(fmap, p, level, length, rep)
    return CycleNode(level, length, rep, lin, classify(lin, p))


def expand_children(fmap, p: int, node: CycleNode) -> list[CycleNode]:
    """Children of a node, computed without global enumeration.

    The offsets t of the lifts x1 + p^n t move under f^k by t -> b + a*t
    (mod p), read off the node's (a, b) with no walk.  Each cycle of that map,
    listed from its smallest offset t0, is one child.  The real map is then
    walked over the lifts, k steps each, which checks the closed form and
    yields each child's rep, its a, and its b at the walk start.  Cost: k*p
    evaluations, or k when a = 0 (one lift); ``predictor._Analysis.expand``
    charges k*p, exact for every expansion ``analyze`` makes, as it never expands
    an a = 0 node (grows-tails: tails-forever).  The child lengths must match
    the node's classification under the lift-length law (``classify_lifts``).

    Two kernels advance the lifts (``_route``): for p >= ``LANE_MIN_P`` and
    p^{n+1} < 2^31 ``_int64_lifts`` as p numpy lanes (``limbs`` on one limb
    below 2^21, two below 2^31), otherwise ``_bigint_lifts`` one at a time at
    p^{2(n+1)}.  ``_children`` checks and chains what either returns the same way.

    b at the canonical rep needs no second walk.  With m = n+1, L the child
    length, F = f^L, y_j = f^j(start) and D_j = (f^j)'(start), Taylor mod p^{2m}
    gives F(y_j) - y_j = D_j * (F(start) - start) (rotation), and for
    rep = y_j - u p^m, F(rep) - rep = F(y_j) - y_j - u p^m (a - 1) (re-lift).
    """
    n, k = node.level, node.length
    children = _children(fmap, p, node, _route(p, n))
    got = [c.length for c in children]
    if classify_lifts(got, k, p) != node.classification:
        raise InvariantError(f"lift-length law violated: lengths {sorted(got)} under "
                             f"k={k} do not read {node.classification}", p, fmap, n,
                             node.rep)
    node.children = children
    return children


def _children(fmap, p: int, node: CycleNode, kernel) -> list[CycleNode]:
    """The children of ``node`` in rep order.  ``kernel`` advances one lift
    per offset t (every t when a is a unit, else b, the one cycle of t -> b) k
    steps.  Each offset cycle, walked once from its smallest offset, is one
    child: its lanes chain as the high limb does, u <- H_t + u*D_t and
    a <- a*D_t, and its rep is their smallest low limb."""
    n, k, x1 = node.level, node.length, node.rep
    base = p**n
    P = base * p
    a, b = node.lin.a % p, node.lin.b % p
    lanes = range(p) if a else range(b, b + 1)
    lo, H, D, mlo, mhi, mder = kernel(fmap, p, node, lanes)
    s = lanes.start
    seen, children = [False] * len(lanes), []
    for t0 in lanes:
        if seen[t0 - s]:
            continue
        i, r, u, deriv, rep = t0, 0, 0, 1, P  # every low limb is below P
        while r == 0 or i != t0:
            seen[j := i - s] = True
            i = (b + a * i) % p
            if lo[j] != x1 + i * base:
                raise InvariantError("f^k does not move offsets by t -> b + a*t",
                                     p, fmap, n, x1)
            if mlo[j] < rep:
                rep, rep_deriv, rep_hi = mlo[j], deriv * mder[j] % P, (mhi[j] + u * mder[j]) % P
            u = (H[j] + u * D[j]) % P
            deriv = deriv * D[j] % P
            r += 1
        lin = _lin(p, n + 1, deriv, (u * rep_deriv - rep_hi * (deriv - 1)) % P)
        children.append(CycleNode(n + 1, r * k, rep, lin, classify(lin, p),
                                  offset=t0, parent=node))
    children.sort(key=lambda c: c.rep)
    return children


def _route(p: int, level: int):
    """The lift kernel: numpy lanes when p pays for them and P = p^{level+1} <
    ``ORACLE_MAX_POINTS`` keeps every ``limbs`` product below 2^63 (one limb
    below P = 2^21, two below 2^31); else big ints."""
    if p >= LANE_MIN_P and p ** (level + 1) < ORACLE_MAX_POINTS:
        return _int64_lifts
    return _bigint_lifts


def _bigint_lifts(fmap, p: int, node: CycleNode, lanes) -> tuple[list, ...]:
    """The lifts x1 + p^n t, t in ``lanes``, each walked k steps at P^2 with big
    ints, P = p^{n+1}.  Six lists, one entry per lane: the last low limb, the
    high limb H, D = (f^k)' mod P, and the smallest low limb of the steps below
    k with its high limb and (f^j)' there (as ``_int64_lifts``)."""
    n, k, x1 = node.level, node.length, node.rep
    base = p**n
    P = base * p
    rows = []
    for t in lanes:
        lo = min_lo = x1 + t * base
        der, min_hi, min_der = 1, 0, 1
        for step, (y, d) in enumerate(fmap.walk(lo, k, P * P, P, p), 1):
            der = der * d % P
            if step == k:
                break
            lo = y % P
            if lo % base == x1:
                raise InvariantError(f"a lift returns to its fiber after {step} < k steps",
                                     p, fmap, n, x1)
            if lo < min_lo:
                min_lo, min_hi, min_der = lo, y // P, der
        hi, lo = divmod(y, P)
        rows.append((lo, hi, der, min_lo, min_hi, min_der))
    return tuple(map(list, zip(*rows)))


def _int64_lifts(fmap, p: int, node: CycleNode, lanes) -> tuple[list, ...]:
    """As ``_bigint_lifts``, with the lifts as int64 lanes advanced k steps
    together by ``limbs`` mod P = p^{n+1}; the high limb follows by Taylor,
    f(z + u P) = f(z) + u P f'(z) (mod P^2), so hi <- h + hi*d."""
    n, k, x1 = node.level, node.length, node.rep
    base = p**n
    P = base * p
    lo = x1 + np.arange(lanes.start, lanes.stop, dtype=np.int64) * base
    hi, der = np.zeros_like(lo), np.ones_like(lo)
    min_lo, min_hi, min_der = lo, hi, der
    for step in range(1, k + 1):
        h, lo, d = fmap.limbs(lo, P, p)
        hi = rem(h + hi * d, P)
        der = rem(der * d, P)
        if step == k:
            break
        if (rem(lo, base) == x1).any():
            raise InvariantError(f"a lift returns to its fiber after {step} < k steps",
                                 p, fmap, n, x1)
        less = lo < min_lo
        min_lo = np.where(less, lo, min_lo)
        min_hi = np.where(less, hi, min_hi)
        min_der = np.where(less, der, min_der)
    return tuple(v.tolist() for v in (lo, hi, der, min_lo, min_hi, min_der))
