"""Linearization data of a cycle and the four-way lift classification.

For a k-cycle of f_n through x1, the lift behaviour at level n+1 is governed
by the affine map t -> b + a*t induced on fiber offsets, where

    a = (f^k)'(x1)            (well defined mod p^n)
    b = (f^k(x1) - x1) / p^n  (an integer; here stored mod p^n)

Both are computed exactly by walking the cycle once at working precision
p^{2n}, which is enough for every congruence used downstream.  The offset
map is affine because, for n >= 1, Taylor's formula gives
f^k(x1 + t p^n) = f^k(x1) + t p^n (f^k)'(x1) (mod p^{2n}), and p^{2n} is
divisible by p^{n+1}.  So ``expand_children`` reads the map off (a, b) mod p
and walks the k*p lifts once.  For p >= ``LANE_MIN_P``, while p^{n+1} < 2^31
keeps every product in int64, it walks them as p numpy lanes, one per offset,
k steps each; otherwise it walks each child with big ints at p^{2(n+1)}.

The lift-length law (a k-cycle lifts to one pk-cycle, to p k-cycles, to one
k-cycle carrying tails, or to one k-cycle plus (p-1)/d kd-cycles) is stated
once, in ``classify_lifts``; ``expand_children`` and ``verify`` both check
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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
# Level-1 expansions of random quintics, 40 nodes per p, big-int walk time
# over lane time: p = 61: 0.67, 71: 0.86, 79: 0.93, 89: 0.96, 97: 1.13,
# 131: 1.28, 211: 2.55, 1009: 5.92.
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
    walked over every lift, which checks the closed form and yields each
    child's rep, its a, and its b at the walk start.  Cost: the child lengths
    sum to k*p, so k*p evaluations; the caller charges them
    (``predictor._Analysis.expand``).  The child lengths must match the
    node's classification under the lift-length law (``classify_lifts``).

    Two routes walk the lifts, with the same checks and the same results
    (``_route``).  For p >= ``LANE_MIN_P`` and p^{n+1} < 2^31 (int64 limbs)
    ``_lane_walk`` advances all p lifts together as numpy lanes, k steps;
    otherwise ``_point_walk`` walks each child once at p^{2(n+1)} with big ints.

    b at the canonical rep needs no second walk.  With m = n+1, L the child
    length, F = f^L, y_j = f^j(start) and D_j = (f^j)'(start), Taylor mod p^{2m}
    gives F(y_j) - y_j = D_j * (F(start) - start) (rotation), and for
    rep = y_j - u p^m, F(rep) - rep = F(y_j) - y_j - u p^m (a - 1) (re-lift).
    """
    if node.children:
        return node.children
    n, k = node.level, node.length
    children = _children(fmap, p, node, _route(p, n))
    got = [c.length for c in children]
    if classify_lifts(got, k, p) != node.classification:
        raise InvariantError(f"lift-length law violated: lengths {sorted(got)} under "
                             f"k={k} do not read {node.classification}", p, fmap, n,
                             node.rep)
    node.children = children
    return children


def _children(fmap, p: int, node: CycleNode, walk) -> list[CycleNode]:
    """The children of ``node`` in rep order, walked by ``walk``, which
    returns (rep, a, b at the start, D_j and hi limb at the rep) per child."""
    n, k = node.level, node.length
    modulus = p ** (n + 1)
    a, b = node.lin.a % p, node.lin.b % p

    # Offset cycles as (smallest offset, cycle length); a = 0 has one, [b].
    if a == 0:
        offset_cycles = [(b, 1)]
    else:
        offset_cycles = []
        seen = [False] * p
        for t0 in range(p):
            if seen[t0]:
                continue
            r, t = 0, t0
            while not seen[t]:
                seen[t] = True
                r += 1
                t = (b + a * t) % p
            offset_cycles.append((t0, r))

    children = []
    rows = walk(fmap, p, node, offset_cycles)
    for (t0, r), (rep, deriv, b_start, rep_deriv, rep_hi) in zip(offset_cycles, rows):
        child_b = (b_start * rep_deriv - rep_hi * (deriv - 1)) % modulus
        lin = _lin(p, n + 1, deriv, child_b)
        children.append(CycleNode(n + 1, r * k, rep, lin, classify(lin, p),
                                  offset=t0, parent=node))
    children.sort(key=lambda c: c.rep)
    return children


def _route(p: int, level: int):
    """The child walk for a node at ``level``: p numpy lanes when p is wide
    enough to pay for them and P = p^{level+1} < ``ORACLE_MAX_POINTS``, which
    keeps every ``limbs`` product below P^2 < 2^63; else the big-int walk."""
    if p >= LANE_MIN_P and p ** (level + 1) < ORACLE_MAX_POINTS:
        return _lane_walk
    return _point_walk


def _point_walk(fmap, p: int, node: CycleNode, offset_cycles) -> list[tuple]:
    """Walk each child once from x1 + p^n t0 at p^{2(n+1)}, one point at a
    time; it must first return to its start after exactly r*k steps."""
    n, k, x1 = node.level, node.length, node.rep
    base = p**n
    modulus = base * p
    work = modulus * modulus
    rows = []
    for t0, r in offset_cycles:
        length = r * k
        start = x1 + t0 * base
        count, deriv, rep, rep_lift, rep_deriv = 1, 1, start, start, 1
        for y, der in fmap.walk(start, length, work, modulus, p):
            deriv = deriv * der % modulus
            low = y % modulus
            if low == start:
                break
            count += 1
            if low < rep:
                rep, rep_lift, rep_deriv = low, y, deriv
        # Early return counts fewer than length members, none counts one more.
        if count != length:
            raise InvariantError("offset cycle length disagrees with lift length",
                                 p, fmap, n, x1)
        rows.append((rep, deriv, (y - start) % work // modulus, rep_deriv,
                     rep_lift // modulus))
    return rows


def _lane_walk(fmap, p: int, node: CycleNode, offset_cycles) -> list[tuple]:
    """All p lifts x1 + p^n t at once, as int64 lanes advanced k steps by
    ``limbs`` mod P = p^{n+1}; the high limb follows by Taylor,
    f(z + u P) = f(z) + u P f'(z) (mod P^2), so hi <- h + hi*d.  Each lane
    keeps the smallest low limb of its steps below k, with hi and (f^j)' there.
    A child chains the k-step results of the lanes on its offset cycle the same
    way: u <- H_t + u*D_t, a <- a*D_t."""
    import numpy as np  # loaded already by arith

    n, k, x1 = node.level, node.length, node.rep
    base = p**n
    P = base * p
    a, b = node.lin.a % p, node.lin.b % p
    t = np.arange(p, dtype=np.int64) if a else np.array([b], dtype=np.int64)
    lo = x1 + t * base
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
    # Checks the closed form t -> b + a*t against the real map.
    if not np.array_equal(lo, x1 + rem(b + a * t, p) * base):
        raise InvariantError("f^k does not move offsets by t -> b + a*t", p, fmap, n, x1)
    H, D, mlo, mhi, mder = (v.tolist() for v in (hi, der, min_lo, min_hi, min_der))
    rows = []
    for t0, r in offset_cycles:
        i, u, deriv, rep = t0, 0, 1, P  # every low limb is below P
        for _ in range(r):
            j = i if a else 0
            if mlo[j] < rep:
                rep, rep_deriv, rep_hi = mlo[j], deriv * mder[j] % P, (mhi[j] + u * mder[j]) % P
            u = (H[j] + u * D[j]) % P
            deriv = deriv * D[j] % P
            i = (b + a * i) % p
        rows.append((rep, deriv, u, rep_deriv, rep_hi))
    return rows
