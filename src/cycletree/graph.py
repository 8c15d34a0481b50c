"""Brute-force oracle: exhaustive cycle/tail decomposition of f_n on Z/p^nZ.

This is the ground truth that every analytic prediction is checked against.
Every map takes one path.  The map supplies its own int64 successor table
(``table`` of the map protocol in ``arith``, -1 at poles).  Poles point to an
absorbing sink.  In-degree peeling strips the tails and leaves the cyclic
points; doubling over windows of their orbits then gives each the position of
its cycle's smallest member (the rep) and its steps from it.  From
``LEADER_MIN_POINTS`` = 2^18 cyclic points on, the doubling runs over leaders
only (a ruling set): one position in 32, picked by a multiplicative hash, as the
orbit of x + s would walk in step with any stride.  A lockstep walk labels each
point with its leader and offset, which one gather turns into rep and steps.
If more than half the cyclic points lie on leaderless cycles (the identity,
x -> -x), the plain doubling runs instead.  One doubling, ``_min_keys``, serves
the plain sweep, the leader lanes and the points of leaderless cycles, which it
labels on their own, not contracted again.  Array passes, not a walk, then list
the cycles in rep order, each in orbit order from its rep.  ``enumerate_level``
returns a level as one ``LevelDecomposition`` of arrays.
Tail facts come from the peeling rounds.  A point peeled in round r (leaves in
round 0) ends a chain of r + 1 tail points, so each cycle's longest tail is the
longest such chain among the tail points that feed it directly.
Whatever the budget, the oracle refuses levels of more than
``ORACLE_MAX_POINTS`` = 2^31 residues, so orbit arrays and labels are int32 and
no int64 product in the map kernels overflows.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .arith import rem
from .errors import BudgetExceededError, InvariantError

__all__ = [
    "DEFAULT_BUDGET",
    "ORACLE_MAX_POINTS",
    "TailStats",
    "LevelDecomposition",
    "BruteTree",
    "enumerate_level",
    "build_tree_bruteforce",
    "tail_analysis",
]

DEFAULT_BUDGET = 10**7
ORACLE_MAX_POINTS = 2**31  # residues per level; not a budget, no option raises it
LEADER_MIN_POINTS = 2**18  # cyclic points from which the doubling contracts to leaders


@dataclass
class TailStats:
    """Fiber histogram over one critical class, and the longest tail over the
    residues lying above the class's mod-p cycle, not over the whole basin."""

    cycle_rep: int
    cycle_length: int
    max_tail_length: int
    preimage_histogram: dict[int, int]
    second_deriv_unit: bool
    expected_histogram: dict[int, int] | None
    shape_matches: bool | None


@dataclass(slots=True)
class LevelDecomposition:
    """Level n of the oracle: every residue of Z/p^nZ as cycle member, tail point or pole.

    ``succ`` is the int64 successor table, -1 at poles; ``excluded_points`` counts
    the poles.  ``labels`` maps each residue to its cycle id (-1 off cycles).  Cycles
    are in rep order: ``reps`` and ``lengths`` are int arrays, and ``orbit`` holds
    the members, each cycle in orbit order from its rep.  ``tails`` (int32) holds
    each cycle's longest tail, 0 for none; chains into poles enter no cycle.
    """

    modulus: int
    succ: np.ndarray
    labels: np.ndarray
    reps: np.ndarray
    lengths: np.ndarray
    orbit: np.ndarray
    tails: np.ndarray
    excluded_points: int

    @property
    def tail_point_count(self) -> int:
        return self.modulus - len(self.orbit) - self.excluded_points


def _check_size(points: int, budget: int) -> None:
    """Refuse more than ``budget`` residues, or more than ``ORACLE_MAX_POINTS``
    whatever the budget; the message names the limit that refused."""
    if points > min(budget, ORACLE_MAX_POINTS):
        capped = budget > ORACLE_MAX_POINTS
        raise BudgetExceededError(points, min(budget, ORACLE_MAX_POINTS), limit=(
            "the oracle's 2^31-point cap (no budget raises it)" if capped else "budget"))


def _min_keys(key: np.ndarray, nxt: np.ndarray, w) -> np.ndarray:
    """Each element's least key over its cycle under ``nxt``, which the call consumes;
    ``w`` is the points an element spans, an int for all or an array of one each."""
    # Doubling over the windows [i, i+w) of each orbit, key = m*2^32 + d: m is
    # the smallest position in the window and d the steps from i to it, so the
    # smaller key of two halves keeps the nearer copy of one position.  A round
    # that changes nothing leaves every window a whole cycle: m is the rep's
    # position and d < length < 2^31 (the oracle cap).  Two halves of equally many
    # elements whose d + w carries into m each span a whole cycle: that key never wins.
    lanes = not isinstance(w, int)
    k = 1
    while k < len(key):
        new = np.take(key, nxt)
        new += w
        np.minimum(new, key, out=new)
        if np.array_equal(new, key):
            break
        key = new
        w = w + np.take(w, nxt) if lanes else 2 * w
        nxt = np.take(nxt, nxt)
        k *= 2
    return key


def _rep_steps(jw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position of the cyclic permutation ``jw``, which the call consumes: m, the
    position of its cycle's smallest member (the rep), and e (int32), its steps from
    the rep modulo the cycle's length: -length < e < length, and e = 0 only at the rep."""
    c = len(jw)
    if c >= LEADER_MIN_POINTS:
        jw = jw.astype(np.int32)
        leads = np.arange(c, dtype=np.uint32) * np.uint32(2654435761) < 1 << 27
        lead = np.flatnonzero(leads)
        # Walk each leader to the next: md = (lane << 32) + offset at each point, and per
        # lane its length, next leader and best = (smallest position << 32) + its offset.
        md = np.full(c, -1, dtype=np.int64)
        best, nxt, seg = np.empty_like(lead), np.empty_like(lead), np.empty_like(lead)
        tag, cur, low, t = np.arange(len(lead)) << 32, lead, lead << 32, 0
        while cur.size:
            md[cur] = tag + t
            np.minimum(low, (cur << 32) + t, out=low)
            cur = jw[cur].astype(np.intp)
            t += 1
            end = leads[cur]
            done = tag[end] >> 32
            nxt[done], seg[done], best[done] = cur[end], t, low[end]
            tag, cur, low = tag[~end], cur[~end], low[~end]
        del leads
        if 2 * int(seg.sum()) >= c:  # else mostly cycles too short to hold a leader
            gap = np.flatnonzero(md < 0)  # the points of leaderless cycles, renumbered
            sub = np.cumsum(md < 0, dtype=np.int32)[jw[gap]] - 1 if len(gap) else gap
            del jw
            key = _min_keys(np.arange(len(gap), dtype=np.int64) << 32, sub.astype(np.int64), 1)
            best = _min_keys(best, np.searchsorted(lead, nxt), seg)
            # The point d steps past its leader is d - (the rep's offset) from the rep; an
            # int32 cast keeps a key's low half.  md becomes lanes, -1 off them, which clip.
            e = md.astype(np.int32)
            md >>= 32
            e -= np.take(best.astype(np.int32), md, mode="clip")
            m = np.take((best >> 32).astype(np.int32), md, mode="clip")
            m[gap], e[gap] = gap[key >> 32], np.negative(key, dtype=np.int32)
            return m, e
        del md
    key = _min_keys(np.arange(c, dtype=np.int64) << 32, jw.astype(np.int64), 1)  # its own copy
    del jw
    e = np.negative(key, dtype=np.int32)  # the low half is d: the rep is d steps on, -d back
    key >>= 32  # key is now m
    return key, e


def enumerate_level(fmap, p: int, n: int, budget: int = DEFAULT_BUDGET) -> LevelDecomposition:
    """Exhaustive cycle/tail decomposition of f_n, cycles ascending by rep."""
    modulus = p**n
    _check_size(modulus, budget)
    # The zero ring's one point is fixed; a rational map would read it as a pole.
    succ = fmap.table(modulus, p) if n else np.zeros(1, np.int64)
    # Peeling (Kahn): poles point to a sink whose self-loop keeps it unpeeled,
    # and a point with no unpeeled preimage is on no cycle.  A round touches
    # only the points peeled in the round before; after as many rounds as the
    # longest tail, what is left is the sink and the cyclic points.
    nxt = np.append(succ, modulus)
    poles = nxt < 0
    excluded = int(np.count_nonzero(poles))
    nxt[poles] = modulus
    del poles
    # A point peeled in round r (leaves in round 0) ends chains of at most r + 1 tail
    # points.  Its in-degree is never read again, so it keeps -(r + 1) there.
    indeg = np.bincount(nxt)
    front = np.flatnonzero(indeg == 0)
    r = 0
    while front.size:
        r += 1
        indeg[front] = -r
        hit, k = np.unique(nxt[front], return_counts=True)
        indeg[hit] -= k
        front = hit[indeg[hit] == 0]
    cyclic = indeg > 0
    cyclic[modulus] = False  # the sink: chains into poles enter no cycle
    # The longest tail into a cycle enters it through a feeder, a tail point with a
    # cyclic successor; keep each feeder's successor and chain until cycles have ids.
    feeders = np.flatnonzero(cyclic[nxt] & ~cyclic)
    fed = nxt[feeders]
    del nxt  # before the chains: on a constant map almost every point is a feeder
    chain = -indeg[feeders].astype(np.int32)
    del indeg, feeders
    cyclic = cyclic[:modulus]
    m, e = _rep_steps(np.cumsum(cyclic)[succ[cyclic]] - 1)  # successors, as cyclic positions
    starts = np.flatnonzero(cyclic)
    del cyclic
    root = e == 0  # the reps, ascending
    reps = starts[root]
    cid = np.cumsum(root, dtype=np.int32)[m] - 1
    del m, root
    sizes = np.bincount(cid).astype(np.int32)
    # Orbit order from the rep: e steps on, taken mod len, as -len < e < len.
    np.add(e, sizes[cid], out=e, where=e < 0)
    e += (np.cumsum(sizes, dtype=np.int32) - sizes)[cid]
    orbit = np.empty(len(starts), dtype=np.int32)
    orbit[e] = starts
    del e
    labels = np.full(modulus, -1, dtype=np.int32)
    labels[starts] = cid
    tails = np.zeros(len(reps), dtype=np.int32)
    np.maximum.at(tails, labels[fed], chain)
    return LevelDecomposition(modulus, succ, labels, reps, sizes, orbit, tails, excluded)


_sweep_level = enumerate_level  # the name perfbench's span tracer wraps


def distance_to_cycle(sweep: LevelDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Per-residue (distance to a cycle along the orbit, id of that cycle).

    Both are int32 arrays, dist 0 on cycles; both read -1 at poles and at points
    whose orbit meets a pole.  Its one caller is ``tail_analysis``, whose maximum
    runs over part of a basin, which the peeling rounds cannot give.  One pass
    outward from the cycles: round d settles the unsettled points whose successor
    is settled (at distance d-1) and drops them from the work list, so a round
    touches only points still unsettled.  What a round leaves unsettled, for good,
    feeds into poles.
    """
    dist = np.where(sweep.labels >= 0, 0, -1).astype(np.int32)
    owner = sweep.labels.copy()
    todo = np.flatnonzero((sweep.labels < 0) & (sweep.succ >= 0))
    nxt = sweep.succ[todo]
    for d in itertools.count(1):
        ready = owner[nxt] >= 0
        if not ready.any():
            break
        owner[todo[ready]] = owner[nxt[ready]]
        dist[todo[ready]] = d
        todo, nxt = todo[~ready], nxt[~ready]
    return dist, owner


def tail_length_by_cycle(sweep: LevelDecomposition) -> list[tuple[int, int]]:
    """(cycle length, longest attached tail) for cycles with tails."""
    has = np.flatnonzero(sweep.tails)
    return list(zip(sweep.lengths[has].tolist(), sweep.tails[has].tolist()))


@dataclass
class BruteTree:
    """Cycle-lift tree built by exhaustive enumeration of levels 0..max_level.

    Nodes are addressed as (level, index); index orders cycles by rep.  The
    level-0 root is the single 1-cycle of the trivial ring.  ``children[n]``
    lists each level-n cycle's lifts by index, for n below ``max_level`` only.
    ``orbits[n]`` holds every cycle member of level n, cycles in index order,
    each in orbit order from its rep (int32, as p^n is below 2^31).
    ``tail_points[n]`` counts the level-n residues on no cycle, poles included.
    When built with ``with_tail_lengths`` each level records (cycle length,
    longest tail) pairs for cycles that own tails, read off the sweep's peeling
    rounds (``LevelDecomposition.tails``).
    """

    p: int
    max_level: int
    reps: list[list[int]]
    lengths: list[list[int]]
    parents: list[list[int]]
    children: list[list[list[int]]]
    tail_points: list[int]
    orbits: list[np.ndarray]
    tail_pairs: list[list[tuple[int, int]]] | None = None

    def cycle_index(self, level: int, rep: int) -> int:
        i = bisect.bisect_left(self.reps[level], rep)
        if i == len(self.reps[level]) or self.reps[level][i] != rep:
            raise KeyError(f"no cycle with rep {rep} at level {level}")
        return i


def build_tree_bruteforce(fmap, p: int, max_level: int, budget: int = DEFAULT_BUDGET,
                          with_tail_lengths: bool = False) -> BruteTree:
    """Build the full lift tree by sweeping each level and attaching each
    cycle to the unique level-(n-1) cycle it projects onto.

    Every member of every cycle is checked to reduce into its parent's member
    set (via the parent level's labels).
    """
    _check_size(p**max_level, budget)
    reps = [[0]]
    lengths = [[1]]
    parents = [[-1]]
    children: list[list[list[int]]] = []
    tail_points = [0]
    tail_pairs: list[list[tuple[int, int]]] = [[]]
    orbits = [np.zeros(1, dtype=np.int32)]
    prev_labels = np.zeros(1, dtype=np.int32)
    prev_modulus = 1
    for n in range(1, max_level + 1):
        sw = enumerate_level(fmap, p, n, budget)
        reps.append(sw.reps.tolist())
        lengths.append(sw.lengths.tolist())
        tail_points.append(sw.tail_point_count + sw.excluded_points)
        tail_pairs.append(tail_length_by_cycle(sw) if with_tail_lengths else [])
        orbits.append(sw.orbit)
        # The level-(n-1) cycle under each orbit member; a cycle starts at its rep.
        owner = prev_labels[rem(sw.orbit, prev_modulus)]
        ends = np.cumsum(sw.lengths)
        par = owner[ends - sw.lengths]
        lead = np.repeat(par, sw.lengths)
        stray = (lead < 0) | (owner != lead)
        if stray.any():
            cid = np.searchsorted(ends, np.argmax(stray), "right")
            raise InvariantError("cycle does not project into one parent cycle", p, fmap,
                                 n, reps[n][cid])
        par = par.tolist()
        kids = [[] for _ in reps[n - 1]]
        for idx, pid in enumerate(par):
            kids[pid].append(idx)
        parents.append(par)
        children.append(kids)
        prev_labels = sw.labels
        prev_modulus = sw.modulus
        del sw  # free this level's tables before the next, p times larger, sweep
    return BruteTree(p, max_level, reps, lengths, parents, children,
                     tail_points, orbits,
                     tail_pairs if with_tail_lengths else None)


def _expected_tail_histogram(p: int, n: int) -> dict[int, int]:
    """Fiber-size histogram over one critical class when f'' is a unit there:
    p^{n-2j-1}(p-1)/2 fibers of size 2p^j for 1 <= j < n/2, one of p^{n//2}.
    """
    hist: dict[int, int] = {}
    j = 1
    while 2 * j < n:
        hist[2 * p**j] = hist.get(2 * p**j, 0) + p ** (n - 2 * j - 1) * (p - 1) // 2
        j += 1
    hist[p ** (n // 2)] = hist.get(p ** (n // 2), 0) + 1
    return hist


def tail_analysis(fmap, p: int, n: int, mod_p_class: int,
                  budget: int = DEFAULT_BUDGET) -> TailStats:
    """Fiber sizes of f_n restricted to one critical mod-p class, plus the
    longest tail over the cycle that class belongs to.  That maximum runs over
    the residues lying above the class's mod-p cycle, not over the whole basin:
    residues of other classes may feed longer tails into the same cycles.

    Requires the class to lie on a mod-p cycle with f' = 0 mod p there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x0 = mod_p_class % p
    level1 = enumerate_level(fmap, p, 1, budget)
    cid = int(level1.labels[x0])
    if cid < 0:
        raise ValueError(f"class {x0} is not on a cycle of f_1")
    taylor = fmap.taylor_at(x0, 2, p, p)
    if taylor[1] % p != 0:
        raise ValueError(f"f' is a unit mod {p} at {x0}; no tails over this class")
    sw = enumerate_level(fmap, p, n, budget)

    # Fiber histogram over the class {x = x0 (mod p)}.
    _, fibers = np.unique(sw.succ[x0::p], return_counts=True)
    sizes, counts = np.unique(fibers, return_counts=True)
    hist = dict(zip(sizes.tolist(), counts.tolist()))

    # Longest tail over all classes of the containing mod-p cycle; column r
    # of the reshaped distances holds the residues = r (mod p).
    members1 = np.flatnonzero(level1.labels == cid)
    max_tail = int(distance_to_cycle(sw)[0].reshape(-1, p)[:, members1].max())

    f2_unit = taylor[2] % p != 0
    expected = _expected_tail_histogram(p, n) if f2_unit else None
    matches = (hist == expected) if f2_unit else None
    return TailStats(int(level1.reps[cid]), int(level1.lengths[cid]), max_tail, hist,
                     f2_unit, expected, matches)
