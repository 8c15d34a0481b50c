"""Brute-force oracle: exhaustive cycle/tail decomposition of f_n on Z/p^nZ.

This is the ground truth that every analytic prediction is checked against.
The sweep is O(p^n): successor tables are built with numpy where the modulus
allows exact int64 arithmetic, cycles are then extracted with a linear walk.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .arith import IntPoly
from .errors import BadReductionError, BudgetExceededError, InvariantError

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_MEMBER_CAP",
    "Cycle",
    "TailStats",
    "LevelDecomposition",
    "BruteTree",
    "enumerate_level",
    "build_tree_bruteforce",
    "tail_analysis",
]

DEFAULT_BUDGET = 10**7
DEFAULT_MEMBER_CAP = 1 << 16

# Largest modulus for which (m-1)^2 still fits in int64 during Horner steps.
_NUMPY_SAFE_MODULUS = 3_000_000_000


def map_value(fmap, x: int, modulus: int, p: int) -> int:
    """Value of the map at x mod ``modulus`` (a power of p)."""
    if isinstance(fmap, IntPoly):
        return fmap.eval_mod(x, modulus)
    return fmap.surrogate_value(x, modulus, p)


def map_value_deriv(fmap, x: int, modulus: int, p: int) -> tuple[int, int]:
    """(value, derivative) of the map at x mod ``modulus``."""
    if isinstance(fmap, IntPoly):
        from .arith import value_and_deriv

        return value_and_deriv(fmap, x, modulus)
    return fmap.surrogate_value_deriv(x, modulus, p)


def map_taylor(fmap, x0: int, order: int, modulus: int, p: int) -> list[int]:
    if isinstance(fmap, IntPoly):
        return fmap.taylor_at(x0, order, modulus)
    return fmap.taylor_at(x0, order, modulus, p)


def describe_map(fmap) -> dict:
    """JSON-friendly description of a polynomial or rational map."""
    if isinstance(fmap, IntPoly):
        return {"poly": list(fmap.coeffs)}
    return {"num": list(fmap.num.coeffs), "den": list(fmap.den.coeffs)}


@dataclass(frozen=True, slots=True)
class Cycle:
    """One cycle of f_n, identified by (level, smallest member).

    ``members`` is the ascending member tuple when the cycle is short enough
    to store, else None.
    """

    level: int
    length: int
    rep: int
    members: tuple[int, ...] | None = field(default=None, compare=False)


@dataclass
class TailStats:
    """Fiber histogram and longest tail for points over one mod-p cycle."""

    level: int
    cycle_rep: int
    cycle_length: int
    max_tail_length: int
    preimage_histogram: dict[int, int]
    second_deriv_unit: bool
    expected_histogram: dict[int, int] | None
    shape_matches: bool | None


@dataclass
class LevelDecomposition:
    level: int
    cycles: list[Cycle]
    tail_point_count: int
    excluded_points: int = 0  # rational maps only: classes where the map is undefined


class _Sweep:
    """Raw per-level data: successor table, cycle labels, reps, lengths and
    the orbit array (cycles in rep order, each in orbit order from its rep)."""

    __slots__ = ("level", "modulus", "succ", "labels", "reps", "lengths",
                 "orbit", "excluded", "jump")

    def __init__(self, level, modulus, succ, labels, reps, lengths, orbit, excluded=0,
                 jump=None):
        self.level = level
        self.modulus = modulus
        self.succ = succ  # python list; entry -1 marks an undefined point (pole)
        self.labels = labels  # numpy int32, residue -> cycle id or -1
        self.reps = reps
        self.lengths = lengths
        self.orbit = orbit
        self.excluded = excluded
        self.jump = jump  # f^(2^j) pointer table when the numpy path ran

    @property
    def tail_point_count(self) -> int:
        return self.modulus - sum(self.lengths) - self.excluded

    def cycle(self, idx: int, member_cap: int = DEFAULT_MEMBER_CAP) -> Cycle:
        rep, length = self.reps[idx], self.lengths[idx]
        members = None
        if length <= member_cap:
            succ = self.succ
            out = [rep]
            x = succ[rep]
            while x != rep:
                out.append(x)
                x = succ[x]
            members = tuple(sorted(out))
        return Cycle(self.level, length, rep, members)


def _successor_table(fmap, p: int, n: int) -> tuple[list[int], int]:
    """Full successor list for f_n, plus count of undefined points."""
    modulus = p**n
    if isinstance(fmap, IntPoly):
        if modulus <= _NUMPY_SAFE_MODULUS:
            x = np.arange(modulus, dtype=np.int64)
            acc = np.zeros(modulus, dtype=np.int64)
            for c in reversed(fmap.coeffs):
                acc *= x
                acc %= modulus
                acc += c % modulus
                acc %= modulus
            return acc.tolist(), 0
        return [fmap.eval_mod(x, modulus) for x in range(modulus)], 0
    # Rational map: poles (denominator = 0 mod p) become dead points.
    succ = []
    excluded = 0
    for x in range(modulus):
        try:
            succ.append(fmap.surrogate_value(x, modulus, p))
        except BadReductionError:
            succ.append(-1)
            excluded += 1
    return succ, excluded


def _sweep_level(fmap, p: int, n: int, budget: int) -> _Sweep:
    """Classify every residue of Z/p^nZ as cycle member or tail point."""
    modulus = p**n
    if modulus > budget:
        raise BudgetExceededError(modulus, budget)
    if n == 0:
        return _Sweep(0, 1, [0], np.zeros(1, np.int32), [0], [1], np.zeros(1, np.int32))
    succ, excluded = _successor_table(fmap, p, n)
    labels = np.full(modulus, -1, dtype=np.int32)
    reps: list[int] = []
    lengths: list[int] = []
    orbit_dtype = np.int32 if modulus < 2**31 else np.int64

    if excluded == 0 and modulus >= 4096:
        # Pointer doubling marks cyclic points, then walk only those.
        jump = np.array(succ, dtype=np.int64)
        steps = 1
        while steps < modulus:
            jump = jump[jump]
            steps *= 2
        cyclic = np.zeros(modulus, dtype=bool)
        cyclic[jump] = True
        starts = np.flatnonzero(cyclic)
        orbit = np.empty(len(starts), dtype=orbit_dtype)
        pos = 0
        for s in starts.tolist():
            if labels[s] != -1:
                continue
            members = [s]
            x = succ[s]
            while x != s:
                members.append(x)
                x = succ[x]
            cid = len(reps)
            labels[members] = cid
            orbit[pos:pos + len(members)] = members
            pos += len(members)
            reps.append(s)  # ascending scan: s is the smallest member
            lengths.append(len(members))
        return _Sweep(n, modulus, succ, labels, reps, lengths, orbit, jump=jump)

    # Small or partial maps: classic visited walk.  state: 0 unvisited,
    # 1 on current path, 2 settled.
    state = bytearray(modulus)
    pos = [-1] * modulus
    orbits: list[list[int]] = []
    for s in range(modulus):
        if state[s]:
            continue
        path = []
        x = s
        while x != -1 and state[x] == 0:
            state[x] = 1
            pos[x] = len(path)
            path.append(x)
            x = succ[x]
        if x != -1 and state[x] == 1:
            members = path[pos[x]:]
            cid = len(reps)
            for m in members:
                labels[m] = cid
            i = members.index(min(members))
            orbits.append(members[i:] + members[:i])  # rotated to start at the rep
            reps.append(members[i])
            lengths.append(len(members))
        for m in path:
            state[m] = 2
            pos[m] = -1
    order = sorted(range(len(reps)), key=reps.__getitem__)
    if order != list(range(len(reps))):
        reps = [reps[i] for i in order]
        lengths = [lengths[i] for i in order]
        orbits = [orbits[i] for i in order]
        remap = np.empty(len(order) + 1, dtype=np.int32)
        remap[-1] = -1
        for new, old in enumerate(order):
            remap[old] = new
        labels = remap[labels]
    orbit = np.array([m for members in orbits for m in members], dtype=orbit_dtype)
    return _Sweep(n, modulus, succ, labels, reps, lengths, orbit, excluded)


def enumerate_level(fmap, p: int, n: int, budget: int = DEFAULT_BUDGET,
                    member_cap: int = DEFAULT_MEMBER_CAP) -> LevelDecomposition:
    """Exhaustive cycle/tail decomposition of f_n, cycles ascending by rep."""
    sw = _sweep_level(fmap, p, n, budget)
    cycles = [sw.cycle(i, member_cap) for i in range(len(sw.reps))]
    return LevelDecomposition(n, cycles, sw.tail_point_count, sw.excluded)


def distance_to_cycle(sweep: _Sweep, max_rounds: int | None = None) -> np.ndarray | None:
    """Per-residue distance to the nearest cycle point along the orbit.

    Returns int32 array (0 on cycles).  None if not converged in max_rounds,
    which means some tail is longer than max_rounds.  Points with undefined
    forward orbit (poles) keep a sentinel distance of -1.
    """
    n_pts = sweep.modulus
    succ = np.array(sweep.succ, dtype=np.int64)
    dead = succ == -1
    succ[dead] = 0
    inf = np.iinfo(np.int32).max
    dist = np.where(np.asarray(sweep.labels) >= 0, 0, inf).astype(np.int64)
    dist[dead] = -1
    rounds = 0
    cap = max_rounds if max_rounds is not None else n_pts + 1
    while True:
        pending = dist == inf
        if not pending.any():
            break
        rounds += 1
        if rounds > cap:
            return None
        nxt = dist[succ] + 1
        better = pending & (nxt < inf) & (nxt > 0)
        if not better.any():
            # remaining points feed into poles and never reach a cycle
            dist[pending] = -1
            break
        dist[better] = nxt[better]
    return dist.astype(np.int32)


def tail_length_by_cycle(sweep: _Sweep, dist=None) -> list[tuple[int, int]]:
    """(cycle length, longest attached tail) for cycles with tails."""
    if dist is None:
        dist = distance_to_cycle(sweep)
    if dist is None:
        return []
    labels = np.asarray(sweep.labels)
    if sweep.jump is not None:
        owner = labels[sweep.jump]
    else:
        owner = np.empty(sweep.modulus, dtype=np.int64)
        succ = sweep.succ
        for x in range(sweep.modulus):
            y, d = x, dist[x]
            for _ in range(int(d) if d > 0 else 0):
                y = succ[y]
            owner[x] = labels[y] if y != -1 else -1
    valid = (dist > 0) & (owner >= 0)
    if not valid.any():
        return []
    longest = np.zeros(len(sweep.reps), dtype=np.int64)
    np.maximum.at(longest, owner[valid], dist[valid])
    return [(sweep.lengths[i], int(longest[i]))
            for i in range(len(sweep.reps)) if longest[i] > 0]


@dataclass
class BruteTree:
    """Cycle-lift tree built by exhaustive enumeration of levels 0..max_level.

    Nodes are addressed as (level, index); index orders cycles by rep.  The
    level-0 root is the single 1-cycle of the trivial ring.  ``orbits[n]``
    holds every cycle member of level n, cycles in index order, each in orbit
    order from its rep (int32 while p^n < 2^31).  When built with
    ``with_tail_lengths`` each level records (cycle length, longest tail)
    pairs for cycles that own tails.
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
                          verify_projection: bool = True,
                          with_tail_lengths: bool = False) -> BruteTree:
    """Build the full lift tree by sweeping each level and attaching each
    cycle to the unique level-(n-1) cycle it projects onto.

    With ``verify_projection`` every member of every cycle is checked to
    reduce into its parent's member set (via the parent level's labels).
    """
    if p**max_level > budget:
        raise BudgetExceededError(p**max_level, budget)
    reps = [[0]]
    lengths = [[1]]
    parents = [[-1]]
    children: list[list[list[int]]] = [[[]]]
    tail_points = [0]
    tail_pairs: list[list[tuple[int, int]]] = [[]]
    orbits = [np.zeros(1, dtype=np.int32)]
    prev_labels = np.zeros(1, dtype=np.int32)
    prev_modulus = 1
    for n in range(1, max_level + 1):
        sw = _sweep_level(fmap, p, n, budget)
        reps.append(sw.reps)
        lengths.append(sw.lengths)
        tail_points.append(sw.tail_point_count + sw.excluded)
        with_tails = with_tail_lengths and (sw.tail_point_count or sw.excluded)
        tail_pairs.append(tail_length_by_cycle(sw) if with_tails else [])
        orbits.append(sw.orbit)
        # The level-(n-1) cycle under each orbit member; a cycle starts at its rep.
        owner = prev_labels[sw.orbit % prev_modulus]
        par = owner[np.cumsum([0] + sw.lengths)[:-1]]
        lead = np.repeat(par, sw.lengths)
        stray = (lead < 0) | (owner != lead) if verify_projection else lead < 0
        if stray.any():
            cid = np.searchsorted(np.cumsum(sw.lengths), np.argmax(stray), "right")
            raise InvariantError("cycle does not project into one parent cycle", p, fmap,
                                 n, sw.reps[int(cid)])
        par = par.tolist()
        kids = [[] for _ in reps[n - 1]]
        for idx, pid in enumerate(par):
            kids[pid].append(idx)
        parents.append(par)
        children.append([[] for _ in sw.reps])
        children[n - 1] = kids
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
    longest tail over the cycle that class belongs to.

    Requires the class to lie on a mod-p cycle with f' = 0 mod p there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x0 = mod_p_class % p
    level1 = _sweep_level(fmap, p, 1, budget)
    cid = int(level1.labels[x0])
    if cid < 0:
        raise ValueError(f"class {x0} is not on a cycle of f_1")
    _, deriv = map_value_deriv(fmap, x0, p, p)
    if deriv % p != 0:
        raise ValueError(f"f' is a unit mod {p} at {x0}; no tails over this class")
    modulus = p**n
    if modulus > budget:
        raise BudgetExceededError(modulus, budget)

    # Fiber histogram over the class {x = x0 (mod p)}.
    counts: dict[int, int] = {}
    for t in range(p ** (n - 1)):
        y = map_value(fmap, x0 + p * t, modulus, p)
        counts[y] = counts.get(y, 0) + 1
    hist: dict[int, int] = {}
    for size in counts.values():
        hist[size] = hist.get(size, 0) + 1

    # Longest tail over all classes of the containing mod-p cycle.
    members1 = []
    m = level1.reps[cid]
    for _ in range(level1.lengths[cid]):
        members1.append(m)
        m = level1.succ[m]
    sw = _sweep_level(fmap, p, n, budget)
    dist = distance_to_cycle(sw)
    residues = np.arange(modulus, dtype=np.int64)
    over_cycle = np.isin(residues % p, np.array(members1))
    max_tail = int(dist[over_cycle].max()) if dist is not None else -1

    taylor = map_taylor(fmap, x0, 2, p, p)
    f2_unit = taylor[2] % p != 0
    expected = _expected_tail_histogram(p, n) if f2_unit else None
    matches = (hist == expected) if f2_unit else None
    return TailStats(n, level1.reps[cid], level1.lengths[cid], max_tail, hist,
                     f2_unit, expected, matches)
