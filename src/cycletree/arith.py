"""Exact integer and modular arithmetic, and the map protocol.

Evaluation is exact for any coefficient size: reduction happens at
evaluation sites only, and polynomial coefficients are never destructively
reduced.  ``MapProtocol`` is the one interface every layer (oracle, analytic
engine, predictor, verifier) uses to evaluate a map; ``IntPoly`` implements
it with Horner kernels, ``checkers.RationalMap`` with the same kernels and
modular inverses.  The array methods (``eval_array``, from which ``table`` is
built in blocks of whole residue classes, and ``limbs``) run on int64 arrays,
which the oracle's 2^31-point cap keeps safe from overflow, and reduce through
``rem``; ``limbs`` keeps f(x) mod P^2 in one limb below P = 2^21, two below 2^31.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NotPeriodicError

__all__ = [
    "OddPrime",
    "MapProtocol",
    "IntPoly",
    "Valuation",
    "ord_p",
    "mult_order",
    "rem",
    "iterate_series",
    "is_probable_prime",
]


# Residues per block of a successor table (bounds the array kernels' temporaries).
_TABLE_BLOCK = 1 << 14

# Deterministic Miller-Rabin witnesses for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic up to 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OddPrime(int):
    """An odd prime modulus base, validated at construction."""

    def __new__(cls, value: int) -> "OddPrime":
        value = int(value)
        if value == 2:
            raise ValueError("p = 2 is not supported")
        if value < 3 or not is_probable_prime(value):
            raise ValueError(f"{value} is not an odd prime")
        return super().__new__(cls, value)


class Valuation(NamedTuple):
    """A p-adic valuation capped at some level.

    ``saturated`` means the true valuation is >= ``value`` (the cap); it is
    used instead of infinity, so ord of 0 at cap c is ``Valuation(c, True)``.
    """

    value: int
    saturated: bool

    def __str__(self) -> str:
        return f">={self.value}" if self.saturated else str(self.value)


def ord_p(v: int, p: int, cap: int) -> Valuation:
    """Largest e <= cap with p^e | v, with a saturation flag at the cap.

    Never claims an exact valuation beyond the cap; v = 0 saturates.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if v % p**cap == 0:
        return Valuation(cap, True)
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return Valuation(e, False)


def rem(a: np.ndarray, m: int, inplace: bool = False) -> np.ndarray:
    """``a % m`` for an integer array a and a positive scalar m, as a - (a // m)*m.

    numpy's floor division by a scalar multiplies by a precomputed reciprocal
    (libdivide; Granlund and Montgomery, PLDI 1994), while its ``%`` divides in
    hardware: on 1.5M elements with numpy 2.4 this is 2.4-4x faster on int64
    and about 6x on int32, with one temporary.  Floor semantics match ``%``
    for negative a, and object arrays work too.  ``inplace`` writes the result
    into a, which the caller must own.  Keep ``%`` for an array divisor or
    Python ints, where libdivide does not apply.
    """
    q = a // m
    q *= m
    return np.subtract(a, q, out=a if inplace else q)


def mult_order(a: int, p: int) -> int:
    """Order of a in (Z/pZ)*: the smallest divisor e of p - 1 with a^e = 1.
    Rejects a divisible by p."""
    a %= p
    if a == 0:
        raise ValueError("a must be a unit mod p")
    small = [e for e in range(1, math.isqrt(p - 1) + 1) if (p - 1) % e == 0]
    return next(e for e in small + [(p - 1) // e for e in reversed(small)]
                if pow(a, e, p) == 1)


class MapProtocol:
    """How every layer evaluates a map f on Z/p^nZ.

    ``p`` is always passed last (maps without poles ignore it), every
    ``modulus`` is a power of p, and ``dwork`` divides ``work``.  A map type
    implements ``walk``, ``taylor_at``, ``eval_array``, ``limbs``, ``describe``
    and ``__str__`` (plus ``poles``, if any); ``table`` is shared.  One value is
    one step of ``walk``: ``next(f.walk(x, 1, m, m, p))`` is (f(x), f'(x)) mod m.

    * ``walk(x, steps, work, dwork, p)``: yields (f(y) mod work, f'(y) mod
      dwork) for y = x, f(x), ..., ``steps`` times; its per-call work (a
      rational map's inverse exponent) is done once per call, not per step.
    * ``taylor_at(x0, order, modulus, p)``: Hasse coefficients of f at x0.
    * ``eval_array(x, modulus, p)``: f(x) mod modulus over int64 residues x, no pole.
    * ``table(modulus, p)``: int64 successor array of f mod modulus, -1 at poles.
    * ``limbs(x, modulus, p)``: arrays (hi, lo, d) over the residues x, with
      f(x) = hi*P + lo (mod P^2) and d = f'(x) (mod P), P = modulus.
    * ``poles(p)``: the classes mod p where f is undefined.
    * ``describe()``: the JSON description of the map.
    * ``oracle_map()``: the map that ``verify``'s oracle evaluates (default: f).

    Evaluating at a pole raises ``BadReductionError``.
    """

    def poles(self, p: int) -> list[int]:
        return []

    def table(self, modulus: int, p: int) -> np.ndarray:
        # Blocks of whole classes bound the kernels' memory.  Pole classes are
        # found once and never reach the map; without poles, blocks are slices.
        block = min(modulus, max(_TABLE_BLOCK // p, 1) * p)
        poles = self.poles(p)
        keep = np.ones(p, dtype=bool)
        keep[poles] = False
        defined = np.flatnonzero(np.tile(keep, block // p)) if poles else None
        succ = np.full(modulus, -1, dtype=np.int64)
        for start in range(0, modulus, block):
            lanes = defined[:np.searchsorted(defined, modulus - start)] if poles else slice(None)
            x = np.arange(start, min(start + block, modulus), dtype=np.int64)[lanes]
            succ[start:start + block][lanes] = self.eval_array(x, modulus, p)
        return succ

    def oracle_map(self) -> "MapProtocol":
        return self


def _as_coeff_tuple(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPoly(MapProtocol):
    """Dense integer polynomial; coeffs[i] multiplies x^i.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _as_coeff_tuple(coeffs))

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Parse comma-separated constant-first coefficients, e.g. "2,1,3"."""
        parts = [s.strip() for s in text.split(",")]
        try:
            return cls(int(s) for s in parts)
        except ValueError:
            raise ValueError(f"cannot parse polynomial coefficients: {text!r}") from None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, modulus: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % modulus
        return acc

    # -- the map protocol (see MapProtocol); p is ignored ---------------------

    def walk(self, x: int, steps: int, work: int, dwork: int,
             p: int) -> Iterator[tuple[int, int]]:
        rc = tuple(reversed(self.coeffs))
        for _ in range(steps):
            val = der = 0
            for c in rc:  # Horner for f and f' in one pass
                der = (der * x + val) % dwork
                val = (val * x + c) % work
            x = val
            yield val, der

    def eval_array(self, x: np.ndarray, modulus: int, p: int | None = None) -> np.ndarray:
        """f(x) mod P over an int64 array of residues x < P, by Horner with one
        reduction per step: acc*x + c is at most (P-1)^2 + P-1 < P^2, which is
        below 2^62 under the oracle's 2^31 cap and below 2^63 for P^2 < 2^63."""
        acc = np.zeros(x.shape, dtype=np.int64)
        for c in reversed(self.coeffs):
            acc *= x
            acc += c % modulus
            rem(acc, modulus, inplace=True)
        return acc

    def limbs(self, x: np.ndarray, modulus: int, p: int):
        """Horner in base P over residues x < P, nothing overflowing int64.
        Below P = 2^21 on one limb, acc = f(x) mod P^2: acc*x + c is at most
        (P^2 - 1)(P - 1) + P^2 - 1 < P^3 < 2^63; (hi, lo) split off at the end.
        Below 2^31 on two: lo*x and der*x + lo are below P^2 < 2^63, the new low
        limb lo*x - q*P + c_lo is below 2P, so its carry is one comparison, and
        hi*x + q + c_hi + carry is at most P^2 - 1."""
        P = modulus
        if P < 1 << 21:
            acc, der = np.zeros_like(x), np.zeros_like(x)
            for c in reversed(self.coeffs):
                der = rem(der * x + acc, P)
                acc *= x
                acc += c % (P * P)
                rem(acc, P * P, inplace=True)
            hi = acc // P
            return hi, acc - hi * P, der
        hi, lo, der = (np.zeros_like(x) for _ in range(3))
        for c in reversed(self.coeffs):
            c_hi, c_lo = divmod(c % (P * P), P)
            der = rem(der * x + lo, P)
            lo = lo * x
            q = lo // P
            lo -= q * P
            lo += c_lo
            carry = lo >= P
            hi = rem(hi * x + q + c_hi + carry, P)
            np.subtract(lo, P, out=lo, where=carry)
        return hi, lo, der

    def describe(self) -> dict:
        return {"poly": list(self.coeffs)}

    def derivative(self, order: int = 1) -> "IntPoly":
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(i * c for i, c in enumerate(coeffs))[1:]
        return IntPoly(coeffs)

    def hasse(self, i: int) -> "IntPoly":
        """i-th Hasse derivative: coefficient of y^i in f(x+y), i.e. f^(i)/i!."""
        if i < 0:
            raise ValueError("i must be >= 0")
        return IntPoly(math.comb(j, i) * c for j, c in enumerate(self.coeffs[i:], start=i))

    def taylor_at(self, x0: int, order: int, modulus: int | None = None,
                  p: int | None = None) -> list[int]:
        """Hasse derivative values [f(x0), f'(x0), f''(x0)/2, ...] up to ``order``.

        Computed by repeated synthetic division by (x - x0), optionally mod m.
        """
        work = list(self.coeffs)
        out = []
        for _ in range(min(order, self.degree) + 1):
            rem = 0
            for j in range(len(work) - 1, -1, -1):
                rem = rem * x0 + work[j]
                if modulus is not None:
                    rem %= modulus
                work[j] = rem
            out.append(work.pop(0))
        while len(out) < order + 1:
            out.append(0)
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"-{x}" if c == -1 else f"{c}{x}")
        return " + ".join(terms).replace("+ -", "- ")


def _series_mul_trunc(u: Sequence[int], v: Sequence[int], order: int,
                      modulus: int | None) -> list[int]:
    out = [0] * (order + 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if i + j > order:
                break
            out[i + j] += a * b
    if modulus is not None:
        out = [c % modulus for c in out]
    return out


def iterate_series(fmap, x0: int, k: int, order: int,
                   modulus: int | None = None, p: int | None = None) -> list[int]:
    """Truncated power series of the k-th iterate of ``fmap`` around x0.

    Returns [s_0, ..., s_order] with f^k(x0 + y) = sum s_i y^i + O(y^{order+1});
    s_0 = f^k(x0), s_1 = (f^k)'(x0), and s_i is the i-th Hasse derivative.
    With modulus=None (polynomials only) all coefficients are exact integers.
    """
    cur = [x0, 1] + [0] * max(order - 1, 0)
    cur = cur[: order + 1]
    for _ in range(k):
        shifted = fmap.taylor_at(cur[0], order, modulus, p)
        u = [0] + cur[1:]  # cur minus its constant term
        new = [0] * (order + 1)
        new[0] = shifted[0]
        upow = [1] + [0] * order
        for j in range(1, order + 1):
            upow = _series_mul_trunc(upow, u, order, modulus)
            cj = shifted[j]
            if cj:
                for i in range(j, order + 1):
                    new[i] += cj * upow[i]
        if modulus is not None:
            new = [c % modulus for c in new]
        cur = new
    return cur


def escape_bound(f: IntPoly) -> int | None:
    """|x| above which |f(x)| > |x| strictly, for deg f >= 2; None otherwise."""
    if f.degree < 2:
        return None
    lead = abs(f.coeffs[-1])
    rest = sum(abs(c) for c in f.coeffs[:-1])
    return max(1, -(-(rest + 2) // lead))  # ceil((rest + 2) / lead)


def exact_orbit(f: IntPoly, alpha: int, k: int) -> list[int]:
    """The orbit [alpha, f(alpha), ..., f^{k-1}(alpha)] over Z, verifying that
    f^k(alpha) = alpha exactly and that k is the minimal period.

    Raises NotPeriodicError otherwise.  For deg f >= 2 an escape bound prunes
    runaway iterates early (once past it the orbit can never return).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = escape_bound(f)
    limit = None if bound is None else max(bound, abs(alpha))
    orbit = [alpha]
    x = alpha
    for i in range(k):
        x = f(x)
        if limit is not None and abs(x) > limit:
            raise NotPeriodicError(f"{alpha} is not periodic of period {k} (orbit escapes)")
        if x == alpha:
            if i + 1 != k:
                raise NotPeriodicError(f"{alpha} has period {i + 1}, not {k}")
            return orbit
        orbit.append(x)
    raise NotPeriodicError(f"{alpha} is not periodic of period {k}: f^{k}(alpha) != alpha")
