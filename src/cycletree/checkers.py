"""Closed-form decision procedures and rational-map support.

Permutation criterion: f_n is a permutation (n >= 2) iff f_1 is a permutation
and f' has no roots mod p, so the verdict stabilizes at level 2.  Single
p^n-cycle: stabilizes at level 2 for p > 3 and at level 3 for p = 3.

Rational maps h = num/den with den a unit on the points under analysis agree
mod p^{2n} with the integer polynomial num * den^(phi(p^{2n}) - 1), so the
whole lift machinery applies.  The engine never expands that surrogate to
coefficient form: it evaluates num and den with the ``IntPoly`` kernels and
raises den to phi - 1 by square-and-multiply, on whole int64 arrays for tables
and limbs (the oracle's 2^31-point cap keeps every product below 2^63) and per
point elsewhere.  The route ``verify``'s oracle evaluates, ``oracle_map``, is
``InverseEvalMap``: the same map with den inverted by extended Euclid instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import IntPoly, MapProtocol, rem
from .errors import BadReductionError

__all__ = [
    "RationalMap",
    "InverseEvalMap",
    "is_permutation",
    "is_single_cycle",
]


# Residues per block of a rational table (bounds the array kernels' temporaries).
_TABLE_BLOCK = 1 << 14


def _phi(modulus: int, p: int) -> int:
    """Euler totient of a prime power modulus."""
    return modulus - modulus // p


def _power_inverse(d: np.ndarray, modulus: int, p: int) -> np.ndarray:
    """1/d mod modulus over an int64 array of units, as d^(phi - 1) by
    square-and-multiply; products stay below modulus^2 < 2^63."""
    e = _phi(modulus, p) - 1
    out = np.ones_like(d)
    base = d.copy()
    while e:
        if e & 1:
            out *= base
            rem(out, modulus, inplace=True)
        e >>= 1
        if e:
            base *= base
            rem(base, modulus, inplace=True)
    return out


def _euclid_inverse(d: np.ndarray, modulus: int) -> np.ndarray:
    """1/d mod modulus over an int64 array of units, by extended Euclid.

    Each lane keeps r0 = s0*d and r1 = s1*d (mod modulus); the remainders of
    a unit reach 1, where s1 is the inverse.  Finished lanes are dropped
    every round, so later rounds run on the live lanes only.
    """
    out = np.empty_like(d)
    lane = np.arange(len(d))
    r0, r1 = np.full_like(d, modulus), d
    s0, s1 = np.zeros_like(d), np.ones_like(d)
    while True:
        done = r1 == 1
        out[lane[done]] = rem(s1[done], modulus)
        if done.all():
            return out
        live = ~done
        lane, r0, r1, s0, s1 = lane[live], r0[live], r1[live], s0[live], s1[live]
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1


@dataclass(frozen=True)
class RationalMap(MapProtocol):
    """x -> num(x)/den(x) on residues where den(x) is a unit.

    Evaluation uses the surrogate power form den(x)^(phi(m)-1), which equals
    the modular inverse on units; the oracle evaluates ``oracle_map()``, the
    InverseEvalMap that inverts by extended Euclid instead, so verification
    never compares the surrogate against itself.
    """

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        if self.den.degree < 0:
            raise ValueError("denominator must be nonzero")

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    @cached_property
    def _derivatives(self) -> tuple[IntPoly, IntPoly]:
        return self.num.derivative(), self.den.derivative()

    def _inverse_exponent(self, modulus: int, p: int) -> int:
        """e with d^e = 1/d (mod modulus) for every unit d."""
        return _phi(modulus, p) - 1

    def _invert(self, d: np.ndarray, modulus: int, p: int) -> np.ndarray:
        """1/d mod modulus over an int64 array of units."""
        return _power_inverse(d, modulus, p)

    def describe(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}

    def oracle_map(self) -> "InverseEvalMap":
        return InverseEvalMap(self.num, self.den)

    def poles(self, p: int) -> list[int]:
        return [x for x in range(p) if self.den.eval_mod(x, p) == 0]

    def walk(self, x: int, steps: int, work: int, dwork: int, p: int):
        """Steps y -> (h(y), h'(y)); h' by the quotient rule, exact in Z_p."""
        e = self._inverse_exponent(work, p)
        num, den = self.num.eval_mod, self.den.eval_mod
        dnum, dden = (d.eval_mod for d in self._derivatives)
        for _ in range(steps):
            dx = den(x, work)
            if dx % p == 0:
                raise BadReductionError(x, p)
            nx = num(x, work)
            inv_d = pow(dx, e, work)
            der = (dx * dnum(x, dwork) - nx * dden(x, dwork)) * inv_d % dwork * inv_d % dwork
            x = nx * inv_d % work
            yield x, der

    def table(self, modulus: int, p: int) -> np.ndarray:
        # Whether x is a pole depends only on x mod p, so the pole classes
        # are found once and their residues never reach the map.  Blocks of
        # a power of p residues bound the memory the kernels take.
        block = modulus
        while block > _TABLE_BLOCK and block > p:
            block //= p
        pole = np.zeros(p, dtype=bool)
        pole[self.poles(p)] = True
        defined = np.flatnonzero(~np.tile(pole, block // p))
        succ = np.full(modulus, -1, dtype=np.int64)
        for start in range(0, modulus, block):
            x = defined + start
            inv = self._invert(self.den.eval_array(x, modulus), modulus, p)
            succ[x] = rem(self.num.eval_array(x, modulus) * inv, modulus)
        return succ

    def limbs(self, x: np.ndarray, modulus: int, p: int):
        """num and den on two limbs (``IntPoly.limbs``), 1/den mod P by the
        class's inverse and one Hensel step to P^2.  Every product of two limbs
        is below P^2 < 2^63 and is reduced mod P before it is summed; only a
        difference of two such products is reduced once."""
        P = modulus
        d_hi, d_lo, d_d = self.den.limbs(x, P, p)
        pole = np.flatnonzero(rem(d_lo, p) == 0)
        if len(pole):
            raise BadReductionError(int(x[pole[0]]), p)
        i = self._invert(d_lo, P, p)
        # den * i = 1 + e*P (mod P^2), so 1/den = i - i*e*P = (-i*e, i) in limbs.
        e = rem((d_lo * i - 1) // P + rem(d_hi * i, P), P)
        i_hi = rem(-i * e, P)
        n_hi, n_lo, n_d = self.num.limbs(x, P, p)
        # h' = (den*num' - num*den') / den^2, needed mod P only
        der = rem(rem(rem(d_lo * n_d - n_lo * d_d, P) * i, P) * i, P)
        prod = n_lo * i
        q = prod // P
        hi = rem(q + rem(n_hi * i, P) + rem(n_lo * i_hi, P), P)
        prod -= q * P
        return hi, prod, der

    def taylor_at(self, x0: int, order: int, modulus: int, p: int) -> list[int]:
        """Series coefficients of h(x0 + u) mod modulus up to u^order."""
        num_c = self.num.taylor_at(x0, order, modulus)
        den_c = self.den.taylor_at(x0, order, modulus)
        if den_c[0] % p == 0:
            raise BadReductionError(x0, p)
        inv0 = pow(den_c[0], self._inverse_exponent(modulus, p), modulus)
        out = []
        for i in range(order + 1):
            acc = num_c[i]
            for j in range(1, i + 1):
                acc -= den_c[j] * out[i - j]
            out.append(acc % modulus * inv0 % modulus)
        return out


class InverseEvalMap(RationalMap):
    """The same rational map evaluated through extended-Euclid inverses.

    The independent oracle route of every rational map (``oracle_map``).
    """

    @classmethod
    def of(cls, h: RationalMap) -> "InverseEvalMap":
        return cls(h.num, h.den)

    def _inverse_exponent(self, modulus: int, p: int) -> int:
        return -1  # pow(d, -1, m) runs extended Euclid

    def _invert(self, d: np.ndarray, modulus: int, p: int) -> np.ndarray:
        return _euclid_inverse(d, modulus)


def is_permutation(f: IntPoly, p: int, n: int) -> bool:
    """Whether f_n is a bijection of Z/p^nZ.

    Level 1 is checked exhaustively; for n >= 2 the verdict is f_1 bijective
    plus f' rootless mod p, independent of n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f1_bijective = len({f.eval_mod(x, p) for x in range(p)}) == p
    if n == 1:
        return f1_bijective
    deriv = f.derivative()
    return f1_bijective and all(deriv.eval_mod(x, p) != 0 for x in range(p))


def is_single_cycle(f: IntPoly, p: int, n: int) -> bool:
    """Whether f_n is a single p^n-cycle.

    The verdict is decided at level min(n, 2) for p > 3 and min(n, 3) for
    p = 3, by walking the orbit of 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    level = min(n, 3 if p == 3 else 2)
    modulus = p**level
    x = f.eval_mod(0, modulus)
    steps = 1
    while x != 0:
        if steps > modulus:
            return False  # 0 is on a tail, not a cycle
        x = f.eval_mod(x, modulus)
        steps += 1
    return steps == modulus

