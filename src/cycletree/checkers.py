"""Closed-form decision procedures and rational-map support.

Permutation criterion: f_n is a permutation (n >= 2) iff f_1 is a permutation
and f' has no roots mod p, so the verdict stabilizes at level 2.  Single
p^n-cycle: stabilizes at level 2 for p > 3 and at level 3 for p = 3.

Rational maps h = num/den with den a unit on the points under analysis agree
mod p^{2n} with the integer polynomial num * den^(phi(p^{2n}) - 1), so the
whole lift machinery applies.  The engine never expands that surrogate to
coefficient form; it evaluates it pointwise by modular exponentiation.  The
independent oracle route inverts den by extended Euclid instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arith import IntPoly
from .errors import BadReductionError, BudgetExceededError
from .predictor import AnalyzedTree, analyze

__all__ = [
    "RationalMap",
    "InverseEvalMap",
    "is_permutation",
    "is_single_cycle",
    "surrogate_poly",
    "surrogate_eval",
    "analyze_rational",
]


def _phi(modulus: int, p: int) -> int:
    """Euler totient of a prime power modulus."""
    return modulus - modulus // p


@dataclass(frozen=True)
class RationalMap:
    """x -> num(x)/den(x) on residues where den(x) is a unit.

    Evaluation uses the surrogate power form den(x)^(phi(m)-1), which equals
    the modular inverse on units; the distinct InverseEvalMap route exists so
    differential tests never compare the surrogate against itself.
    """

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        if self.den.degree < 0:
            raise ValueError("denominator must be nonzero")

    @cached_property
    def _derivatives(self) -> tuple[IntPoly, IntPoly]:
        return self.num.derivative(), self.den.derivative()

    def _den_unit(self, x: int, modulus: int, p: int) -> int:
        dx = self.den.eval_mod(x, modulus)
        if dx % p == 0:
            raise BadReductionError(x, p)
        return dx

    def value_mod(self, x: int, modulus: int, p: int) -> int:
        dx = self._den_unit(x, modulus, p)
        return self.num.eval_mod(x, modulus) * pow(dx, _phi(modulus, p) - 1, modulus) % modulus

    # graph-layer protocol names
    def surrogate_value(self, x: int, modulus: int, p: int) -> int:
        return self.value_mod(x, modulus, p)

    def surrogate_value_deriv(self, x: int, modulus: int, p: int) -> tuple[int, int]:
        """(h(x), h'(x)) mod modulus via the quotient rule; exact in Z_p."""
        dx = self._den_unit(x, modulus, p)
        nx = self.num.eval_mod(x, modulus)
        dnum, dden = self._derivatives
        ndx = dnum.eval_mod(x, modulus)
        ddx = dden.eval_mod(x, modulus)
        inv_d = pow(dx, _phi(modulus, p) - 1, modulus)
        value = nx * inv_d % modulus
        deriv = (dx * ndx - nx * ddx) % modulus * inv_d % modulus * inv_d % modulus
        return value, deriv

    def taylor_at(self, x0: int, order: int, modulus: int, p: int) -> list[int]:
        """Series coefficients of h(x0 + u) mod modulus up to u^order."""
        num_c = self.num.taylor_at(x0, order, modulus)
        den_c = self.den.taylor_at(x0, order, modulus)
        if den_c[0] % p == 0:
            raise BadReductionError(x0, p)
        inv0 = pow(den_c[0], _phi(modulus, p) - 1, modulus)
        out = []
        for i in range(order + 1):
            acc = num_c[i]
            for j in range(1, i + 1):
                acc -= den_c[j] * out[i - j]
            out.append(acc % modulus * inv0 % modulus)
        return out


@dataclass(frozen=True)
class InverseEvalMap:
    """The same rational map evaluated through extended-Euclid inverses.

    Used only as the independent oracle route for differential tests.
    """

    num: IntPoly
    den: IntPoly

    @classmethod
    def of(cls, h: RationalMap) -> "InverseEvalMap":
        return cls(h.num, h.den)

    def surrogate_value(self, x: int, modulus: int, p: int) -> int:
        dx = self.den.eval_mod(x, modulus)
        if dx % p == 0:
            raise BadReductionError(x, p)
        return self.num.eval_mod(x, modulus) * pow(dx, -1, modulus) % modulus

    def surrogate_value_deriv(self, x: int, modulus: int, p: int) -> tuple[int, int]:
        dx = self.den.eval_mod(x, modulus)
        if dx % p == 0:
            raise BadReductionError(x, p)
        nx = self.num.eval_mod(x, modulus)
        inv_d = pow(dx, -1, modulus)
        value = nx * inv_d % modulus
        deriv = (dx * self.num.derivative().eval_mod(x, modulus)
                 - nx * self.den.derivative().eval_mod(x, modulus)) % modulus
        deriv = deriv * inv_d % modulus * inv_d % modulus
        return value, deriv

    def taylor_at(self, x0: int, order: int, modulus: int, p: int) -> list[int]:
        num_c = self.num.taylor_at(x0, order, modulus)
        den_c = self.den.taylor_at(x0, order, modulus)
        if den_c[0] % p == 0:
            raise BadReductionError(x0, p)
        inv0 = pow(den_c[0], -1, modulus)
        out = []
        for i in range(order + 1):
            acc = num_c[i]
            for j in range(1, i + 1):
                acc -= den_c[j] * out[i - j]
            out.append(acc % modulus * inv0 % modulus)
        return out


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


def surrogate_poly(h: RationalMap, p: int, n: int,
                   degree_budget: int = 4096) -> IntPoly:
    """The integer polynomial num * den^(phi(p^{2n}) - 1), expanded.

    Its degree is deg num + (phi(p^{2n}) - 1) * deg den; construction refuses
    degrees above ``degree_budget`` (use surrogate_eval pointwise instead).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    modulus = p ** (2 * n)
    exponent = _phi(modulus, p) - 1
    degree = h.num.degree + exponent * max(h.den.degree, 0)
    if degree > degree_budget:
        raise BudgetExceededError(degree, degree_budget, what="polynomial degree")
    return h.num * (h.den**exponent)


def surrogate_eval(h: RationalMap, p: int, n: int, x: int) -> int:
    """Evaluation-form surrogate: num(x) * den(x)^(phi(p^{2n}) - 1) mod p^{2n}."""
    return h.value_mod(x, p ** (2 * n), p)


def analyze_rational(h: RationalMap, p: int, **opts) -> AnalyzedTree:
    """Run the full predictor pipeline on a rational map.

    Classes where den vanishes mod p are reported in bad_reduction_classes;
    branches that would need evaluation there are flagged, not explored.
    """
    return analyze(h, p, **opts)
