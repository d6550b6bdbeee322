"""The tanh method: ansatz in an auxiliary function phi with phi' = k + phi^2.

The method is one rule table: phi is a symbol of the polynomial kernel and
d/dxi is the derivation ``MPoly.derive(TANH_RULES)``, under which the
parameters are constants.  The ansatz and the ODE residual are plain
MPolys in phi; the coefficients in phi are the polynomials of the algebraic
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .equation import EquationSpec, SystemEq
from .equation import ode_residual as _shared_residual
from .errors import BalanceError
from .poly import MPoly
from .symbols import K, PHI, a

_PHI = MPoly.var(PHI)
TANH_RULES = {PHI: MPoly.var(K) + _PHI**2}


@dataclass(frozen=True)
class BalanceTerm:
    """Order bookkeeping for one ODE term, linear in the ansatz degree M."""

    slope: int
    intercept: int
    label: str

    @classmethod
    def derivative(cls, p: int) -> "BalanceTerm":
        # order of v^(p) is M + p
        if p < 0:
            raise ValueError("derivative order must be >= 0")
        return cls(1, p, f"v^({p})")

    @classmethod
    def product(cls, p: int, q: int) -> "BalanceTerm":
        # order of v^(p) * v^(q) is 2M + p + q
        if p < 0 or q < 0:
            raise ValueError("derivative orders must be >= 0")
        return cls(2, p + q, f"v^({p})*v^({q})")

    @classmethod
    def power_derivative(cls, p: int, q: int) -> "BalanceTerm":
        # order of v^p * v^(q) is (p+1)M + q
        if p < 0 or q < 0:
            raise ValueError("orders must be >= 0")
        return cls(p + 1, q, f"v^{p}*v^({q})")

    def order_str(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        head = "M" if self.slope == 1 else f"{self.slope}M"
        if self.intercept == 0:
            return head
        return f"{head}+{self.intercept}"


def linear_balance(order1: tuple[int, int], order2: tuple[int, int]) -> int | None:
    """Positive integer m with s1*m+i1 == s2*m+i2, if any."""
    (s1, i1), (s2, i2) = order1, order2
    if s1 == s2:
        return None
    num, den = i2 - i1, s1 - s2
    if num % den or num // den < 1:
        return None
    return num // den


def balance_M(terms: Sequence[BalanceTerm]) -> int:
    """Smallest positive integer M at which the two dominant orders agree.

    Every pair with distinct order expressions is considered; a candidate M
    is kept only when the balanced value is maximal among all terms at that
    M.  Raises BalanceError, naming the dominant orders, when no pair gives
    a positive integer.
    """
    exprs = sorted({(t.slope, t.intercept) for t in terms}, reverse=True)
    if len(exprs) < 2:
        raise BalanceError("need at least two distinct order expressions")
    candidates = [
        m
        for i, (s1, i1) in enumerate(exprs)
        for other in exprs[i + 1 :]
        if (m := linear_balance((s1, i1), other)) is not None
        and all(s * m + c <= s1 * m + i1 for s, c in exprs)
    ]
    if not candidates:
        (s1, i1), (s2, i2) = exprs[0], exprs[1]
        o1 = BalanceTerm(s1, i1, "").order_str()
        o2 = BalanceTerm(s2, i2, "").order_str()
        raise BalanceError(
            f"balancing {o1} against {o2} gives no positive integer order"
        )
    return min(candidates)


def build_ansatz(m: int) -> MPoly:
    """a0 + a1*phi + ... + aM*phi^M with fresh coefficient symbols."""
    if m < 1:
        raise ValueError("ansatz order must be >= 1")
    return sum((MPoly.var(a(j)) * _PHI**j for j in range(m + 1)), MPoly.zero())


def ode_residual(spec: EquationSpec, v: MPoly) -> MPoly:
    return _shared_residual(spec, v, TANH_RULES)


def extract_system(residual: MPoly) -> list[SystemEq]:
    """Nonzero coefficient polynomials in phi, normalized, ascending phi power."""
    return [
        SystemEq(power=j, poly=c.normalize())
        for (j,), c in sorted(residual.split((PHI,)).items())
    ]


def balance_terms_for(spec: EquationSpec) -> list[BalanceTerm]:
    """Balance bookkeeping for the ODE terms present in ``spec``."""
    terms = [BalanceTerm.derivative(1), BalanceTerm.derivative(5)]
    if spec.alpha != 0:
        terms.append(BalanceTerm.power_derivative(2, 1))
    if spec.beta != 0:
        terms.append(BalanceTerm.product(1, 2))
    if spec.gamma != 0:
        terms.append(BalanceTerm.power_derivative(1, 3))
    return terms
