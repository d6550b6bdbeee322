"""The tanh method: ansatz in an auxiliary function phi with phi' = k + phi^2.

The method is one rule table: phi is a symbol of the polynomial kernel and
d/dxi is the derivation ``MPoly.derive(TANH_RULES)``, under which the
parameters are constants.  A PhiPoly is a view of one MPoly in phi whose
coefficients in phi are the polynomials of the algebraic system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .equation import EquationSpec, SystemEq
from .equation import ode_residual as _shared_residual
from .errors import BalanceError, PoleError
from .poly import Coeffable, MPoly
from .symbols import K, PHI, Sym, a

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
    candidates: list[int] = []
    for i in range(len(exprs)):
        for j in range(i + 1, len(exprs)):
            (s1, i1), (s2, i2) = exprs[i], exprs[j]
            if s1 == s2:
                continue
            num, den = i2 - i1, s1 - s2
            if num % den != 0:
                continue
            m = num // den
            if m < 1:
                continue
            top = s1 * m + i1
            if all(s * m + c <= top for s, c in exprs):
                candidates.append(m)
    if not candidates:
        (s1, i1), (s2, i2) = exprs[0], exprs[1]
        o1 = BalanceTerm(s1, i1, "").order_str()
        o2 = BalanceTerm(s2, i2, "").order_str()
        raise BalanceError(
            f"balancing {o1} against {o2} gives no positive integer order"
        )
    return min(candidates)


class PhiPoly:
    """Polynomial in the auxiliary function, held as one MPoly in ``phi``;
    coeffs[j] multiplies phi^j."""

    __slots__ = ("poly",)

    def __init__(self, coeffs: Sequence[Coeffable] = ()):
        self.poly = MPoly.zero()
        for j, c in enumerate(coeffs):
            self.poly = self.poly + _PHI**j * c

    @classmethod
    def _of(cls, poly: MPoly) -> "PhiPoly":
        self = object.__new__(cls)
        self.poly = poly
        return self

    @classmethod
    def zero(cls) -> "PhiPoly":
        return cls()

    @classmethod
    def const(cls, c: Coeffable) -> "PhiPoly":
        return cls([c])

    @classmethod
    def phi(cls, power: int = 1) -> "PhiPoly":
        return cls._of(_PHI**power)

    @property
    def coeffs(self) -> tuple[MPoly, ...]:
        parts = self.poly.split((PHI,))
        return tuple(parts.get((j,), MPoly.zero()) for j in range(self.degree() + 1))

    def degree(self) -> int:
        return self.poly.max_exponent(PHI) if self.poly else -1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhiPoly) and self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)

    def __add__(self, other: "PhiPoly") -> "PhiPoly":
        return PhiPoly._of(self.poly + other.poly)

    def __sub__(self, other: "PhiPoly") -> "PhiPoly":
        return PhiPoly._of(self.poly - other.poly)

    def __mul__(self, other: "PhiPoly") -> "PhiPoly":
        return PhiPoly._of(self.poly * other.poly)

    def diff(self) -> "PhiPoly":
        """d/dxi under the rule phi' = k + phi^2."""
        return PhiPoly._of(self.poly.derive(TANH_RULES))

    def substitute(self, bind: Mapping[Sym, Coeffable]) -> "PhiPoly":
        return PhiPoly._of(self.poly.substitute(bind))

    def eval_numeric(self, phi_value: float, point: Mapping[Sym, Fraction]) -> float:
        return sum(float(c.eval_rat(point)) * phi_value**j for j, c in enumerate(self.coeffs))

    def __str__(self) -> str:
        return str(self.poly)

    __repr__ = __str__


def phi_diff(p: PhiPoly) -> PhiPoly:
    return p.diff()


def build_ansatz(m: int) -> PhiPoly:
    """a0 + a1*phi + ... + aM*phi^M with fresh coefficient symbols."""
    if m < 1:
        raise ValueError("ansatz order must be >= 1")
    return PhiPoly([MPoly.var(a(j)) for j in range(m + 1)])


def ode_residual(spec: EquationSpec, v: PhiPoly) -> PhiPoly:
    return PhiPoly._of(_shared_residual(spec, v.poly, TANH_RULES))


def extract_system(residual: PhiPoly) -> list[SystemEq]:
    """Nonzero coefficient polynomials, normalized, ascending phi power."""
    return [
        SystemEq(power=j, poly=c.normalize())
        for j, c in enumerate(residual.coeffs)
        if not c.is_zero()
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


@dataclass(frozen=True)
class PhiForm:
    """One closed-form solution of phi' = k + phi^2."""

    name: str
    k_sign: int  # +1, -1 or 0

    def value(self, k: float, xi: float) -> float:
        if self.k_sign > 0:
            if k <= 0:
                raise ValueError(f"{self.name} form needs k > 0")
            s = math.sqrt(k)
            if self.name == "tan":
                v = s * math.tan(s * xi)
            else:
                v = -s / math.tan(s * xi) if math.tan(s * xi) != 0 else math.inf
        elif self.k_sign < 0:
            if k >= 0:
                raise ValueError(f"{self.name} form needs k < 0")
            s = math.sqrt(-k)
            if self.name == "tanh":
                v = -s * math.tanh(s * xi)
            else:
                v = -s / math.tanh(s * xi) if math.tanh(s * xi) != 0 else math.inf
        else:
            if k != 0:
                raise ValueError("reciprocal form needs k = 0")
            if xi == 0:
                raise PoleError("pole at xi = 0")
            v = -1.0 / xi
        if not math.isfinite(v) or abs(v) > 1e6:
            raise PoleError(f"{self.name} form near a pole at xi = {xi}")
        return v


PHI_CATALOG = (
    PhiForm("tan", 1),
    PhiForm("cot", 1),
    PhiForm("tanh", -1),
    PhiForm("coth", -1),
    PhiForm("reciprocal", 0),
)


def phi_defect(form: PhiForm, k: float, xi: float, h: float = 1e-3) -> float:
    """Relative defect of phi' = k + phi^2 at xi, derivative from a
    fourth-order central stencil."""
    vals = [form.value(k, xi + s * h) for s in (-2, -1, 1, 2)]
    dphi = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    rhs = k + form.value(k, xi) ** 2
    return abs(dphi - rhs) / max(1.0, abs(dphi), abs(rhs))
