"""The tanh method: ansatz in an auxiliary function phi with phi' = k + phi^2.

The method is one rule table: phi is a symbol of the polynomial kernel and
d/dxi is the derivation ``MPoly.derive(TANH_RULES)``, under which the
parameters are constants.  The ansatz and the ODE residual are plain
MPolys in phi; the coefficients in phi are the polynomials of the algebraic
system.  The balance reads the derivative orders of each term from the
equation's term table (:meth:`fkdv.equation.EquationSpec.terms`), the same
table the residual is built from.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .equation import EquationSpec, SystemEq
from .equation import ode_residual as _shared_residual
from .errors import BalanceError
from .poly import MPoly
from .symbols import K, LAM, PHI, Sym, a

_PHI = MPoly.var(PHI)
TANH_RULES = {PHI: MPoly.var(K) + _PHI**2}

# the method has no sign symbols, so a solve presets none
PAPER_SIGNS: dict[Sym, int] = {}


class BalanceTerm(NamedTuple):
    """Order bookkeeping for one ODE term, linear in the ansatz degree M."""

    slope: int
    intercept: int
    label: str

    def order_str(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        head = "M" if self.slope == 1 else f"{self.slope}M"
        if self.intercept == 0:
            return head
        return f"{head}+{self.intercept}"


def balance_M(terms: Sequence[BalanceTerm]) -> int:
    """Smallest positive integer M at which two distinct order expressions
    share the highest order.

    Two expressions s1*M + i1 and s2*M + i2 meet at M = (i2 - i1)/(s1 - s2),
    never beyond the spread of the intercepts, so one scan of M = 1 .. that
    spread finds the first.  Raises BalanceError, naming the dominant
    orders, when no M in it balances.
    """
    exprs = sorted({(t.slope, t.intercept) for t in terms}, reverse=True)
    if len(exprs) < 2:
        raise BalanceError("need at least two distinct order expressions")
    intercepts = [i for _, i in exprs]
    for m in range(1, max(intercepts) - min(intercepts) + 1):
        orders = [s * m + i for s, i in exprs]
        if orders.count(max(orders)) > 1:
            return m
    o1, o2 = (BalanceTerm(s, i, "").order_str() for s, i in exprs[:2])
    raise BalanceError(f"balancing {o1} against {o2} gives no positive integer order")


def build_ansatz(m: int) -> MPoly:
    """a0 + a1*phi + ... + aM*phi^M with fresh coefficient symbols."""
    if m < 1:
        raise ValueError("ansatz order must be >= 1")
    return sum((MPoly.var(a(j)) * _PHI**j for j in range(m + 1)), MPoly.zero())


def weights(m: int) -> dict[Sym, int]:
    """Weights under which the order-m system is weighted-homogeneous, for
    the scaling u -> s^2*u(s*xi): u has weight 2 and each d/dxi adds 1, so
    phi and k have 1 and 2 (phi' = k + phi^2), a_j has 2 - j, and lam has 4
    (lam*u' against u^(5))."""
    return {K: 2, LAM: 4, **{a(j): 2 - j for j in range(m + 1)}}


def ode_residual(spec: EquationSpec, v: MPoly) -> MPoly:
    return _shared_residual(spec, v, TANH_RULES)


def extract_system(residual: MPoly) -> list[SystemEq]:
    """Nonzero coefficient polynomials in phi, normalized, ascending phi power."""
    return [
        SystemEq(power=j, poly=c.normalize())
        for (j,), c in sorted(residual.split((PHI,)).items())
    ]


def default_order(spec: EquationSpec) -> int:
    """The balanced ansatz order M of ``spec``."""
    return balance_M(balance_terms_for(spec))


def derive_system(spec: EquationSpec, order: int) -> list[SystemEq]:
    """The order-``order`` system of ``spec``, built by this module's functions."""
    return extract_system(ode_residual(spec, build_ansatz(order)))


def balance_terms_for(spec: EquationSpec) -> list[BalanceTerm]:
    """Balance bookkeeping for the PDE terms of ``spec`` with a nonzero
    coefficient: the product of v^(o) over a term's orders has order
    len(orders)*M + sum(orders) in phi."""
    return [
        BalanceTerm(len(orders), sum(orders), _label(orders))
        for _, coef, orders in spec.terms()
        if coef
    ]


def _label(orders: tuple[int, ...]) -> str:
    """v^n for the n underived factors, then v^(o) for each derivative."""
    zeros = orders.count(0)
    derived = [f"v^({o})" for o in orders if o]
    return "*".join([f"v^{zeros}", *derived] if zeros else derived)
