"""Fifth-order KdV coefficient family and the traveling-wave ODE combination.

The family is u_t + omega*u_xxxxx + alpha*u^2*u_x + beta*u_x*u_xx
+ gamma*u*u_xxx = 0; the Ito equation is the member (2, 6, 3, 1).  Under
u(x,t) = v(xi), xi = x + lam*t, the PDE becomes the ODE

    lam*v' + alpha*v^2*v' + beta*v'*v'' + gamma*v*v''' + omega*v''''' = 0

which is what both ansatz modules expand, each with its own derivative rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .poly import MPoly
from .symbols import LAM, Sym


@dataclass(frozen=True)
class EquationSpec:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    omega: Fraction

    def __post_init__(self):
        for field in ("alpha", "beta", "gamma", "omega"):
            v = getattr(self, field)
            if isinstance(v, int):
                object.__setattr__(self, field, Fraction(v))
            elif not isinstance(v, Fraction):
                raise TypeError(f"{field} must be rational")
        if self.omega == 0:
            raise ValueError("omega must be nonzero: the family is fifth order")


def ito() -> EquationSpec:
    return EquationSpec(Fraction(2), Fraction(6), Fraction(3), Fraction(1))


def ode_terms(spec: EquationSpec, v: MPoly, rules: Mapping[Sym, MPoly]) -> list[tuple[str, MPoly]]:
    """The five PDE terms at the traveling wave ``v``, named as in the PDE,
    where d/dxi is the derivation that sends each auxiliary symbol to its
    rule (u_x = v', u_t = lam*v')."""
    v1 = v.derive(rules)
    v2 = v1.derive(rules)
    v3 = v2.derive(rules)
    v5 = v3.derive(rules).derive(rules)
    return [
        ("u_t", v1 * MPoly.var(LAM)),
        ("omega*u_xxxxx", v5 * spec.omega),
        ("alpha*u^2*u_x", v * v * v1 * spec.alpha),
        ("beta*u_x*u_xx", v1 * v2 * spec.beta),
        ("gamma*u*u_xxx", v * v3 * spec.gamma),
    ]


def ode_residual(spec: EquationSpec, v: MPoly, rules: Mapping[Sym, MPoly]) -> MPoly:
    """The traveling-wave ODE expanded at the ansatz ``v``: the sum of
    :func:`ode_terms`."""
    return sum((term for _, term in ode_terms(spec, v, rules)), MPoly.zero())


@dataclass(frozen=True)
class SystemEq:
    """One extracted coefficient equation, tagged with its origin."""

    power: int
    poly: MPoly
    tau_degree: int | None = None
    r_power: int | None = None
