"""Fifth-order KdV coefficient family, stated once as a table of terms.

The family is u_t + omega*u_xxxxx + alpha*u^2*u_x + beta*u_x*u_xx
+ gamma*u*u_xxx = 0; the Ito equation is the member (2, 6, 3, 1).  Under
u(x,t) = v(xi), xi = x + lam*t, the PDE becomes the ODE

    lam*v' + alpha*v^2*v' + beta*v'*v'' + gamma*v*v''' + omega*v''''' = 0

which is what both ansatz modules expand, each with its own derivative
rules, from the one term table :meth:`EquationSpec.terms`; the tanh
balance reads its orders from the same table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Mapping, NamedTuple

from .poly import MPoly
from .symbols import LAM, Sym


class _Coefficients(NamedTuple):
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    omega: Fraction


class EquationSpec(_Coefficients):
    # the checks sit on a subclass, as a NamedTuple body cannot define __new__
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        given = super().__new__(cls, *args, **kwargs)
        for name, v in zip(cls._fields, given):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"{name} must be rational")
        if given.omega == 0:
            raise ValueError("omega must be nonzero: the family is fifth order")
        return super().__new__(cls, *map(Fraction, given))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, and _replace through it, would skip the checks
        return cls(*iterable)

    def terms(self) -> list[tuple[str, MPoly, tuple[int, ...]]]:
        """The five PDE terms as (name, coefficient, orders): a term is its
        coefficient times the x-derivatives of u of its orders, with
        u_t = lam*u_x at the traveling wave."""
        return [
            ("u_t", MPoly.var(LAM), (1,)),
            ("omega*u_xxxxx", MPoly.const(self.omega), (5,)),
            ("alpha*u^2*u_x", MPoly.const(self.alpha), (0, 0, 1)),
            ("beta*u_x*u_xx", MPoly.const(self.beta), (1, 2)),
            ("gamma*u*u_xxx", MPoly.const(self.gamma), (0, 3)),
        ]


def ito() -> EquationSpec:
    return EquationSpec(Fraction(2), Fraction(6), Fraction(3), Fraction(1))


def _ode_products(spec: EquationSpec, v: MPoly, rules: Mapping[Sym, MPoly]):
    """The PDE terms at the traveling wave ``v`` as (name, factors): the
    coefficient, then v^(o) for each order o, where d/dxi is the derivation
    that sends each auxiliary symbol to its rule."""
    terms = spec.terms()
    derivatives = [v]
    for _ in range(max(max(orders) for _, _, orders in terms)):
        derivatives.append(derivatives[-1].derive(rules))
    return [(name, (coef, *(derivatives[o] for o in orders))) for name, coef, orders in terms]


def ode_terms(spec: EquationSpec, v: MPoly, rules: Mapping[Sym, MPoly]) -> list[tuple[str, MPoly]]:
    """The named PDE terms at ``v``, multiplied out (see :func:`_ode_products`)."""
    return [(name, reduce(mul, factors)) for name, factors in _ode_products(spec, v, rules)]


def ode_residual(spec: EquationSpec, v: MPoly, rules: Mapping[Sym, MPoly]) -> MPoly:
    """The traveling-wave ODE expanded at the ansatz ``v``: the sum of
    :func:`ode_terms`, accumulated into one term map."""
    return MPoly.sum_of_products(factors for _, factors in _ode_products(spec, v, rules))


class SystemEq(NamedTuple):
    """One extracted coefficient equation, tagged with its origin."""

    power: int
    poly: MPoly
    tau_degree: int | None = None
    r_power: int | None = None


def equation_tag(power: int, tau_degree: int | None) -> str:
    """The text tag of an equation's origin: phi^p for the tanh method,
    sigma^p*tau^t for the projective one."""
    return f"phi^{power}" if tau_degree is None else f"sigma^{power}*tau^{tau_degree}"
