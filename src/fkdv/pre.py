"""The projective Riccati method: ansatz in a function pair (sigma, tau).

The pair satisfies sigma' = e*sigma*tau and tau' = e*tau^2 - mu*sigma + r.
The method is that rule table over the polynomial kernel: sigma and tau are
symbols, d/dxi is the derivation ``MPoly.derive(PRE_RULES)``, and the first
integral

    tau^2 = -e*(r - 2*mu*sigma + ((mu^2+rho)/r)*sigma^2)

eliminates every tau power above one (``eliminate_tau``).  The division by r
is kept polynomial by r-clearing: the reduced polynomial is returned with the
power of r it was multiplied by, so the true value is poly / r**r_power.  The
image of each power of tau under that rewrite depends only on s, the r-power
cleared, so it is built once per process, on first use, and shared.  The
sign symbols e and rho stay fully symbolic during generation; no e^2 = 1
rewriting is applied (solving substitutes the signs later).

Because e is symbolic, tau elimination does not commute with
differentiation: the two orders differ by multiples of e^2 - 1, which vanish
only at e = +-1.  The ODE residual therefore expands fully under the
derivative rules alone and applies the first integral once at the end; that
is the convention the reference system transcription follows.
"""

from __future__ import annotations

from functools import lru_cache

from .equation import EquationSpec, SystemEq
from .equation import ode_residual as _shared_residual
from .poly import MPoly, exps_of, monomial
from .symbols import E, LAM, MU, R, RHO, SIGMA, TAU, Sym, a, b

_E = MPoly.var(E)
_MU = MPoly.var(MU)
_R = MPoly.var(R)
_SIGMA = MPoly.var(SIGMA)
_TAU = MPoly.var(TAU)

PRE_RULES = {SIGMA: _E * _SIGMA * _TAU, TAU: _E * _TAU**2 - _MU * _SIGMA + _R}

# the paper's signs; reproduce, the catalog checks and `solve`'s defaults use them
PAPER_SIGNS = {E: 1, RHO: -1}

# r * tau^2 by the first integral
R_TAU2 = -(_E * (_R**2 - _MU * _R * _SIGMA * 2 + (_MU**2 + MPoly.var(RHO)) * _SIGMA**2))


@lru_cache(maxsize=16)
def _tau_images(s: int) -> tuple[MPoly, ...]:
    """The images of r**s * tau^e for e = 0 .. 2s+1, tau^(e%2) *
    (r*tau^2)^(e//2) * r^(s - e//2) with r*tau^2 = R_TAU2.  Built once per
    s and shared by every caller, so no caller may mutate an entry."""
    return tuple(_TAU ** (e % 2) * R_TAU2 ** (e // 2) * _R ** (s - e // 2) for e in range(2 * s + 2))


def eliminate_tau(p: MPoly) -> tuple[MPoly, int]:
    """(r**s * p with every tau^2 rewritten by the first integral, s), where
    s = max tau exponent // 2; the result has tau-degree <= 1.

    The coefficient of each tau^e in p is multiplied once by the image of
    r**s * tau^e (``_tau_images``, built once per s), into one term map.
    The tau-degree <= 1 representative of r**s * p modulo r*tau^2 - R_TAU2
    is unique, so any order of rewriting gives this polynomial.
    """
    s = p.max_exponent(TAU) // 2
    if s == 0:
        return p, 0
    images = _tau_images(s)
    return MPoly.sum_of_products((part, images[e]) for (e,), part in p.split((TAU,)).items()), s


def build_pre_ansatz(m: int) -> MPoly:
    """a0 + sum_{j=1..m} sigma^(j-1) * (a_j*sigma + b_j*tau)."""
    if m < 1:
        raise ValueError("ansatz depth m must be >= 1 (m = 0 is trivial)")
    v = MPoly.var(a(0))
    for j in range(1, m + 1):
        v = v + _SIGMA ** (j - 1) * (_SIGMA * MPoly.var(a(j)) + _TAU * MPoly.var(b(j)))
    return v


def weights(m: int) -> dict[Sym, int]:
    """Weights under which the depth-m system is weighted-homogeneous, for
    the scaling u -> s^2*u(s*xi): u has weight 2 and each d/dxi adds 1, so
    sigma, tau and r have 2, 1 and 2 and mu, e and rho 0 (the rules and the
    first integral), a0 has 2, a_j has 2 - 2j, b_j has 3 - 2j, and lam has
    4 (lam*u' against u^(5))."""
    out = {E: 0, MU: 0, RHO: 0, R: 2, LAM: 4, a(0): 2}
    for j in range(1, m + 1):
        out.update({a(j): 2 - 2 * j, b(j): 3 - 2 * j})
    return out


def pre_ode_residual(spec: EquationSpec, v: MPoly) -> tuple[MPoly, int]:
    """Expand the traveling-wave ODE at the ansatz ``v`` and eliminate tau
    powers once: ``eliminate_tau``'s (r**r_power * residual, r_power)."""
    return eliminate_tau(_shared_residual(spec, v, PRE_RULES))


def default_order(spec: EquationSpec) -> int:
    """Depth 1, the paper's, for every member of the family."""
    return 1


def derive_system(spec: EquationSpec, order: int) -> list[SystemEq]:
    """The depth-``order`` system of ``spec``, built by this module's functions."""
    return extract_pre_system(pre_ode_residual(spec, build_pre_ansatz(order)))


def split_r(p: MPoly) -> tuple[int, MPoly]:
    """Factor out the largest power of r dividing every term.

    Returns (s, q) with p == r**s * q.  Comparisons against transcribed
    systems go through this: the r-clearing convention fixes each equation
    only up to a power of r.
    """
    if p.is_zero():
        return 0, p
    # the gcd of the terms has the least power of r among them
    s = dict(exps_of(p.monomial_gcd())).get(R, 0)
    if s == 0:
        return 0, p
    return s, p.divide_mono(monomial({R: s}))


def extract_pre_system(residual: tuple[MPoly, int]) -> list[SystemEq]:
    """Normalized coefficient polynomials of ``pre_ode_residual``'s pair,
    tagged with (sigma, tau) origin and the cleared r-power; tau-degree-0
    block first, ascending sigma power."""
    poly, r_power = residual
    terms = poly.split((SIGMA, TAU))
    return [
        SystemEq(power=i, poly=terms[(i, j)].normalize(), tau_degree=j, r_power=r_power)
        for i, j in sorted(terms, key=lambda k: (k[1], k[0]))
    ]
