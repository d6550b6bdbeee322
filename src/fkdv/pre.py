"""The projective Riccati method: ansatz in a function pair (sigma, tau).

The pair satisfies sigma' = e*sigma*tau and tau' = e*tau^2 - mu*sigma + r.
The method is that rule table over the polynomial kernel: sigma and tau are
symbols, d/dxi is the derivation ``MPoly.derive(PRE_RULES)``, and the first
integral

    tau^2 = -e*(r - 2*mu*sigma + ((mu^2+rho)/r)*sigma^2)

eliminates every tau power above one (``eliminate_tau``).  The division by r
is kept polynomial by r-clearing: an STPoly stores its polynomial multiplied
by a recorded global power of r, so the true value is poly / r**r_power.  The
sign symbols e and rho stay fully symbolic during generation; no e^2 = 1
rewriting is applied (solving substitutes the signs later).

Because e is symbolic, tau elimination does not commute with
differentiation: the two orders differ by multiples of e^2 - 1, which vanish
only at e = +-1.  The ODE residual therefore expands fully under the
derivative rules alone and applies the first integral once at the end; that
is the convention the reference system transcription follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .equation import EquationSpec, SystemEq
from .equation import ode_residual as _shared_residual
from .errors import PoleError
from .poly import Coef, Coeffable, Mono, MPoly
from .symbols import E, MU, R, RHO, SIGMA, TAU, Sym, a, b

Key = tuple[int, int]  # (sigma power, tau power)

_E = MPoly.var(E)
_MU = MPoly.var(MU)
_R = MPoly.var(R)
_SIGMA = MPoly.var(SIGMA)
_TAU = MPoly.var(TAU)

PRE_RULES = {SIGMA: _E * _SIGMA * _TAU, TAU: _E * _TAU**2 - _MU * _SIGMA + _R}

# r * tau^2 by the first integral
_R_TAU2 = -(_E * (_R**2 - _MU * _R * _SIGMA * 2 + (_MU**2 + MPoly.var(RHO)) * _SIGMA**2))


def eliminate_tau(p: MPoly) -> tuple[MPoly, int]:
    """(r**s * p with every tau^2 rewritten by the first integral, s), where
    s = max tau exponent // 2; the result has tau-degree <= 1.

    Writing p = sum_q P_q * tau^(2q) with each P_q of tau-degree <= 1, the
    result is sum_q P_q * (r*tau^2)^q * r^(s-q), evaluated by Horner in r*tau^2.
    """
    s = p.max_exponent(TAU) // 2
    if s == 0:
        return p, 0
    parts: list[dict[Mono, Coef]] = [{} for _ in range(s + 1)]
    for m, c in p.terms.items():
        q = m.exponent(TAU) // 2
        parts[q][Mono([(t, e - 2 * q if t is TAU else e) for t, e in m.exps])] = c
    acc = MPoly._raw(parts[s])
    for q in range(s - 1, -1, -1):
        acc = acc * _R_TAU2 + MPoly._raw(parts[q]) * _R ** (s - q)
    return acc, s


class STPoly:
    """Polynomial in (sigma, tau) with tau-degree <= 1, held as one MPoly.

    The stored polynomial is the true value multiplied by r**r_power; the
    recorded power is global to the value.
    """

    __slots__ = ("poly", "r_power")

    def __init__(self, terms: Mapping[Key, Coeffable] | None = None, r_power: int = 0):
        if r_power < 0:
            raise ValueError("r_power must be >= 0")
        poly = MPoly.zero()
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError("negative sigma/tau power")
            poly = poly + _SIGMA**i * _TAU**j * c
        self.poly, s = eliminate_tau(poly)
        self.r_power = r_power + s

    @classmethod
    def _reduced(cls, raw: MPoly, r_power: int) -> "STPoly":
        self = object.__new__(cls)
        self.poly, s = eliminate_tau(raw)
        self.r_power = r_power + s
        return self

    @classmethod
    def zero(cls) -> "STPoly":
        return cls()

    @classmethod
    def const(cls, c: Coeffable) -> "STPoly":
        return cls({(0, 0): c})

    @classmethod
    def sigma(cls) -> "STPoly":
        return cls({(1, 0): 1})

    @classmethod
    def tau(cls) -> "STPoly":
        return cls({(0, 1): 1})

    @property
    def terms(self) -> dict[Key, MPoly]:
        """Coefficient of each sigma^i tau^j present."""
        return self.poly.split((SIGMA, TAU))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def sigma_degree(self, tau_degree: int) -> int:
        return max(
            (m.exponent(SIGMA) for m in self.poly.terms if m.exponent(TAU) == tau_degree),
            default=-1,
        )

    def _aligned(self, other: "STPoly") -> tuple[MPoly, MPoly, int]:
        s = max(self.r_power, other.r_power)
        return self.poly * _R ** (s - self.r_power), other.poly * _R ** (s - other.r_power), s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, STPoly):
            return NotImplemented
        mine, theirs, _ = self._aligned(other)
        return mine == theirs

    def __add__(self, other: "STPoly") -> "STPoly":
        mine, theirs, s = self._aligned(other)
        return STPoly._reduced(mine + theirs, s)

    def __sub__(self, other: "STPoly") -> "STPoly":
        mine, theirs, s = self._aligned(other)
        return STPoly._reduced(mine - theirs, s)

    def __mul__(self, other: "STPoly") -> "STPoly":
        return STPoly._reduced(self.poly * other.poly, self.r_power + other.r_power)

    def diff(self) -> "STPoly":
        """d/dxi under the two derivative rules, followed by tau elimination."""
        return STPoly._reduced(self.poly.derive(PRE_RULES), self.r_power)

    def substitute(self, bind: Mapping[Sym, Coeffable]) -> "STPoly":
        """Substitute into the stored coefficients.  Binding r scales the
        cleared powers too, so zero-ness is preserved only for r != 0."""
        return STPoly._reduced(self.poly.substitute(bind), self.r_power)

    def __str__(self) -> str:
        return str(self.poly) if self.r_power == 0 else f"[{self.poly}] / r^{self.r_power}"

    __repr__ = __str__


def tau2_reduce(raw: Mapping[Key, Coeffable], r_power: int = 0) -> STPoly:
    """Reduce a raw sigma-tau polynomial to tau-degree <= 1."""
    return STPoly(raw, r_power)


def st_diff(p: STPoly) -> STPoly:
    return p.diff()


@dataclass(frozen=True)
class PreAnsatzSpec:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ansatz depth m must be >= 1 (m = 0 is trivial)")


def build_pre_ansatz(spec: PreAnsatzSpec | int) -> STPoly:
    """a0 + sum_{j=1..m} sigma^(j-1) * (a_j*sigma + b_j*tau)."""
    m = spec.m if isinstance(spec, PreAnsatzSpec) else PreAnsatzSpec(spec).m
    terms: dict[Key, Coeffable] = {(0, 0): MPoly.var(a(0))}
    for j in range(1, m + 1):
        terms[(j, 0)] = MPoly.var(a(j))
        terms[(j - 1, 1)] = MPoly.var(b(j))
    return STPoly(terms)


def linear_balance(order1: tuple[int, int], order2: tuple[int, int]) -> int | None:
    """Positive integer m with s1*m+i1 == s2*m+i2, if any."""
    (s1, i1), (s2, i2) = order1, order2
    if s1 == s2:
        return None
    num, den = i2 - i1, s1 - s2
    if num % den or num // den < 1:
        return None
    return num // den


def pre_degree_candidates() -> frozenset[int]:
    """Ansatz depths the method explores: {1, 2}.

    The residual's top sigma-degrees are m+5, 2m+3 and 3m+1; every pairwise
    coincidence lands on m = 2.  Depth m = 1 stays viable anyway because its
    leading coefficients factor through mu^2 + rho and can vanish, which is
    exactly how its solution branches arise.
    """
    tops = [(1, 5), (2, 3), (3, 1)]
    balanced = {
        m
        for i in range(len(tops))
        for j in range(i + 1, len(tops))
        if (m := linear_balance(tops[i], tops[j])) is not None
    }
    return frozenset({1} | balanced)


def pre_ode_residual(spec: EquationSpec, v: STPoly) -> STPoly:
    """Expand the traveling-wave ODE at ``v`` and eliminate tau powers once.

    ``v`` must be an ansatz-like value: already reduced and with no cleared
    r-power (the elimination-after-expansion convention is only meaningful
    there).
    """
    if v.r_power != 0:
        raise ValueError("residual expansion expects an r_power-free ansatz")
    return STPoly._reduced(_shared_residual(spec, v.poly, PRE_RULES), 0)


def split_r(p: MPoly) -> tuple[int, MPoly]:
    """Factor out the largest power of r dividing every term.

    Returns (s, q) with p == r**s * q.  Comparisons against transcribed
    systems go through this: the r-clearing convention fixes each equation
    only up to a power of r.
    """
    if p.is_zero():
        return 0, p
    s = min(m.exponent(R) for m in p.terms)
    if s == 0:
        return 0, p
    mono_r = next(iter(MPoly.var(R).terms))
    return s, p.divide_mono(mono_r**s)


def extract_pre_system(residual: STPoly) -> list[SystemEq]:
    """Normalized coefficient polynomials tagged with (sigma, tau) origin and
    the cleared r-power; tau-degree-0 block first, ascending sigma power."""
    terms = residual.terms
    return [
        SystemEq(power=i, poly=terms[(i, j)].normalize(), tau_degree=j, r_power=residual.r_power)
        for i, j in sorted(terms, key=lambda k: (k[1], k[0]))
    ]


@dataclass(frozen=True)
class STClosedForm:
    """One printed closed-form solution of the sigma-tau system.

    Case I needs r = mu = 0 (and is excluded from the first integral, which
    divides by r); Cases II-IV need r > 0 and carry fixed signs:
    II has (e, rho) = (1, -1), III has (-1, -1), IV has (-1, 1).
    """

    case_id: str  # I | II-sec | II-csc | III | IV
    e: int
    rho: int
    mu: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    C: Fraction | None = None

    _SIGNS = {"II-sec": (1, -1), "II-csc": (1, -1), "III": (-1, -1), "IV": (-1, 1)}

    def __post_init__(self):
        if self.e not in (-1, 1) or self.rho not in (-1, 1):
            raise ValueError("e and rho must be +1 or -1")
        if self.case_id == "I":
            if self.r != 0 or self.mu != 0:
                raise ValueError("Case I requires r = mu = 0")
            if self.C is None:
                raise ValueError("Case I requires the constant C")
        elif self.case_id in self._SIGNS:
            if self.r <= 0:
                raise ValueError(f"Case {self.case_id} requires r > 0")
            if (self.e, self.rho) != self._SIGNS[self.case_id]:
                raise ValueError(
                    f"Case {self.case_id} carries (e, rho) = {self._SIGNS[self.case_id]}"
                )
        else:
            raise ValueError(f"unknown case {self.case_id!r}")

    def uses_first_integral(self) -> bool:
        return self.case_id != "I"

    def singular_at_origin(self) -> bool:
        return self.case_id in ("I", "II-csc", "IV")


_POLE_EPS = 1e-6


def _guard(denom: float) -> float:
    if abs(denom) < _POLE_EPS:
        raise PoleError("sample too close to a pole")
    return denom


def st_closed_form_eval(form: STClosedForm, xi: float) -> tuple[float, float]:
    """Numeric (sigma, tau) of the selected closed form at xi.

    Raises PoleError when any denominator is within 1e-6 of zero so the
    caller can pick another sample point.
    """
    mu = float(form.mu)
    if form.case_id == "I":
        x = _guard(xi)
        return float(form.C) / x, -1.0 / (form.e * x)
    sr = math.sqrt(float(form.r))
    th = sr * xi
    if form.case_id == "II-sec":
        sec = 1.0 / _guard(math.cos(th))
        den = _guard(1.0 + mu * sec)
        return float(form.r) * sec / den, sr * math.tan(th) / den
    if form.case_id == "II-csc":
        csc = 1.0 / _guard(math.sin(th))
        den = _guard(1.0 + mu * csc)
        return float(form.r) * csc / den, -sr * (math.cos(th) * csc) / den
    if form.case_id == "III":
        sech = 1.0 / math.cosh(th)
        den = _guard(1.0 + mu * sech)
        return float(form.r) * sech / den, sr * math.tanh(th) / den
    # Case IV
    csch = 1.0 / _guard(math.sinh(th))
    den = _guard(1.0 + mu * csch)
    return float(form.r) * csch / den, sr * (math.cosh(th) * csch) / den


def st_system_defect(form: STClosedForm, xi: float, h: float = 1e-3) -> tuple[float, float]:
    """Relative defect of sigma' = e*sigma*tau and tau' = e*tau^2 - mu*sigma + r
    at xi, with derivatives from a fourth-order central stencil."""

    def stencil(idx: int) -> float:
        vals = [st_closed_form_eval(form, xi + s * h)[idx] for s in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    sg, tu = st_closed_form_eval(form, xi)
    ds, dt = stencil(0), stencil(1)
    rhs_s = form.e * sg * tu
    rhs_t = form.e * tu * tu - float(form.mu) * sg + float(form.r)
    scale_s = max(1.0, abs(ds), abs(rhs_s))
    scale_t = max(1.0, abs(dt), abs(rhs_t))
    return abs(ds - rhs_s) / scale_s, abs(dt - rhs_t) / scale_t


def first_integral_defect(form: STClosedForm, xi: float) -> float:
    """Absolute defect of the first integral at xi (Cases II-IV only)."""
    if not form.uses_first_integral():
        raise ValueError("Case I does not use the first integral (r = 0)")
    sg, tu = st_closed_form_eval(form, xi)
    mu, r = float(form.mu), float(form.r)
    rho = float(form.rho)
    return abs(tu * tu + form.e * (r - 2 * mu * sg + ((mu * mu + rho) / r) * sg * sg))


ST_CATALOG = (
    STClosedForm("I", e=1, rho=-1, C=Fraction(3)),
    STClosedForm("I", e=-1, rho=-1, C=Fraction(-2)),
    STClosedForm("II-sec", e=1, rho=-1, mu=Fraction(1, 2), r=Fraction(1)),
    STClosedForm("II-sec", e=1, rho=-1, mu=Fraction(-1), r=Fraction(4)),
    STClosedForm("II-csc", e=1, rho=-1, mu=Fraction(-1), r=Fraction(1)),
    STClosedForm("II-csc", e=1, rho=-1, mu=Fraction(1), r=Fraction(9, 4)),
    STClosedForm("III", e=-1, rho=-1, mu=Fraction(1, 2), r=Fraction(1)),
    STClosedForm("III", e=-1, rho=-1, mu=Fraction(0), r=Fraction(4)),
    STClosedForm("IV", e=-1, rho=1, mu=Fraction(1), r=Fraction(1)),
    STClosedForm("IV", e=-1, rho=1, mu=Fraction(-1, 2), r=Fraction(9, 4)),
)
