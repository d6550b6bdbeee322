"""The catalog of ten closed-form traveling-wave solutions of the Ito equation,
the closed forms of the two auxiliary equations, and their checks, on the
one polynomial kernel.

With lam = -6*w^4 the wave number (-lam/6)^(1/4) is the symbol ``w`` and
sqrt(-lam/6) = w^2, so every template is a polynomial in ``w`` and at most
three function symbols (see :mod:`fkdv.symbols`).  Each function is a symbol
with a derivative rule that stays inside the polynomial ring, e.g.
tan' = (w/2)*(1 + tan^2) and sec' = (w/2)*sec*tan at the angle w*xi/2, and
y' = -den'*y^2 for a reciprocal y = 1/den; d/dxi is ``MPoly.derive`` over
that one rule table, and the PDE terms come from the equation's term table
through :func:`fkdv.equation.ode_terms`.

Two checks use the five PDE terms at lam = -6*w^4, made once per record
(:func:`residual_terms_for`).  :func:`exact_residual` adds them into one
term map, clears each reciprocal y by den*y = 1 and reduces each squared
function by its Pythagorean relation (sec^2 = 1 + tan^2, ...); each is one
kernel rewrite by a side relation (:func:`fkdv.poly.reduce_power`), which
tau elimination shares with its one cache of images.  A correct template
leaves the zero polynomial.
:func:`sample_report` evaluates the terms in binary64 at random points, and
:func:`pointwise_compare` evaluates two templates at shared points; both
draw through one sampler and keep one guard rule.  A polynomial of degree
d in w is bounded by 1e6 * w^d on every monomial, term and sum
(:func:`guard_bound`, inf when the power overflows); the PDE terms and
the templates are homogeneous in w, so the bound reads the same at every
speed.  A float overflow counts as a tripped bound.  w is an input and
only has to be finite, while every function value keeps the absolute 1e6
pole guard.  A sample that trips a guard counts as a pole and is
rejected.  A residual sample is relative to max|term|, the largest of
the five terms there, so it reads the same at any |lam|; a draw without a
scale (every term 0) is rejected, as is every draw once the terms, of
degree 7 in w, underflow the normal float range.
A pointwise difference is relative to the larger of the two template
values in the same way, and a draw where both are 0 is rejected.

Floats are evaluated one polynomial at a time (:func:`eval_float`): each
polynomial's terms are converted once, on first use, into one cache of
float coefficients and (symbol, exponent) pairs, so a point costs no
rational-to-float conversion and no monomial decoding.

The closed forms of phi' = k + phi^2 (``PHI_FORMS``) and of the projective
pair (``ST_CASES``) are polynomials in the same symbols;
:func:`phi_residual` and :func:`st_residuals` reduce their identities the
same way, to the zero polynomial.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from .equation import ito, ode_terms
from .errors import PoleError
from .poly import MPoly, exps_of, reduce_power
from .pre import PAPER_SIGNS, PRE_RULES, R_TAU2
from .symbols import (
    COT, COTH, COTW, CSC, CSCH, CSCW, E, K, LAM, MU, PHI, R, RHO, SEC, SECH, SIGMA, TAN,
    TANH, TAU, W, XINV, YCSC, YCSCH, YM, YP, YSEC, YSECH, Sym, a, b,
)
from .tanh import TANH_RULES

MAGNITUDE_GUARD = 1e6

_v = MPoly.var
_W = _v(W)
_HALF_W = _W * Fraction(1, 2)
_QUARTER_W2 = _W**2 * Fraction(1, 4)


def _csc(u: float) -> float:
    return 1.0 / math.sin(u)


def _cot(u: float) -> float:
    return math.cos(u) / math.sin(u)


def _at(angle: float, f: Callable[[float], float]) -> Callable[[float, float], float]:
    return lambda w, xi: f(angle * w * xi)


# symbol -> (derivative rule, float value at (w, xi)); the half-angle pairs
# share the angle w*xi/2
_FUNCTIONS: dict[Sym, tuple[MPoly, Callable[[float, float], float]]] = {
    TAN: (_HALF_W * (1 + _v(TAN) ** 2), _at(0.5, math.tan)),
    SEC: (_HALF_W * _v(SEC) * _v(TAN), _at(0.5, lambda u: 1.0 / math.cos(u))),
    COT: (-_HALF_W * (1 + _v(COT) ** 2), _at(0.5, _cot)),
    CSC: (-_HALF_W * _v(CSC) * _v(COT), _at(0.5, _csc)),
    TANH: (_HALF_W * (1 - _v(TANH) ** 2), _at(0.5, math.tanh)),
    SECH: (-_HALF_W * _v(SECH) * _v(TANH), _at(0.5, lambda u: 1.0 / math.cosh(u))),
    COTH: (_HALF_W * (1 - _v(COTH) ** 2), _at(0.5, lambda u: math.cosh(u) / math.sinh(u))),
    CSCH: (-_HALF_W * _v(CSCH) * _v(COTH), _at(0.5, lambda u: 1.0 / math.sinh(u))),
    CSCW: (-_W * _v(CSCW) * _v(COTW), _at(1.0, _csc)),
    COTW: (-_W * _v(CSCW) ** 2, _at(1.0, _cot)),
    XINV: (-_v(XINV) ** 2, lambda w, xi: 1.0 / xi),
}

_POLES_AT_ORIGIN = frozenset({COT, CSC, COTH, CSCH, CSCW, COTW, XINV})

# reciprocal symbols y = 1 / denominator, so y' = -denominator' * y^2; the
# float value of y is 1 / the denominator's
DENOMINATORS: dict[Sym, MPoly] = {
    YM: 1 - _v(CSCW),
    YP: 1 + _v(CSCW),
    YSEC: 1 + _v(MU) * _v(SEC),
    YCSC: 1 + _v(MU) * _v(CSC),
    YSECH: 1 + _v(MU) * _v(SECH),
    YCSCH: 1 + _v(MU) * _v(CSCH),
}

# the one rule table: each function symbol's derivative in xi
RULES: dict[Sym, MPoly] = {s: rule for s, (rule, _) in _FUNCTIONS.items()}
RULES.update({y: -den.derive(RULES) * _v(y) ** 2 for y, den in DENOMINATORS.items()})

# the squared relations: s^2 = value on the function's Pythagorean curve, and
# e^2 = 1 for the sign of the projective method
SQUARES: dict[Sym, MPoly] = {
    SEC: 1 + _v(TAN) ** 2,
    CSC: 1 + _v(COT) ** 2,
    SECH: 1 - _v(TANH) ** 2,
    CSCH: _v(COTH) ** 2 - 1,
    CSCW: 1 + _v(COTW) ** 2,
    E: MPoly.const(1),
}


# -- the ten-solution catalog -------------------------------------------------


class SolutionRecord:
    """One closed-form solution template, parameterized by the wave speed.

    ``template`` is u(x, t) as a polynomial in ``w`` and the function
    symbols; ``rules`` sends each of those symbols to its derivative in xi.

    ``params`` records the generating parameter tuple as polynomials in
    ``w`` (e.g. a0 = -5*w^2, k = w^2/4); at lam = -6*m^4, w = m and every
    entry is an exact rational.  ``aux_form`` names the auxiliary-function
    shape that rebuilds the template from the parameters (a phi form for
    the tanh method, a sigma-tau case for the projective method); it is
    None for the two negative-r records, whose printed hyperbolic shapes do
    not match any cataloged sign combination and are validated through
    their templates and the cross-method identities instead.
    """

    __slots__ = ("id", "method", "anchor", "template", "params", "aux_form", "rules")

    def __init__(self, id: str, method: str, anchor: str, template: MPoly,
                 params: dict[Sym, MPoly], aux_form: str | None = None):
        # method: tanh | pre; anchor: the source branch letter a-d / roman i-Vi
        rules = {s: RULES[s] for s in _closure(template)}
        for name, value in zip(self.__slots__, (id, method, anchor, template, params, aux_form, rules)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        # the catalog records are shared, and residual_terms_for caches on them
        raise AttributeError(f"SolutionRecord is immutable: cannot change {name}")

    __delattr__ = __setattr__

    @property
    def singular_at_origin(self) -> bool:
        """True iff one of the template's functions has a pole at xi = 0."""
        return not _POLES_AT_ORIGIN.isdisjoint(self.rules)

    def values(self, w: float, xi: float) -> dict[Sym, float]:
        """Float value of w and of each function symbol at (w, xi),
        guarded; raises PoleError at or near a pole."""
        return function_values(self.rules, w, xi)

    def specialize(self, m: int) -> dict[Sym, Fraction]:
        """Exact parameter values at lam = -6*m^4 (where w = m)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        out = {s: p.eval_rat({W: m}) for s, p in self.params.items()}
        out[LAM] = Fraction(-6) * m**4
        return out


def _closure(*polys: MPoly) -> list[Sym]:
    """The function symbols of ``polys`` and of their rules, transitively,
    in symbol order."""
    found: set[Sym] = set()
    todo = [s for p in polys for s in p.symbols() if s in RULES]
    while todo:
        s = todo.pop()
        if s not in found:
            found.add(s)
            todo += [t for t in RULES[s].symbols() if t in RULES]
    return sorted(found, key=lambda s: s.key)


def function_values(
    syms: Iterable[Sym], w: float, xi: float, params: Mapping[Sym, float] | None = None
) -> dict[Sym, float]:
    """Float values of w, ``params`` and each of ``syms`` (in symbol order,
    so a reciprocal follows its denominator) at (w, xi).  w is an input and
    only has to be finite; each function value is guarded, and PoleError is
    raised at or near a pole."""
    point = {W: _guard(w, math.inf), **(params or {})}
    try:
        for s in syms:
            if s in DENOMINATORS:
                point[s] = _guard(1.0 / eval_float(DENOMINATORS[s], point))
            else:
                point[s] = _guard(_FUNCTIONS[s][1](w, xi))
    except (ZeroDivisionError, OverflowError) as exc:
        raise PoleError(str(exc)) from exc
    return point


def _catalog() -> tuple[SolutionRecord, ...]:
    q = _W**2

    def tanh_like(sign: Fraction, inner_sign: int, f: Sym) -> MPoly:
        return q * (2 + _v(f) ** 2 * (3 * inner_sign)) * sign

    def pre_ratio(num_c: int, y: Sym) -> MPoly:
        return q * (1 + _v(CSCW) * num_c) * _v(y) * Fraction(5, 2)

    def pre_square(outer: Fraction, inner: int, f: Sym) -> MPoly:
        return q * (1 + _v(f) ** 2 * inner) * outer

    F, c = Fraction, MPoly.const
    tanh_neg = {a(0): q * -5, a(1): c(0), a(2): c(-30), K: _QUARTER_W2}
    tanh_pos = {a(0): q * 5, a(1): c(0), a(2): c(-30), K: -_QUARTER_W2}
    pre_i = {a(0): q * F(5, 2), a(1): c(15), b(1): c(0), MU: c(-1), R: q}
    pre_ii = {a(0): q * F(5, 2), a(1): c(-15), b(1): c(0), MU: c(1), R: q}
    pre_v = {a(0): q * F(-5, 2), a(1): c(-15), b(1): c(0), MU: c(1), R: -q}
    pre_vi = {a(0): q * F(-5, 2), a(1): c(15), b(1): c(0), MU: c(-1), R: -q}

    return (
        SolutionRecord("u1", "tanh", "a", tanh_like(F(-5, 2), 1, TAN), tanh_neg, "tan"),
        SolutionRecord("u2", "tanh", "b", tanh_like(F(-5, 2), 1, COT), tanh_neg, "cot"),
        SolutionRecord("u3", "tanh", "c", tanh_like(F(5, 2), -1, TANH), tanh_pos, "tanh"),
        SolutionRecord("u4", "tanh", "d", tanh_like(F(5, 2), -1, COTH), tanh_pos, "coth"),
        SolutionRecord("u5", "pre", "i", pre_ratio(5, YM), pre_i, "II-csc"),
        SolutionRecord("u6", "pre", "ii", pre_ratio(-5, YP), pre_ii, "II-csc"),
        SolutionRecord("u7", "pre", "iii", pre_square(F(5, 2), -3, SEC), pre_ii, "II-sec"),
        SolutionRecord("u8", "pre", "iv", pre_square(F(5, 2), -3, CSC), pre_i, "II-sec"),
        SolutionRecord("u9", "pre", "V", pre_square(F(-5, 2), -3, SECH), pre_v, None),
        SolutionRecord("u10", "pre", "Vi", pre_square(F(-5, 2), 3, CSCH), pre_vi, None),
    )


_CATALOG = _catalog()
_BY_ID = {rec.id: rec for rec in _CATALOG}


def catalog() -> tuple[SolutionRecord, ...]:
    return _CATALOG


def get_solution(sid: str) -> SolutionRecord:
    try:
        return _BY_ID[sid]
    except KeyError:
        raise KeyError(f"unknown solution id {sid!r} (u1..u10)") from None


# -- the closed forms of the auxiliary equations ------------------------------
#
# Each is a polynomial in the same symbols at the angle w*xi/2, so
# sqrt(|k|) = w/2 for a phi form and r = (w/2)^2 for a sigma-tau case.

# phi' = k + phi^2: name -> (phi, k)
PHI_FORMS: dict[str, tuple[MPoly, MPoly]] = {
    "tan": (_HALF_W * _v(TAN), _QUARTER_W2),
    "cot": (-_HALF_W * _v(COT), _QUARTER_W2),
    "tanh": (-_HALF_W * _v(TANH), -_QUARTER_W2),
    "coth": (-_HALF_W * _v(COTH), -_QUARTER_W2),
    "reciprocal": (-_v(XINV), MPoly.zero()),
}


def _st_case(f: Sym, tau: MPoly, y: Sym, e: int, rho: int):
    # sigma = r*f/(1 + mu*f), tau = (w/2)*tau/(1 + mu*f), mu free
    fixed = {E: MPoly.const(e), RHO: MPoly.const(rho), R: _QUARTER_W2}
    return _QUARTER_W2 * _v(f) * _v(y), _HALF_W * tau * _v(y), fixed


# sigma' = e*sigma*tau, tau' = e*tau^2 - mu*sigma + r: name -> (sigma, tau,
# the parameters the case fixes).  Case I is sigma = C/xi, tau = -1/(e*xi)
# at mu = r = 0 for any constant C (C = 1 here) and either sign e = +-1.
ST_CASES: dict[str, tuple[MPoly, MPoly, dict[Sym, MPoly]]] = {
    "I": (_v(XINV), -_v(E) * _v(XINV), {MU: MPoly.zero(), R: MPoly.zero()}),
    "II-sec": _st_case(SEC, _v(TAN), YSEC, 1, -1),
    "II-csc": _st_case(CSC, -_v(COT), YCSC, 1, -1),
    "III": _st_case(SECH, _v(TANH), YSECH, -1, -1),
    "IV": _st_case(CSCH, _v(COTH), YCSCH, -1, 1),
}


def _rule_residuals(
    form: dict[Sym, MPoly], fixed: Mapping[Sym, MPoly], rules: Mapping[Sym, MPoly]
) -> list[MPoly]:
    # d/dxi of each auxiliary function minus its rule at the closed form
    at = {**form, **fixed}
    d = {s: RULES[s] for s in _closure(*form.values())}
    return [reduced(form[s].derive(d) - rules[s].substitute(at)) for s in rules]


def phi_residual(phi: MPoly, k: MPoly) -> MPoly:
    """phi' - (k + phi^2), reduced: 0 proves that ``phi`` solves the tanh
    rule."""
    return _rule_residuals({PHI: phi}, {K: k}, TANH_RULES)[0]


def st_residuals(sigma: MPoly, tau: MPoly, fixed: Mapping[Sym, MPoly]) -> list[MPoly]:
    """Both projective rules at (sigma, tau) and, for r != 0, the first
    integral r*tau^2 - R_TAU2, reduced: all 0 proves that the pair solves
    them."""
    out = _rule_residuals({SIGMA: sigma, TAU: tau}, fixed, PRE_RULES)
    if fixed[R]:
        at = {SIGMA: sigma, TAU: tau, **fixed}
        out.append(reduced((_v(R) * _v(TAU) ** 2 - R_TAU2).substitute(at)))
    return out


def rebuild_from_branch(rec: SolutionRecord, m: int, xi: float) -> float:
    """Numeric u(xi) rebuilt from the generating branch: the parameter tuple
    specialized at lam = -6*m^4 (and the paper's signs) fed through the
    record's auxiliary form.

    The form's own w follows from the tuple: k = +-m^2/4 gives w = m, and
    r = m^2 gives w = 2m.  Every parameter the form fixes must equal the
    tuple's exactly; the rebuilt polynomial is then evaluated in binary64.
    Raises ValueError for the records without a cataloged form.
    """
    if rec.aux_form is None:
        raise ValueError(f"{rec.id} has no cataloged auxiliary form")
    asg = {**rec.specialize(m), **PAPER_SIGNS}
    if rec.method == "tanh":
        phi, k = PHI_FORMS[rec.aux_form]
        w, fixed = m, {K: k}
        u = phi**2 * asg[a(2)] + phi * asg[a(1)] + asg[a(0)]
    else:
        sigma, tau, fixed = ST_CASES[rec.aux_form]
        w = 2 * m
        u = sigma * asg[a(1)] + tau * asg[b(1)] + asg[a(0)]
    if any(v.substitute({W: w}) != asg[s] for s, v in fixed.items()):
        raise ValueError(f"{rec.id}: the parameter tuple does not fit the {rec.aux_form} form")
    params = {s: float(v) for s, v in asg.items()}
    return eval_float(u, function_values(_closure(u), w, xi, params))


# -- exact residual -----------------------------------------------------------


def reduced(p: MPoly) -> MPoly:
    """``p`` with its reciprocals cleared and its squares reduced.  Zero
    proves that ``p`` vanishes identically where it is defined.  The test
    decides zero when the trigonometric symbols of ``p``, each reciprocal
    counted by its denominator's, lie in one of {tan, sec}, {cot, csc} or
    {cotw, cscw}, and the hyperbolic ones in one of {tanh, sech} or
    {coth, csch}: within a pair the result is A(f) + g*B(f) with
    g^2 = 1 +- f^2, which vanishes only if A = B = 0, as 1 +- f^2 is not a
    square.  Across two pairs of one kind a nonzero result proves nothing,
    as no relation between them is applied (tan*cot - 1 stays as it is)."""
    for y, den in DENOMINATORS.items():
        if y in p.symbols():
            p = reduce_power(p, y, 1, lead=den, n=1)[0]
    for s, rel in SQUARES.items():
        if s in p.symbols():
            p = reduce_power(p, s, rel)[0]
    return p


def exact_residual(rec: SolutionRecord) -> MPoly:
    """The PDE residual of ``rec``, reduced: zero proves that the template
    solves the Ito equation for every lam < 0 (see :func:`reduced`)."""
    return reduced(MPoly.sum_of_products((term,) for _, term in residual_terms_for(rec)))


# -- residual sampling --------------------------------------------------------


# the sampling domain: xi = x + lam*t within +-XI_BAND/w and t in T_RANGE,
# evaluated at the drawn xi (x + lam*t in binary64 loses its digits at large
# |lam|); a form singular at the origin skips |xi| < XI_EXCLUSION/w.
# At most OVERSAMPLE draws per requested sample; a report passes when every
# sample's relative residual is within TOLERANCE.
XI_BAND = 1.2
XI_EXCLUSION = 0.05
T_RANGE = (-0.3, 0.3)
OVERSAMPLE = 50
TOLERANCE = 1e-6


class SamplePlan(NamedTuple):
    count: int = 20
    seed: int = 0


class SamplePoint(NamedTuple):
    xi: float
    t: float
    residual: float
    scale: float


class VerificationReport(NamedTuple):
    solution_id: str
    lam: float
    samples: tuple[SamplePoint, ...]
    max_relative_residual: float | None
    rejected_samples: int
    verdict: str  # pass | fail | inconclusive

    def as_json(self) -> dict:
        return {
            "id": self.solution_id,
            "lambda": self.lam,
            "accepted_samples": len(self.samples),
            "rejected_samples": self.rejected_samples,
            "max_relative_residual": self.max_relative_residual,
            "tolerance": TOLERANCE,
            "verdict": self.verdict,
        }


def _guard(v: float, bound: float = MAGNITUDE_GUARD) -> float:
    if not math.isfinite(v) or abs(v) > bound:
        raise PoleError("magnitude guard tripped")
    return v


def guard_bound(p: MPoly, w: float) -> float:
    """The magnitude bound of ``p`` at ``w``: MAGNITUDE_GUARD * w^d, d the
    degree of ``p`` in w, or inf when that power overflows.  The templates
    and their PDE terms are homogeneous in w, so the bound keeps the same
    distance from the poles at every wave speed, below w = 1 too."""
    try:
        return MAGNITUDE_GUARD * w ** p.max_exponent(W)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=256)
def _float_terms(p: MPoly) -> tuple[tuple[float, tuple[tuple[Sym, int], ...]], ...]:
    """``p`` compiled once for binary64: each term's float coefficient and
    its (symbol, exponent) pairs in symbol order; raises PoleError when a
    coefficient overflows a float."""
    try:
        return tuple((c / p.den, exps_of(k)) for k, c in p.terms.items())
    except OverflowError as exc:
        raise PoleError(str(exc)) from exc


def eval_float(p: MPoly, point: Mapping[Sym, float], bound: float = MAGNITUDE_GUARD) -> float:
    """binary64 value of ``p`` at ``point``; raises PoleError when a
    monomial, a term or the sum leaves ``bound`` in magnitude (an inf bound
    only asks for finite values) or overflows a float."""
    # with the bound clamped to the largest float, -lim <= v <= lim is
    # false exactly when v is nan, infinite or above the bound in magnitude
    lim = min(bound, sys.float_info.max)
    total = []
    try:
        for c, factors in _float_terms(p):
            v = 1.0
            for s, e in factors:
                v *= point[s] ** e
            if not (-lim <= v <= lim and -lim <= (v := c * v) <= lim):
                raise PoleError("magnitude guard tripped")
            total.append(v)
        v = math.fsum(total)
    except OverflowError as exc:
        raise PoleError(str(exc)) from exc
    if not -lim <= v <= lim:
        raise PoleError("magnitude guard tripped")
    return v


@lru_cache(maxsize=64)
def residual_terms_for(rec: SolutionRecord) -> tuple[tuple[str, MPoly], ...]:
    """The five named PDE terms of ``rec`` in the Ito equation at
    lam = -6*w^4, made once per record."""
    terms = ode_terms(ito(), rec.template, rec.rules)
    return tuple((name, term.substitute({LAM: _W**4 * -6})) for name, term in terms)


def wave_number(lam: float) -> float:
    """w = (-lam/6)^(1/4) at ``lam``; ValueError unless lam < 0 (real-valued
    templates) and w > 0, which fails where -lam/6 underflows to 0."""
    if not lam < 0:
        raise ValueError(f"the templates need lambda < 0, got {lam!r}")
    w = (-lam / 6.0) ** 0.25
    if not w > 0:
        raise ValueError(f"lambda = {lam!r} is too close to 0: -lambda/6 underflows to 0")
    return w


def _sample(key: str, w: float, singular: bool, count: int, evaluate: Callable):
    """Draw (xi, t) in the sampling domain with the seed ``key`` until
    ``count`` draws are accepted or the OVERSAMPLE budget is spent.

    A singular form skips the origin-exclusion zone (t is then not drawn);
    the band and the zone both shrink with w, so the zone never covers the
    band.  A draw is accepted with ``evaluate(xi)`` unless that raises
    PoleError or overflows.  Returns ([(xi, t, value)], rejected)."""
    rng = random.Random(key)
    accepted = []
    rejected = 0
    for _ in range(count * OVERSAMPLE):
        if len(accepted) >= count:
            break
        xi = rng.uniform(-XI_BAND, XI_BAND) / w
        if singular and abs(xi) * w < XI_EXCLUSION:
            continue
        t = rng.uniform(*T_RANGE)
        try:
            accepted.append((xi, t, evaluate(xi)))
        except (PoleError, OverflowError):
            rejected += 1
    return accepted, rejected


def sample_report(sid: str, lam: float, plan: SamplePlan = SamplePlan()) -> VerificationReport:
    """Sample the PDE residual of a catalog solution at random valid points.

    Requires at least ``plan.count`` accepted samples within a fixed
    oversampling budget; reports the maximum relative residual against the
    per-sample scale max|term|, which follows the terms down to any small
    |lam|.  A draw whose terms are all 0 has no scale and is rejected, and
    so is every draw once w^d (d the terms' degree in w) leaves the normal
    float range, where the terms keep fewer than 53 bits.
    """
    w = wave_number(lam)
    rec = get_solution(sid)
    terms = [term for _, term in residual_terms_for(rec)]
    bounds = [guard_bound(term, w) for term in terms]
    degree = max(term.max_exponent(W) for term in terms)
    # (w < 1 is tested first: the power overflows at large w)
    underflows = w < 1.0 and w**degree < sys.float_info.min

    def evaluate(xi: float) -> tuple[float, float]:
        if underflows:
            raise PoleError("the PDE terms underflow")
        point = rec.values(w, xi)
        values = [eval_float(term, point, bound) for term, bound in zip(terms, bounds)]
        scale = max(abs(v) for v in values)
        if not scale:
            raise PoleError("every PDE term is 0")
        return math.fsum(values), scale

    drawn, rejected = _sample(
        f"{plan.seed}:{rec.id}:{lam!r}", w, rec.singular_at_origin, plan.count, evaluate
    )
    samples = tuple(SamplePoint(xi, t, *value) for xi, t, value in drawn)
    if len(samples) < plan.count:
        return VerificationReport(rec.id, lam, samples, None, rejected, "inconclusive")
    max_rel = max(abs(s.residual) / s.scale for s in samples)
    verdict = "pass" if max_rel <= TOLERANCE else "fail"
    return VerificationReport(rec.id, lam, samples, max_rel, rejected, verdict)


def pointwise_compare(
    sid1: str, sid2: str, lam: float, plan: SamplePlan = SamplePlan()
) -> tuple[float, int]:
    """Max relative pointwise difference of two templates at shared samples.

    A sample's difference |v1 - v2| is relative to max(|v1|, |v2|), so it
    reads the same at any |lam|; a draw where both templates are 0 has no
    scale and is rejected.  Returns (max_relative_difference, samples_used)."""
    w = wave_number(lam)
    r1, r2 = get_solution(sid1), get_solution(sid2)
    bound1, bound2 = guard_bound(r1.template, w), guard_bound(r2.template, w)
    syms = _closure(r1.template, r2.template)

    def evaluate(xi: float) -> float:
        point = function_values(syms, w, xi)
        v1, v2 = eval_float(r1.template, point, bound1), eval_float(r2.template, point, bound2)
        scale = max(abs(v1), abs(v2))
        if not scale:
            raise PoleError("both templates are 0")
        return abs(v1 - v2) / scale

    drawn, _ = _sample(
        f"{plan.seed}:{r1.id}:{r2.id}:{lam!r}",
        w,
        r1.singular_at_origin or r2.singular_at_origin,
        plan.count,
        evaluate,
    )
    return max((d for _, _, d in drawn), default=0.0), len(drawn)
