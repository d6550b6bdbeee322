"""Elementary expression trees, the PDE residual operator, and the catalog
of ten closed-form traveling-wave solutions of the Ito equation.

Expressions are small immutable trees over rationals, the coordinates x, t,
xi, and parameter symbols.  The function set (tan, cot, sec, csc and their
hyperbolic partners) is closed under differentiation via the usual identity
table, so symbolic derivatives of any catalog template stay inside the
language.  Evaluation is plain binary64 with a magnitude guard: anything
that grows past 1e6 counts as a pole and the sample is rejected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .equation import EquationSpec, ito
from .errors import DomainError, PoleError
from .symbols import K, LAM, MU, R, Sym, a, b

MAGNITUDE_GUARD = 1e6


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Coord(Expr):
    name: str  # x | t | xi


@dataclass(frozen=True)
class Param(Expr):
    sym: Sym


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Mul(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class IntPow(Expr):
    base: Expr
    n: int


@dataclass(frozen=True)
class Root(Expr):
    base: Expr
    degree: int  # 2 or 4


@dataclass(frozen=True)
class Fn(Expr):
    name: str
    arg: Expr


FN_NAMES = ("tan", "cot", "sec", "csc", "tanh", "coth", "sech", "csch")

# Constructors hash-cons their results: structurally identical nodes built
# through them share identity, which the evaluator's memo and the derivative
# cache both exploit.  The table holds strong references, so node ids stay
# valid as keys.
_INTERN: dict = {}


def _interned(key, build):
    hit = _INTERN.get(key)
    if hit is None:
        hit = build()
        _INTERN[key] = hit
    return hit


def const(v) -> Const:
    v = Fraction(v)
    return _interned(("const", v), lambda: Const(v))


ZERO = const(0)
ONE = const(1)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def add(*args: Expr) -> Expr:
    flat: list[Expr] = []
    c = Fraction(0)
    for g in args:
        if isinstance(g, Add):
            flat.extend(g.args)
        else:
            flat.append(g)
    out: list[Expr] = []
    for g in flat:
        if isinstance(g, Const):
            c += g.value
        else:
            out.append(g)
    if c != 0:
        out.append(const(c))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    args = tuple(out)
    return _interned(("add", tuple(map(id, args))), lambda: Add(args))


def mul(*args: Expr) -> Expr:
    flat: list[Expr] = []
    c = Fraction(1)
    for g in args:
        if isinstance(g, Mul):
            flat.extend(g.args)
        else:
            flat.append(g)
    out: list[Expr] = []
    for g in flat:
        if isinstance(g, Const):
            c *= g.value
        else:
            out.append(g)
    if c == 0:
        return ZERO
    if c != 1:
        out.insert(0, const(c))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    args = tuple(out)
    return _interned(("mul", tuple(map(id, args))), lambda: Mul(args))


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return _interned(("neg", id(e)), lambda: Neg(e))


def sub(p: Expr, q: Expr) -> Expr:
    return add(p, neg(q))


def div(num: Expr, den: Expr) -> Expr:
    if is_zero(num):
        return ZERO
    if isinstance(den, Const):
        if den.value == 0:
            raise ZeroDivisionError("syntactically zero denominator")
        return mul(const(1 / den.value), num)
    return _interned(("div", id(num), id(den)), lambda: Div(num, den))


def intpow(base: Expr, n: int) -> Expr:
    if n < 0:
        raise ValueError("use Div for negative powers")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        return const(base.value**n)
    if isinstance(base, IntPow):
        return intpow(base.base, base.n * n)
    return _interned(("pow", id(base), n), lambda: IntPow(base, n))


def root(base: Expr, degree: int) -> Expr:
    if degree not in (2, 4):
        raise ValueError("root degree must be 2 or 4")
    return _interned(("root", id(base), degree), lambda: Root(base, degree))


def fn(name: str, arg: Expr) -> Expr:
    if name not in FN_NAMES:
        raise ValueError(f"unknown function {name!r}")
    return _interned(("fn", name, id(arg)), lambda: Fn(name, arg))


# derivative of each function in terms of the closed set
def _fn_derivative(name: str, u: Expr) -> Expr:
    if name == "tan":
        return add(ONE, intpow(fn("tan", u), 2))
    if name == "cot":
        return neg(add(ONE, intpow(fn("cot", u), 2)))
    if name == "sec":
        return mul(fn("sec", u), fn("tan", u))
    if name == "csc":
        return neg(mul(fn("csc", u), fn("cot", u)))
    if name == "tanh":
        return sub(ONE, intpow(fn("tanh", u), 2))
    if name == "coth":
        return sub(ONE, intpow(fn("coth", u), 2))
    if name == "sech":
        return neg(mul(fn("sech", u), fn("tanh", u)))
    if name == "csch":
        return neg(mul(fn("csch", u), fn("coth", u)))
    raise ValueError(name)


# (id, var) -> (source node kept alive, derivative); the strong reference to
# the source keeps its id from being recycled under the key
_DIFF_MEMO: dict[tuple[int, str], tuple[Expr, Expr]] = {}


def differentiate(f: Expr, v: str) -> Expr:
    """Exact symbolic derivative w.r.t. a coordinate; constant folding only."""
    key = (id(f), v)
    hit = _DIFF_MEMO.get(key)
    if hit is not None:
        return hit[1]
    df = _differentiate(f, v)
    _DIFF_MEMO[key] = (f, df)
    return df


def _differentiate(f: Expr, v: str) -> Expr:
    if isinstance(f, (Const, Param)):
        return ZERO
    if isinstance(f, Coord):
        return ONE if f.name == v else ZERO
    if isinstance(f, Neg):
        return neg(differentiate(f.arg, v))
    if isinstance(f, Add):
        return add(*(differentiate(g, v) for g in f.args))
    if isinstance(f, Mul):
        parts = []
        for i, g in enumerate(f.args):
            dg = differentiate(g, v)
            if is_zero(dg):
                continue
            parts.append(mul(*f.args[:i], dg, *f.args[i + 1 :]))
        return add(*parts)
    if isinstance(f, Div):
        dn = differentiate(f.num, v)
        dd = differentiate(f.den, v)
        if is_zero(dd):
            return div(dn, f.den)
        return div(sub(mul(dn, f.den), mul(f.num, dd)), intpow(f.den, 2))
    if isinstance(f, IntPow):
        db = differentiate(f.base, v)
        if is_zero(db):
            return ZERO
        return mul(const(f.n), intpow(f.base, f.n - 1), db)
    if isinstance(f, Root):
        db = differentiate(f.base, v)
        if is_zero(db):
            return ZERO
        return div(db, mul(const(f.degree), intpow(root(f.base, f.degree), f.degree - 1)))
    if isinstance(f, Fn):
        du = differentiate(f.arg, v)
        if is_zero(du):
            return ZERO
        return mul(_fn_derivative(f.name, f.arg), du)
    raise TypeError(f"not an Expr: {f!r}")


def nth_derivative(f: Expr, v: str, n: int) -> Expr:
    for _ in range(n):
        f = differentiate(f, v)
    return f


def _guard(v: float) -> float:
    if not math.isfinite(v) or abs(v) > MAGNITUDE_GUARD:
        raise PoleError("magnitude guard tripped")
    return v


def evaluate(f: Expr, env: Mapping) -> float:
    """binary64 evaluation; raises PoleError near poles/overflow and
    DomainError on a negative radicand.  Coordinates are keyed by name,
    parameters by Sym."""
    return evaluate_many([f], env)[0]


def evaluate_many(exprs, env: Mapping) -> list[float]:
    """Evaluate several expressions over one environment.

    Derivative trees share subtrees aggressively (the product rule reuses
    its factors), so results are memoized by node identity within the call.
    """
    memo: dict[int, float] = {}
    try:
        return [_eval(f, env, memo) for f in exprs]
    except (ZeroDivisionError, OverflowError) as exc:
        raise PoleError(str(exc)) from exc


def _eval(f: Expr, env: Mapping, memo: dict[int, float]) -> float:
    key = id(f)
    hit = memo.get(key)
    if hit is not None:
        return hit
    v = _eval_node(f, env, memo)
    memo[key] = v
    return v


def _eval_node(f: Expr, env: Mapping, memo: dict[int, float]) -> float:
    if isinstance(f, Const):
        return float(f.value)
    if isinstance(f, Coord):
        return float(env[f.name])
    if isinstance(f, Param):
        return float(env[f.sym])
    if isinstance(f, Neg):
        return -_eval(f.arg, env, memo)
    if isinstance(f, Add):
        return _guard(math.fsum(_eval(g, env, memo) for g in f.args))
    if isinstance(f, Mul):
        v = 1.0
        for g in f.args:
            v = _guard(v * _eval(g, env, memo))
        return v
    if isinstance(f, Div):
        return _guard(_eval(f.num, env, memo) / _eval(f.den, env, memo))
    if isinstance(f, IntPow):
        return _guard(_eval(f.base, env, memo) ** f.n)
    if isinstance(f, Root):
        v = _eval(f.base, env, memo)
        if v < 0:
            raise DomainError(f"negative radicand {v}")
        return v ** (1.0 / f.degree)
    if isinstance(f, Fn):
        u = _eval(f.arg, env, memo)
        if f.name == "tan":
            v = math.tan(u)
        elif f.name == "cot":
            v = math.cos(u) / math.sin(u)
        elif f.name == "sec":
            v = 1.0 / math.cos(u)
        elif f.name == "csc":
            v = 1.0 / math.sin(u)
        elif f.name == "tanh":
            v = math.tanh(u)
        elif f.name == "coth":
            v = math.cosh(u) / math.sinh(u)
        elif f.name == "sech":
            v = 1.0 / math.cosh(u)
        else:
            v = 1.0 / math.sinh(u)
        return _guard(v)
    raise TypeError(f"not an Expr: {f!r}")


def pde_residual_terms(spec: EquationSpec, u: Expr) -> list[tuple[str, Expr]]:
    """The five PDE terms, each addressable for the scale computation."""
    ux = differentiate(u, "x")
    uxx = differentiate(ux, "x")
    uxxx = differentiate(uxx, "x")
    ux5 = differentiate(differentiate(uxxx, "x"), "x")
    return [
        ("u_t", differentiate(u, "t")),
        ("omega*u_xxxxx", mul(const(spec.omega), ux5)),
        ("alpha*u^2*u_x", mul(const(spec.alpha), intpow(u, 2), ux)),
        ("beta*u_x*u_xx", mul(const(spec.beta), ux, uxx)),
        ("gamma*u*u_xxx", mul(const(spec.gamma), u, uxxx)),
    ]


def pde_residual(spec: EquationSpec, u: Expr) -> Expr:
    return add(*(t for _, t in pde_residual_terms(spec, u)))


# -- the ten-solution catalog -------------------------------------------------

WaveParams = tuple[tuple[Sym, Fraction, int], ...]  # (sym, coeff, power of q)


@dataclass(frozen=True)
class SolutionRecord:
    """One closed-form solution template, parameterized by the wave speed.

    ``params`` records the generating parameter tuple as coeff * q**power
    with q = sqrt(-lam/6); at lam = -6*m^4 every entry is the exact rational
    coeff * m**(2*power).  ``aux_form`` names the auxiliary-function shape
    that rebuilds the template from the parameters (a phi form for the tanh
    method, a sigma-tau case for the projective method); it is None for the
    two negative-r records, whose printed hyperbolic shapes do not match any
    cataloged sign combination and are validated through their templates and
    the cross-method identities instead.
    """

    id: str
    method: str  # tanh | pre
    anchor: str  # source branch letter a-d / roman i-Vi
    template: Expr
    params: WaveParams
    singular_at_origin: bool
    aux_form: str | None = None

    def specialize(self, m: int) -> dict[Sym, Fraction]:
        """Exact parameter values at lam = -6*m^4 (where q = m*m)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        q = Fraction(m * m)
        out = {s: c * q**p for s, c, p in self.params}
        out[LAM] = Fraction(-6) * m**4
        return out


def _catalog() -> tuple[SolutionRecord, ...]:
    lam = Param(LAM)
    mlam6 = mul(const(Fraction(-1, 6)), lam)
    q = root(mlam6, 2)
    quarter = root(mlam6, 4)
    xi = add(Coord("x"), mul(lam, Coord("t")))
    half = mul(const(Fraction(1, 2)), quarter, xi)
    full = mul(quarter, xi)

    def tanh_like(sign: Fraction, inner_sign: int, name: str) -> Expr:
        return mul(
            const(sign),
            q,
            add(const(2), mul(const(3 * inner_sign), intpow(fn(name, half), 2))),
        )

    def pre_ratio(num_c: int, den_c: int) -> Expr:
        return mul(
            const(Fraction(5, 2)),
            q,
            div(
                add(ONE, mul(const(num_c), fn("csc", full))),
                add(ONE, mul(const(den_c), fn("csc", full))),
            ),
        )

    def pre_square(outer: Fraction, inner: int, name: str) -> Expr:
        return mul(
            const(outer),
            q,
            add(ONE, mul(const(inner), intpow(fn(name, half), 2))),
        )

    F = Fraction

    def P(*entries) -> WaveParams:
        return tuple((s, F(c), p) for s, c, p in entries)

    tanh_neg = P((a(0), -5, 1), (a(1), 0, 0), (a(2), -30, 0), (K, F(1, 4), 1))
    tanh_pos = P((a(0), 5, 1), (a(1), 0, 0), (a(2), -30, 0), (K, F(-1, 4), 1))
    pre_i = P((a(0), F(5, 2), 1), (a(1), 15, 0), (b(1), 0, 0), (MU, -1, 0), (R, 1, 1))
    pre_ii = P((a(0), F(5, 2), 1), (a(1), -15, 0), (b(1), 0, 0), (MU, 1, 0), (R, 1, 1))
    pre_v = P((a(0), F(-5, 2), 1), (a(1), -15, 0), (b(1), 0, 0), (MU, 1, 0), (R, -1, 1))
    pre_vi = P((a(0), F(-5, 2), 1), (a(1), 15, 0), (b(1), 0, 0), (MU, -1, 0), (R, -1, 1))

    return (
        SolutionRecord("u1", "tanh", "a", tanh_like(F(-5, 2), 1, "tan"), tanh_neg, False, "tan"),
        SolutionRecord("u2", "tanh", "b", tanh_like(F(-5, 2), 1, "cot"), tanh_neg, True, "cot"),
        SolutionRecord("u3", "tanh", "c", tanh_like(F(5, 2), -1, "tanh"), tanh_pos, False, "tanh"),
        SolutionRecord("u4", "tanh", "d", tanh_like(F(5, 2), -1, "coth"), tanh_pos, True, "coth"),
        SolutionRecord("u5", "pre", "i", pre_ratio(5, -1), pre_i, True, "II-csc"),
        SolutionRecord("u6", "pre", "ii", pre_ratio(-5, 1), pre_ii, True, "II-csc"),
        SolutionRecord("u7", "pre", "iii", pre_square(F(5, 2), -3, "sec"), pre_ii, False, "II-sec"),
        SolutionRecord("u8", "pre", "iv", pre_square(F(5, 2), -3, "csc"), pre_i, True, "II-sec"),
        SolutionRecord("u9", "pre", "V", pre_square(F(-5, 2), -3, "sech"), pre_v, False, None),
        SolutionRecord("u10", "pre", "Vi", pre_square(F(-5, 2), 3, "csch"), pre_vi, True, None),
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


def rebuild_from_branch(rec: SolutionRecord, m: int, xi: float) -> float:
    """Numeric u(xi) rebuilt from the generating branch: the parameter tuple
    specialized at lam = -6*m^4 fed through the record's auxiliary form.

    Restricted to grid wave speeds so the form parameters stay rational.
    Raises ValueError for the records without a cataloged form.
    """
    from .pre import STClosedForm, st_closed_form_eval
    from .tanh import PHI_CATALOG

    if rec.aux_form is None:
        raise ValueError(f"{rec.id} has no cataloged auxiliary form")
    asg = rec.specialize(m)
    if rec.method == "tanh":
        from .symbols import K, a

        k = asg[K]
        form = next(f for f in PHI_CATALOG if f.name == rec.aux_form)
        phi = form.value(float(k), xi)
        return float(asg[a(0)]) + float(asg[a(1)]) * phi + float(asg[a(2)]) * phi**2
    from .symbols import MU, R, a, b

    form = STClosedForm(rec.aux_form, e=1, rho=-1, mu=asg[MU], r=asg[R])
    sigma, tau = st_closed_form_eval(form, xi)
    return float(asg[a(0)]) + float(asg[a(1)]) * sigma + float(asg[b(1)]) * tau


# -- residual sampling --------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    count: int = 20
    seed: int = 0
    xi_band: float = 1.2
    xi_exclusion: float = 0.05
    t_range: tuple[float, float] = (-0.3, 0.3)
    oversample: int = 50
    tolerance: float = 1e-6


@dataclass(frozen=True)
class SamplePoint:
    x: float
    t: float
    residual: float
    scale: float


@dataclass(frozen=True)
class VerificationReport:
    solution_id: str
    lam: float
    samples: tuple[SamplePoint, ...]
    max_relative_residual: float | None
    rejected_samples: int
    verdict: str  # pass | fail | inconclusive
    tolerance: float

    def as_json(self) -> dict:
        return {
            "id": self.solution_id,
            "lambda": self.lam,
            "accepted_samples": len(self.samples),
            "rejected_samples": self.rejected_samples,
            "max_relative_residual": self.max_relative_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


_TERMS_CACHE: dict[tuple[str, EquationSpec], list[tuple[str, Expr]]] = {}


def residual_terms_for(rec: SolutionRecord, spec: EquationSpec | None = None):
    spec = spec or ito()
    key = (rec.id, spec)
    if key not in _TERMS_CACHE:
        _TERMS_CACHE[key] = pde_residual_terms(spec, rec.template)
    return _TERMS_CACHE[key]


def _draw(rec: SolutionRecord, lam: float, plan: SamplePlan, rng: random.Random):
    """One candidate (x, t) in the sampling domain, or None if the draw fell
    in the origin-exclusion zone of a singular form."""
    scale4 = (-lam / 6.0) ** 0.25
    xi = rng.uniform(-plan.xi_band, plan.xi_band) / scale4
    if rec.singular_at_origin and abs(xi) < plan.xi_exclusion:
        return None
    t = rng.uniform(*plan.t_range)
    return xi - lam * t, t


def sample_report(
    sid: str,
    lam: float,
    plan: SamplePlan = SamplePlan(),
    spec: EquationSpec | None = None,
) -> VerificationReport:
    """Sample the PDE residual of a catalog solution at random valid points.

    Requires at least ``plan.count`` accepted samples within a fixed
    oversampling budget; reports the maximum relative residual against the
    per-sample term-magnitude scale.
    """
    if lam >= 0:
        raise ValueError("verification requires lam < 0 (real-valued templates)")
    rec = get_solution(sid)
    terms = residual_terms_for(rec, spec)
    rng = random.Random(f"{plan.seed}:{rec.id}:{lam!r}")
    samples: list[SamplePoint] = []
    rejected = 0
    for _ in range(plan.count * plan.oversample):
        if len(samples) >= plan.count:
            break
        drawn = _draw(rec, lam, plan, rng)
        if drawn is None:
            continue
        x, t = drawn
        env = {"x": x, "t": t, LAM: lam}
        try:
            values = evaluate_many([expr for _, expr in terms], env)
        except (PoleError, DomainError):
            rejected += 1
            continue
        scale = 1.0 + max(abs(v) for v in values)
        samples.append(SamplePoint(x, t, math.fsum(values), scale))
    if len(samples) < plan.count:
        return VerificationReport(
            rec.id, lam, tuple(samples), None, rejected, "inconclusive", plan.tolerance
        )
    max_rel = max(abs(s.residual) / s.scale for s in samples)
    verdict = "pass" if max_rel <= plan.tolerance else "fail"
    return VerificationReport(
        rec.id, lam, tuple(samples), max_rel, rejected, verdict, plan.tolerance
    )


def pointwise_compare(
    sid1: str, sid2: str, lam: float, plan: SamplePlan = SamplePlan()
) -> tuple[float, int]:
    """Max relative pointwise difference of two templates at shared samples.

    Returns (max_relative_difference, samples_used)."""
    if lam >= 0:
        raise ValueError("comparison requires lam < 0")
    r1, r2 = get_solution(sid1), get_solution(sid2)
    rng = random.Random(f"{plan.seed}:{r1.id}:{r2.id}:{lam!r}")
    singular = r1.singular_at_origin or r2.singular_at_origin
    probe = r1 if r1.singular_at_origin else r2
    worst = 0.0
    used = 0
    for _ in range(plan.count * plan.oversample):
        if used >= plan.count:
            break
        drawn = _draw(probe if singular else r1, lam, plan, rng)
        if drawn is None:
            continue
        x, t = drawn
        env = {"x": x, "t": t, LAM: lam}
        try:
            v1, v2 = evaluate_many([r1.template, r2.template], env)
        except (PoleError, DomainError):
            continue
        worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1), abs(v2)))
        used += 1
    return worst, used


# -- rendering ----------------------------------------------------------------


def _latex_wrap(e: Expr, body: str) -> str:
    if isinstance(e, (Add, Neg)) or (isinstance(e, Const) and e.value < 0):
        return rf"\left({body}\right)"
    return body


def latex_expr(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return str(v.numerator)
        sign = "-" if v < 0 else ""
        return rf"{sign}\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"
    if isinstance(e, Coord):
        return {"xi": r"\xi"}.get(e.name, e.name)
    if isinstance(e, Param):
        return e.sym.latex()
    if isinstance(e, Neg):
        return "-" + _latex_wrap(e.arg, latex_expr(e.arg))
    if isinstance(e, Add):
        out = latex_expr(e.args[0])
        for g in e.args[1:]:
            body = latex_expr(g)
            out += body if body.startswith("-") else " + " + body
        return out
    if isinstance(e, Mul):
        return r" \, ".join(_latex_wrap(g, latex_expr(g)) for g in e.args)
    if isinstance(e, Div):
        return rf"\frac{{{latex_expr(e.num)}}}{{{latex_expr(e.den)}}}"
    if isinstance(e, IntPow):
        if isinstance(e.base, Fn):
            head = _fn_latex(e.base.name)
            return rf"{head}^{{{e.n}}}\!\left({latex_expr(e.base.arg)}\right)"
        return rf"{_latex_wrap(e.base, latex_expr(e.base))}^{{{e.n}}}"
    if isinstance(e, Root):
        idx = "" if e.degree == 2 else f"[{e.degree}]"
        return rf"\sqrt{idx}{{{latex_expr(e.base)}}}"
    if isinstance(e, Fn):
        return rf"{_fn_latex(e.name)}\!\left({latex_expr(e.arg)}\right)"
    raise TypeError(f"not an Expr: {e!r}")


def _fn_latex(name: str) -> str:
    if name in ("sech", "csch"):
        return rf"\operatorname{{{name}}}"
    return "\\" + name


def param_latex(params: WaveParams) -> str:
    parts = []
    for s, c, p in params:
        if p == 0:
            val = latex_expr(Const(c))
        elif c == 1:
            val = r"\sqrt{-\lambda/6}"
        elif c == -1:
            val = r"-\sqrt{-\lambda/6}"
        else:
            val = latex_expr(Const(c)) + r"\sqrt{-\lambda/6}"
        parts.append(f"{s.latex()} = {val}")
    return ",\\; ".join(parts)
