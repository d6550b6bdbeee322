import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from fkdv import closedform, poly
from fkdv.closedform import (
    DENOMINATORS,
    MAGNITUDE_GUARD,
    SQUARES,
    SamplePlan,
    SolutionRecord,
    catalog,
    eval_float,
    exact_residual,
    function_values,
    get_solution,
    guard_bound,
    pointwise_compare,
    rebuild_from_branch,
    reduced,
    residual_terms_for,
    sample_report,
)
from fkdv.equation import EquationSpec, ito, ode_residual
from fkdv.errors import PoleError
from fkdv.poly import MPoly, exps_of, monomial, reduce_power
from fkdv.pre import build_pre_ansatz, pre_ode_residual
from fkdv.reproduce import check_identities, run_reproduce
from fkdv.symbols import (
    COT, COTH, COTW, CSC, CSCH, CSCW, E, LAM, MU, SEC, SECH, TAN, TANH, TAU, W, YM, YP, YSEC,
    Sym, a,
)

_W = MPoly.var(W)
FUNCTION_SYMBOLS = sorted({s for rec in catalog() for s in rec.rules}, key=lambda s: s.key)


def _point(rec, w, xi):
    point = rec.values(w, xi)
    point[W] = w
    return point


def _value(rec, p, xi, lam=-6.0):
    return eval_float(p, _point(rec, (-lam / 6.0) ** 0.25, xi))


def _at_lambda(p):
    return p.substitute({LAM: _W**4 * -6})


def _with_template(rec, template):
    """A new record like ``rec`` with another template (its rules follow)."""
    return SolutionRecord(rec.id, rec.method, rec.anchor, template, rec.params, rec.aux_form)


# ---------------------------------------------------------------- rule tables


def test_derivative_of_tan_stays_in_the_function_set():
    rule = get_solution("u1").rules[TAN]
    assert rule == _W * F(1, 2) * (1 + MPoly.var(TAN) ** 2)


def test_derivative_of_constant():
    rules = get_solution("u5").rules
    assert MPoly.const(F(3, 7)).derive(rules).is_zero()
    assert eval_float(MPoly.const(5).derive(rules), {}) == 0.0


def test_rule_tables_close_over_their_symbols():
    for rec in catalog():
        assert rec.template.symbols() - {W} <= rec.rules.keys()
        for rule in rec.rules.values():
            assert rule.symbols() - {W} <= rec.rules.keys()
        assert 1 <= len(rec.rules) <= 3


@pytest.mark.parametrize("sym", FUNCTION_SYMBOLS, ids=lambda s: s.name)
def test_derivative_identities_numerically(sym):
    # each rule, evaluated on the float map, is the derivative of that map
    rec = next(r for r in catalog() if sym in r.rules)
    h = 1e-5
    for w in (1.0, 0.8):
        for xi in (0.35, 0.8, 1.1):
            up, down = rec.values(w, xi + h)[sym], rec.values(w, xi - h)[sym]
            exact = eval_float(rec.rules[sym], _point(rec, w, xi))
            assert exact == pytest.approx((up - down) / (2 * h), rel=1e-7, abs=1e-7)


def test_traveling_wave_identity():
    # u(x, t) = v(x + lam*t), so u_t = lam * u_x pointwise
    rng = random.Random(2)
    h = 1e-6
    for rec in catalog():
        (name, ut), *_ = residual_terms_for(rec)
        assert name == "u_t"
        checked = 0
        while checked < 20:
            x, t = rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2)
            if rec.singular_at_origin and abs(x - 6.0 * t) < 0.1:
                continue
            try:
                up = _value(rec, rec.template, x - 6.0 * (t + h))
                down = _value(rec, rec.template, x - 6.0 * (t - h))
                exact = _value(rec, ut, x - 6.0 * t)
            except PoleError:
                continue
            assert abs(exact - (up - down) / (2 * h)) <= 1e-5 * max(1.0, abs(exact))
            checked += 1


_STEPS = {1: 1e-3, 2: 1e-3, 3: 1e-3, 4: 1e-2, 5: 1e-2}


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_derivatives_match_finite_differences(order):
    # sixth-order central stencil on the previous derivative; the step
    # follows the order (1e-2 from the fourth derivative up), and valid
    # points keep their distance from the singular forms' origin
    h = _STEPS[order]
    rng = random.Random(order)
    for rec in catalog():
        lower = rec.template
        for _ in range(order - 1):
            lower = lower.derive(rec.rules)
        target = lower.derive(rec.rules)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 1000:
            attempts += 1
            xi = rng.uniform(-1.2, 1.2)
            if rec.singular_at_origin and abs(xi) < 0.45:
                continue
            try:
                stencil = [_value(rec, lower, xi + s * h) for s in (-3, -2, -1, 1, 2, 3)]
                exact = _value(rec, target, xi)
            except PoleError:
                continue
            s0, s1, s2, s3, s4, s5 = stencil
            fd = (-s0 + 9 * s1 - 45 * s2 + 45 * s3 - 9 * s4 + s5) / (60 * h)
            scale = max(1.0, abs(exact), *(abs(v) for v in stencil))
            assert abs(fd - exact) <= 1e-6 * scale, (rec.id, order)
            checked += 1
        assert checked >= 20, (rec.id, order)


# ---------------------------------------------------------------- evaluate


def test_eval_u3_at_origin():
    rec = get_solution("u3")
    assert _value(rec, rec.template, 0.0) == 5.0


def test_eval_u1_at_origin():
    rec = get_solution("u1")
    assert _value(rec, rec.template, 0.0) == -5.0


def test_eval_u1_pole_rejected():
    rec = get_solution("u1")
    with pytest.raises(PoleError):
        _value(rec, rec.template, math.pi)


def test_eval_exact_pole_rejected():
    with pytest.raises(PoleError):
        get_solution("u2").values(1.0, 0.0)


def test_eval_magnitude_guard():
    # the guard applies to symbol values, monomials, terms and the sum
    with pytest.raises(PoleError):
        get_solution("u1").values(1.0, 2 * math.atan(2 * MAGNITUDE_GUARD))
    with pytest.raises(PoleError):
        eval_float(_W**3 * F(1, 10**7), {W: 1e4})
    with pytest.raises(PoleError):
        eval_float(_W * 10**7, {W: 1.0})
    with pytest.raises(PoleError):
        eval_float(_W * 600000 + 600000, {W: 1.0})
    assert eval_float(_W * 600000 - 600000, {W: 1.0}) == 0.0


def test_eval_bound_scales_but_the_pole_guard_stays_absolute():
    # sample_report raises the term bound with w; symbol values keep 1e6
    assert eval_float(_W * 10**7, {W: 1.0}, 1e8) == 1e7
    with pytest.raises(PoleError):
        eval_float(_W * 10**9, {W: 1.0}, 1e8)
    with pytest.raises(PoleError):
        get_solution("u1").values(10.0, 2 * math.atan(2 * MAGNITUDE_GUARD) / 10.0)
    # w itself is only checked for finiteness
    assert get_solution("u1").values(1e7, 0.1 / 1e7)[W] == 1e7
    with pytest.raises(PoleError):
        get_solution("u1").values(math.inf, 0.0)


def test_guard_bound_follows_the_degree_in_w():
    assert guard_bound(_W**3 + 1, 10.0) == MAGNITUDE_GUARD * 1e3
    # below w = 1 the bound shrinks with the polynomial
    assert guard_bound(_W**3 + 1, 0.5) == MAGNITUDE_GUARD * 0.125
    assert guard_bound(MPoly.const(7), 1e9) == MAGNITUDE_GUARD
    # a power past the float range makes the bound inf, and an evaluation
    # that overflows a float is a pole
    assert guard_bound(_W**7, 1e50) == math.inf
    with pytest.raises(PoleError):
        eval_float(_W**7, {W: 1e50}, math.inf)


def _reference_eval_float(p, point, bound=MAGNITUDE_GUARD):
    # the evaluator before compiled forms: it converted each coefficient
    # (the Fraction of its int over den), decoded each monomial and called
    # the guard at every point
    def guard(v, b):
        if not math.isfinite(v) or abs(v) > b:
            raise PoleError("magnitude guard tripped")
        return v

    total = []
    try:
        for k, c in p.terms.items():
            v = 1.0
            for s, e in exps_of(k):
                v *= point[s] ** e
            total.append(guard(float(F(c, p.den)) * guard(v, bound), bound))
    except OverflowError as exc:
        raise PoleError(str(exc)) from exc
    return guard(math.fsum(total), bound)


def _outcome(evaluate, *args):
    # the exact bits of the value, or "pole"; the reference let an overflow
    # inside the final fsum escape as OverflowError, which the sampler also
    # counted as a rejected draw, and the compiled evaluator raises PoleError
    try:
        return evaluate(*args).hex()
    except (PoleError, OverflowError):
        return "pole"


_EVAL_SYMS = (W, TAN, SEC)
_NEAR_OVERFLOW = [1e154, -1e154, 1.3e154, 1e307, -1.7e308, sys.float_info.max]
_COEFS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=10**9),
    st.integers(10**300, 10**320),
    st.fractions(min_value=F(10**300), max_value=F(10**310), max_denominator=10**9),
)
_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * len(_EVAL_SYMS)).map(
        lambda exps: monomial(zip(_EVAL_SYMS, exps))
    ),
    _COEFS,
    min_size=1,
    max_size=6,
).map(MPoly)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from(_NEAR_OVERFLOW),
)
_BOUNDS = st.one_of(
    st.sampled_from([MAGNITUDE_GUARD, math.inf, sys.float_info.max, 0.0, 1e300]),
    st.floats(0.0, math.inf, allow_nan=False),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_POLYS, _POLYS, st.tuples(*[_VALUES] * len(_EVAL_SYMS)), _BOUNDS)
def test_compiled_evaluation_matches_the_reference_bit_for_bit(p, q, values, bound):
    point = dict(zip(_EVAL_SYMS, values))
    # two polynomials at one point, each with its own bound, as the sampler
    # evaluates a record's terms; the second call of each reads the cache
    for poly, b in ((p, bound), (q, MAGNITUDE_GUARD)):
        expected = _outcome(_reference_eval_float, poly, point, b)
        assert _outcome(eval_float, poly, point, b) == expected
        assert _outcome(eval_float, poly, point, b) == expected


@pytest.mark.parametrize(
    ("p", "point"),
    [
        (_W * MPoly.var(TAN), {W: 1e200, TAN: 1e200}),  # a monomial
        (_W * 10**6, {W: 1e307}),  # a term
        (_W + MPoly.var(TAN), {W: 1e308, TAN: 1e308}),  # the sum
        (MPoly.const(10**400), {}),  # a coefficient
    ],
)
def test_an_overflow_is_a_pole_under_an_infinite_bound(p, point):
    with pytest.raises(PoleError):
        eval_float(p, point, math.inf)


def test_stored_forms_are_the_forms_compiled_on_the_fly():
    # the sampler compiles each polynomial it evaluates once (a record's
    # five PDE terms, a template, a reciprocal's denominator) and nothing
    # else; each stored form is the fresh one
    float_terms = closedform._float_terms
    float_terms.cache_clear()
    for rec in catalog():
        sample_report(rec.id, -6.0)
        pointwise_compare(rec.id, rec.id, -6.0)
    polys = [term for rec in catalog() for _, term in residual_terms_for(rec)]
    polys += [rec.template for rec in catalog()]
    polys += [den for y, den in DENOMINATORS.items() if y in FUNCTION_SYMBOLS]
    assert float_terms.cache_info().misses == len(set(polys)) == 62
    assert all(float_terms(p) == float_terms.__wrapped__(p) for p in polys)
    assert float_terms.cache_info().misses == len(set(polys))


def test_repeated_reports_compile_a_record_s_terms_once():
    terms = [term for _, term in residual_terms_for(get_solution("u3"))]
    float_terms = closedform._float_terms
    float_terms.cache_clear()
    for lam in (-6.0, -96.0, -6.0):
        assert sample_report("u3", lam).verdict == "pass"
    # u3 has no reciprocal, so its five terms are the only polynomials compiled
    assert float_terms.cache_info().misses == len(set(terms)) == 5
    assert [len(float_terms(t)) for t in terms] == [len(t.terms) for t in terms]
    assert float_terms.cache_info().misses == 5


def test_no_form_is_compiled_at_import():
    code = "import fkdv.cli, fkdv.closedform as c\nassert not c._float_terms.cache_info().currsize"
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------- residual


def test_pde_residual_of_constant_folds_to_zero():
    rules = get_solution("u1").rules
    assert ode_residual(ito(), MPoly.const(F(9, 2)), rules).is_zero()
    assert ode_residual(ito(), MPoly.zero(), rules).is_zero()


def test_pde_residual_u3_small_at_sample_point():
    rec = get_solution("u3")
    values = [_value(rec, term, 0.4 - 6.0 * 0.1) for _, term in residual_terms_for(rec)]
    scale = 1.0 + max(abs(v) for v in values)
    assert abs(math.fsum(values)) / scale < 1e-7


def test_pde_residual_has_five_addressable_terms():
    terms = residual_terms_for(get_solution("u5"))
    assert [name for name, _ in terms] == [
        "u_t",
        "omega*u_xxxxx",
        "alpha*u^2*u_x",
        "beta*u_x*u_xx",
        "gamma*u*u_xxx",
    ]
    assert all(LAM not in term.symbols() for _, term in terms)


@pytest.mark.parametrize("sid", [f"u{i}" for i in range(1, 11)])
def test_exact_residual_is_zero(sid):
    assert exact_residual(get_solution(sid)).is_zero()


@pytest.mark.parametrize("sid", ["u1", "u3", "u5", "u8"])
def test_wrong_a0_gives_nonzero_residual(sid):
    rec = get_solution(sid)
    shifted = _with_template(rec, rec.template + _W**2)
    assert not exact_residual(shifted).is_zero()


def clear_reciprocal(p: MPoly, y: Sym) -> MPoly:
    """``reduced``'s clearing of y = 1/den: the kernel rewrite by den*y = 1."""
    return reduce_power(p, y, 1, lead=DENOMINATORS[y], n=1)[0]


def reduce_squares(p: MPoly, squares: Mapping[Sym, MPoly]) -> MPoly:
    """``reduced``'s reduction of each s^2 = rel in turn: the kernel rewrite."""
    for s, rel in squares.items():
        p = reduce_power(p, s, rel)[0]
    return p


def _reduced_residual(rec, rules):
    p = _at_lambda(ode_residual(ito(), rec.template, rules))
    for y in rec.rules.keys() & {YM, YP}:
        p = clear_reciprocal(p, y)
    return reduce_squares(p, SQUARES)


@pytest.mark.parametrize("sid", ["u5", "u6", "u7", "u8", "u9", "u10"])
def test_wrong_rule_sign_gives_nonzero_residual(sid):
    rec = get_solution(sid)
    assert _reduced_residual(rec, rec.rules).is_zero()
    for sym in rec.rules:
        rules = {**rec.rules, sym: -rec.rules[sym]}
        assert not _reduced_residual(rec, rules).is_zero(), (sid, sym)


@pytest.mark.parametrize("sid", ["u1", "u2", "u3", "u4"])
def test_wrong_sign_inside_rule_gives_nonzero_residual(sid):
    # flipping a lone rule's sign only reflects xi, which the equation
    # allows, so flip the sign of its square term instead
    rec = get_solution(sid)
    ((sym, rule),) = rec.rules.items()
    constant = rule.substitute({sym: 0})
    wrong = constant * 2 - rule
    assert not _reduced_residual(rec, {sym: wrong}).is_zero()


def test_clear_reciprocal_multiplies_out_the_denominator():
    y, c = MPoly.var(YM), MPoly.var(CSCW)
    assert clear_reciprocal(y**2 * 3 + y, YM) == 3 + (1 - c)
    assert clear_reciprocal(c, YM) == c


def test_reduce_squares_leaves_degree_at_most_one():
    c, ct = MPoly.var(CSCW), MPoly.var(COTW)
    assert reduce_squares(c**5, {CSCW: SQUARES[CSCW]}) == c * (1 + ct**2) ** 2


# The reductions used to rebuild each polynomial with sum(..., MPoly.zero()),
# one copy of the term map per exponent group; now every part times its
# power's image is added into one term map by ``reduce_power``.  The previous
# reductions are kept here verbatim as the references.
_v = MPoly.var


def _reference_reduce_squares(p: MPoly, squares: Mapping[Sym, MPoly]) -> MPoly:
    """Rewrite s^(2q+e) as s^e * rel^q for each relation s^2 = rel, which
    leaves every such s of degree <= 1 (no rel contains its own s)."""
    for s, rel in squares.items():
        p = sum(
            (part * _v(s) ** (e % 2) * rel ** (e // 2) for (e,), part in p.split((s,)).items()),
            MPoly.zero(),
        )
    return p


def _reference_clear_reciprocal(p: MPoly, y: Sym) -> MPoly:
    """p * den^d with y = 1/den, where d is the degree of p in y: a
    polynomial free of y that vanishes exactly where p does."""
    den, d = DENOMINATORS[y], p.max_exponent(y)
    return sum(
        (part * den ** (d - e) for (e,), part in p.split((y,)).items()), MPoly.zero()
    )


_REDUCIBLE_SYMS = [SEC, TAN, CSC, COT, SECH, TANH, CSCH, COTH, CSCW, COTW, E, YM, YP, YSEC, MU, W]


@st.composite
def reducible_polys(draw):
    """Polynomials in the squared functions, their partners, reciprocals,
    e, mu and w, with exponents up to 5 and int or Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        syms = draw(st.lists(st.sampled_from(_REDUCIBLE_SYMS), max_size=3, unique=True))
        code = monomial({s: draw(st.integers(1, 5)) for s in syms})
        coef = draw(st.integers(-20, 20) | st.builds(F, st.integers(-20, 20), st.integers(1, 7)))
        terms[code] = terms.get(code, 0) + coef
    return MPoly(terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    reducible_polys(),
    st.sampled_from(list(DENOMINATORS)),
    st.sets(st.sampled_from(list(SQUARES))),
)
def test_reductions_match_the_previous_reductions(p, y, chosen):
    squares = {s: rel for s, rel in SQUARES.items() if s in chosen}
    assert reduce_squares(p, squares) == _reference_reduce_squares(p, squares)
    cleared, d = reduce_power(p, y, 1, lead=DENOMINATORS[y], n=1)
    assert cleared == _reference_clear_reciprocal(p, y)
    assert d == p.max_exponent(y) and cleared.max_exponent(y) == 0


def test_reduce_squares_rewrites_one_symbol_by_each_relation_given():
    # the images are cached per relation, not per symbol alone
    c, ct = MPoly.var(CSCW), MPoly.var(COTW)
    for rel in (1 + ct**2, ct**2 - 1, 1 + ct**2):
        assert reduce_squares(c**5, {CSCW: rel}) == c * rel**2


# (alpha, beta, gamma, omega) of the members perfbench's derive-sweep derives
SWEPT_MEMBERS = [(2, 6, 3, 1), (45, 15, 15, 1), (30, 20, 10, 1), (20, 25, 10, 1)]


def test_cached_images_equal_fresh_builds_after_a_reproduce_run(monkeypatch):
    # every image that the catalog reductions and tau elimination read in a
    # reproduce run and a depth 1-4 derive of the swept members equals a
    # fresh build from its key, so no caller mutates a shared image
    cached, keys = poly._image, set()
    monkeypatch.setattr(poly, "_image", lambda *key: keys.add(key) or cached(*key))
    assert run_reproduce().exit_code == 0
    for member in SWEPT_MEMBERS:
        for depth in range(1, 5):
            pre_ode_residual(EquationSpec(*map(F, member)), build_pre_ansatz(depth))
    assert {key[0] for key in keys} == {TAU, E, *SQUARES, *DENOMINATORS}
    for s, j, rel, q, lead, k in keys:
        image = cached(s, j, rel, q, lead, k)
        assert image == _v(s) ** j * rel**q * lead**k
        assert cached(s, j, rel, q, lead, k) is image


@pytest.mark.parametrize(("f", "g"), [(TAN, COT), (TANH, COTH)], ids=["tan", "tanh"])
def test_a_nonzero_reduction_proves_nothing(f, g):
    # f*g - 1 vanishes everywhere, but no relation between two function
    # symbols is applied, so it reduces to itself: a nonzero remainder proves
    # nothing until the zero test is complete (ROADMAP.md, "One half-angle
    # variable per closed form")
    p = MPoly.var(f) * MPoly.var(g) - 1
    assert reduced(p) == p and not p.is_zero()
    for xi in (0.3, -1.1, 2.5):
        assert abs(eval_float(p, function_values([f, g], 1.0, xi))) < 1e-15


# the pairs within one of which, per kind, a reduction decides zero
_TRIG_PAIRS = ({TAN, SEC}, {COT, CSC}, {COTW, CSCW})
_HYPERBOLIC_PAIRS = ({TANH, SECH}, {COTH, CSCH})


def _decides_zero(p):
    """True when the function symbols of p, each reciprocal counted by its
    denominator's, lie in one trigonometric and one hyperbolic pair (1/xi
    and the parameters are independent of both)."""
    syms = set(p.symbols())
    for y in syms & DENOMINATORS.keys():
        syms |= DENOMINATORS[y].symbols()
    return all(
        any(syms & set().union(*pairs) <= pair for pair in pairs)
        for pairs in (_TRIG_PAIRS, _HYPERBOLIC_PAIRS)
    )


def test_every_reduction_reproduce_makes_decides_zero(monkeypatch):
    # so each exact verdict reproduce prints is a decision, not only a proof
    # of the zero polynomial
    inputs = []

    def recording(p):
        inputs.append(p)
        return reduced(p)

    monkeypatch.setattr(closedform, "reduced", recording)
    assert run_reproduce().exit_code == 0
    assert len(inputs) == 33
    assert all(_decides_zero(p) for p in inputs)


def test_a_nonzero_reduction_within_one_pair_proves_u5_and_u6_differ():
    # cot(w*xi) and csc(w*xi) form one pair, so the nonzero remainder proves
    # that the two templates differ, exactly and without sampling
    diff = get_solution("u5").template - get_solution("u6").template
    assert _decides_zero(diff) and not _decides_zero(MPoly.var(TAN) * MPoly.var(COT))
    assert reduced(diff) == 30 * MPoly.var(W) ** 2 * MPoly.var(CSCW)


@pytest.mark.parametrize("pair", [("u7", "u1"), ("u8", "u2"), ("u9", "u3"), ("u10", "u4")])
def test_cross_method_identities_are_exact(pair):
    r1, r2 = get_solution(pair[0]), get_solution(pair[1])
    assert reduce_squares(r1.template - r2.template, SQUARES).is_zero()
    # and the two rule tables agree on the shared symbol
    shared = r1.rules.keys() & r2.rules.keys()
    assert shared and all(r1.rules[s] == r2.rules[s] for s in shared)


def test_a_mutated_template_fails_the_exact_checks(monkeypatch):
    assert check_identities() == (True, "u7 - u1, u8 - u2, u9 - u3, u10 - u4 reduce to 0")
    # u7 + w^2 is no longer u1, and no longer solves the PDE
    rec = get_solution("u7")
    mutant = _with_template(rec, rec.template + _W**2)
    monkeypatch.setattr(
        closedform, "get_solution", lambda sid: mutant if sid == "u7" else get_solution(sid)
    )
    ok, detail = check_identities()
    assert not ok and detail == "nonzero difference: u7 - u1"
    assert not exact_residual(mutant).is_zero()


# ---------------------------------------------------------------- catalog


def test_catalog_has_ten_records():
    recs = catalog()
    assert len(recs) == 10
    assert [r.id for r in recs] == [f"u{i}" for i in range(1, 11)]


def test_catalog_records_are_immutable():
    # residual_terms_for caches on the shared records by identity
    rec = get_solution("u1")
    for name in SolutionRecord.__slots__:
        with pytest.raises(AttributeError, match=f"^SolutionRecord is immutable: cannot change {name}$"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match="^SolutionRecord is immutable"):
            delattr(rec, name)
    assert rec.id == "u1" and rec.rules


def test_u5_anchor_and_params():
    rec = get_solution("u5")
    assert rec.anchor == "i" and rec.method == "pre"
    assert rec.params[a(1)] == MPoly.const(15)
    assert rec.params[MU] == MPoly.const(-1)


def test_u3_method_and_anchor():
    rec = get_solution("u3")
    assert rec.method == "tanh" and rec.anchor == "c"
    assert rec.params[a(0)] == _W**2 * 5  # 5 * sqrt(-lam/6)


def test_specialize_is_exact():
    asg = get_solution("u1").specialize(3)
    assert asg[a(0)] == F(-45) and asg[Sym("k")] == F(9, 4) and asg[LAM] == F(-486)


# ---------------------------------------------------------------- sampling


def test_sample_report_u3_passes():
    rep = sample_report("u3", -6.0)
    assert rep.verdict == "pass"
    assert len(rep.samples) >= 20
    assert rep.max_relative_residual <= 1e-6


def test_sample_report_reproducible():
    r1 = sample_report("u5", -6.0, SamplePlan(seed=42))
    r2 = sample_report("u5", -6.0, SamplePlan(seed=42))
    assert r1 == r2


def test_sample_report_requires_negative_lambda():
    with pytest.raises(ValueError):
        sample_report("u3", 1.0)


_SPEEDS = [-6.0, -2.5, -6e-4, -6e-8, -6e-20, -6e-100, -6e12]


@pytest.mark.parametrize("lam", _SPEEDS)
def test_every_record_passes_at_small_and_large_speeds(lam):
    # the guard bound 1e6 * w^d follows the terms below w = 1 too, so draws
    # keep the same distance from the poles and the worst residual stays at
    # the level of lam = -6 (a bound held at 1e6 let it reach 3e-10)
    for rec in catalog():
        rep = sample_report(rec.id, lam)
        assert rep.verdict == "pass" and rep.max_relative_residual <= 1e-12, rec.id


@pytest.mark.parametrize("lam", [-6.0, -6e-4, -6e-8, -6e-20, -6e-100])
def test_a_wrong_template_fails_at_every_speed(lam, monkeypatch):
    # the residual is relative to max|term|, so a wrong a0 is not hidden
    # when every PDE term is far below 1 at small |lam|
    rec = get_solution("u1")
    monkeypatch.setitem(closedform._BY_ID, "u1", _with_template(rec, rec.template + _W**2))
    rep = sample_report("u1", lam)
    assert rep.verdict == "fail" and rep.max_relative_residual > 0.3


@pytest.mark.parametrize("lam", [-6e-176, -6e-184, -6e-300])
def test_draws_whose_terms_underflow_are_rejected(lam):
    # the PDE terms are of degree 7 in w, and w^7 leaves the normal float
    # range below about lam = -6e-176 (w = 1e-44): their digits go first,
    # then at lam = -6e-300 every term is 0, which read as a pass
    for rec in catalog():
        rep = sample_report(rec.id, lam)
        assert rep.verdict == "inconclusive" and rep.max_relative_residual is None


def test_a_draw_whose_terms_are_all_zero_is_rejected(monkeypatch):
    # a constant template has five zero PDE terms, so no draw has a scale
    rec = get_solution("u3")
    monkeypatch.setitem(closedform._BY_ID, "u3", _with_template(rec, MPoly.const(3)))
    rep = sample_report("u3", -6.0)
    assert rep.verdict == "inconclusive" and rep.rejected_samples == 1000


@pytest.mark.parametrize("lam", [-5e-324, -1e-323, -1.5e-323])
def test_wave_number_that_underflows_is_rejected(lam):
    # -lam/6 underflows to 0, so w = (-lam/6)^(1/4) would be 0 and the
    # sampling band 1.2/w a division by 0
    with pytest.raises(ValueError, match="underflows"):
        sample_report("u1", lam)
    with pytest.raises(ValueError, match="underflows"):
        pointwise_compare("u1", "u7", lam)


def test_singular_at_origin_follows_the_template():
    # a record is singular at xi = 0 exactly when its values have a pole there
    singular = []
    for rec in catalog():
        try:
            rec.values(1.0, 0.0)
        except PoleError:
            singular.append(rec.id)
        assert rec.singular_at_origin == (rec.id in singular)
    assert singular == ["u2", "u4", "u5", "u6", "u8", "u10"]


def test_sample_report_inconclusive_when_domain_vanishes():
    # the origin-exclusion zone 0.05/w shrinks with the band 1.2/w,
    # so the singular u2 keeps its samples at lam = -1e9
    rep = sample_report("u2", -1.0e9, SamplePlan(seed=1))
    assert rep.verdict == "pass"
    # sampled at the drawn xi, not at x + lam*t, which rounds xi to 0 (the
    # pole of u2) at this speed
    rep = sample_report("u2", -6.0e16, SamplePlan(seed=1))
    assert rep.verdict == "pass"
    # every kept xi lies outside the exclusion zone 0.05/w, w = 1e4
    assert all(abs(s.xi) * 1e4 >= 0.05 for s in rep.samples)
    # at lam = -6e28, w = 1e7 is an input, not a guarded symbol value
    rep = sample_report("u2", -6.0e28, SamplePlan(seed=1))
    assert rep.verdict == "pass"
    # at lam = -1e200 the guard bound w^7 overflows to inf and every
    # evaluation overflows: each draw outside the exclusion zone is rejected
    rep = sample_report("u2", -1.0e200, SamplePlan(seed=1))
    assert rep.verdict == "inconclusive"
    assert rep.max_relative_residual is None
    assert rep.rejected_samples == 960


@pytest.mark.parametrize("pair", [("u7", "u1"), ("u8", "u2"), ("u9", "u3"), ("u10", "u4")])
def test_cross_method_identities(pair):
    diff, used = pointwise_compare(pair[0], pair[1], -6.0, SamplePlan(seed=7))
    assert used >= 20
    assert diff <= 1e-10


@pytest.mark.parametrize("lam", [-6e8, -6e12, -6e24])
def test_pointwise_compare_guard_scales_with_w(lam):
    # the templates grow like w^2, so their guard does too: samples are kept
    # at large wave speeds and two different solutions stay apart
    diff, used = pointwise_compare("u7", "u2", lam, SamplePlan(seed=1))
    assert used == 20 and diff > 0.5
    diff, used = pointwise_compare("u7", "u1", lam, SamplePlan(seed=1))
    assert used == 20 and diff <= 1e-10


# sha256 of every report's accepted (xi, t, residual) and rejected count for
# the ten records at speeds the reproduce pin does not reach: the scaled
# guard bounds at lam = -600, -6e12 and -6e24, and the overflowing ones at
# -1e200.  The per-sample scale is left out, so a change of the relative
# residual's scale does not move it.
SAMPLER_PATHS_SEED_0 = "de87bc7f90ffaeb25fadde9194ff5dcbdbff52a52feda1042ed9ff35c02894e4"


def test_sampler_paths_match_pinned_digest():
    h = hashlib.sha256()
    for lam in (-600.0, -6e12, -6e24, -1e200):
        for rec in catalog():
            rep = sample_report(rec.id, lam, SamplePlan(seed=0))
            drawn = [(s.xi, s.t, s.residual) for s in rep.samples]
            h.update(repr((drawn, rep.rejected_samples)).encode())
    assert h.hexdigest() == SAMPLER_PATHS_SEED_0


def test_latex_render_smoke():
    text = get_solution("u1").template.latex()
    assert r"\tan" in text and "w^{2}" in text


def test_stored_branch_to_form_mapping_rebuilds_each_template():
    # the parameter tuple fed through the record's auxiliary form must give
    # the template back pointwise (grid speeds keep the parameters rational)
    for m in (1, 2):
        lam = -6.0 * m**4
        for rec in catalog():
            if rec.aux_form is None:
                continue
            used = 0
            for i in range(200):
                xi = 0.12 + (1.15 - 0.12) * i / 199.0
                for signed in (xi, -xi):
                    try:
                        direct = _value(rec, rec.template, signed, lam)
                        rebuilt = rebuild_from_branch(rec, m, signed)
                    except PoleError:
                        continue
                    assert abs(direct - rebuilt) <= 1e-10 * max(1.0, abs(direct))
                    used += 1
                if used >= 20:
                    break
            assert used >= 20, (rec.id, m)


def test_negative_r_records_have_no_cataloged_form():
    for sid in ("u9", "u10"):
        assert get_solution(sid).aux_form is None
        with pytest.raises(ValueError):
            rebuild_from_branch(get_solution(sid), 1, 0.5)
