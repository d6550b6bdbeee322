import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fkdv.equation import EquationSpec, ito, ode_residual
from fkdv.errors import PoleError
from fkdv.fixtures import canonical_form, compare_systems, load_fixture
from fkdv import poly
from fkdv.poly import MPoly, monomial, parse_poly, reduce_power
from fkdv.reproduce import derive, solve_system
from fkdv.solver import verify_assignment
from fkdv.closedform import (
    RULES,
    ST_CASES,
    eval_float,
    function_values,
    reduced,
    st_residuals,
)
from fkdv.pre import (
    PRE_RULES,
    R_TAU2,
    build_pre_ansatz,
    eliminate_tau,
    pre_ode_residual,
    split_r,
)
from fkdv.symbols import (
    E, K, LAM, MU, R, RHO, SEC, SECH, SIGMA, TAN, TANH, TAU, XINV, YSEC, YSECH, a, b,
)


def P(text):
    return parse_poly(text)


# ---------------------------------------------------------------- reduction

S, T = P("sigma"), P("tau")


def test_tau_squared_reduces_to_first_integral():
    got = eliminate_tau(T**2)
    assert got == (P("-e*r^2 + 2*e*mu*r*sigma - e*(mu^2+rho)*sigma^2"), 1)


def test_eliminate_tau_clears_one_r_per_pair_of_tau_powers():
    # tau^5 = tau * (tau^2)^2, so s = 2 and r^2*tau^5 = tau*(r*tau^2)^2
    got, s = eliminate_tau(P("a1*tau^5 + b1*sigma*tau^2 + 4"))
    r_tau2 = P("-e*(r^2 - 2*mu*r*sigma + (mu^2+rho)*sigma^2)")
    assert s == 2
    assert got == P("a1*tau") * r_tau2**2 + P("b1*sigma*r") * r_tau2 + P("4*r^2")
    assert eliminate_tau(P("a0*tau + sigma")) == (P("a0*tau + sigma"), 0)


_TAU, _R = MPoly.var(TAU), MPoly.var(R)


def _horner_eliminate_tau(p: MPoly) -> tuple[MPoly, int]:
    """The previous eliminate_tau, kept verbatim as the reference: Horner in
    r*tau^2, one intermediate polynomial per power of tau^2."""
    s = p.max_exponent(TAU) // 2
    if s == 0:
        return p, 0
    c = p.split((TAU,))
    zero = MPoly.zero()
    # P_q = C_2q + C_(2q+1) * tau, with C_j = c[(j,)] the coefficient of tau^j
    parts = [c.get((2 * q,), zero) + c.get((2 * q + 1,), zero) * _TAU for q in range(s + 1)]
    acc = parts[s]
    for q in range(s - 1, -1, -1):
        acc = acc * R_TAU2 + parts[q] * _R ** (s - q)
    return acc, s


def fresh_tau_images(s: int) -> tuple[MPoly, ...]:
    """r**s * tau^e for e = 0 .. 2s+1 with every tau^2 rewritten, built
    from the first integral's text, independently of the cached images."""
    r_tau2 = P("-e*(r^2 - 2*mu*r*sigma + (mu^2+rho)*sigma^2)")
    return tuple(T ** (e % 2) * r_tau2 ** (e // 2) * _R ** (s - e // 2) for e in range(2 * s + 2))


@pytest.mark.parametrize("s", range(5))
def test_each_cached_tau_image_equals_a_fresh_build(s):
    # the kernel's image of r**s * tau^e, keyed by its factors tau^(e%2),
    # R_TAU2^(e//2) and r^(s - e//2), after one elimination that reads them
    eliminate_tau(sum((T**e for e in range(2 * s + 2)), MPoly.zero()))
    for e, fresh in enumerate(fresh_tau_images(s)):
        key = (TAU, e % 2, R_TAU2, e // 2, _R, s - e // 2)
        assert poly._image(*key) == fresh
        assert poly._image(*key) is poly._image(*key)


def test_one_symbol_rewritten_under_each_lead_given():
    # the images are cached per lead as well as per relation: a unit lead
    # enters the key at power 0, so r and mu tell a key without the lead apart
    for lead in (1, _R, P("mu"), _R):
        got, s = reduce_power(T**3 + 1, TAU, R_TAU2, lead)
        assert s == 1 and got == T * R_TAU2 + lead


# (alpha, beta, gamma, omega) of the members perfbench's derive-sweep derives
MEMBERS = {"ito": (2, 6, 3, 1), "sk": (45, 15, 15, 1), "lax": (30, 20, 10, 1), "kk": (20, 25, 10, 1)}


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("member", list(MEMBERS))
def test_eliminate_tau_matches_horner_on_every_swept_residual(member, depth):
    residual = ode_residual(EquationSpec(*map(F, MEMBERS[member])), build_pre_ansatz(depth), PRE_RULES)
    got, s = eliminate_tau(residual)
    expected, expected_s = _horner_eliminate_tau(residual)
    assert s == expected_s > 0
    assert got == expected and got.ascii() == expected.ascii()


@st.composite
def tau_polys(draw):
    """Polynomials with tau exponents 0..7 beside other symbols, with int
    and Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = {TAU: draw(st.integers(0, 7))}
        for s in draw(st.lists(st.sampled_from([SIGMA, R, MU, E, RHO, a(0), b(1)]), max_size=3, unique=True)):
            exps[s] = draw(st.integers(1, 3))
        coef = draw(st.integers(-20, 20) | st.builds(F, st.integers(-20, 20), st.integers(1, 7)))
        code = monomial(exps)
        terms[code] = terms.get(code, 0) + coef
    return MPoly(terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tau_polys())
def test_eliminate_tau_matches_horner_on_random_polynomials(p):
    got, s = eliminate_tau(p)
    assert (got, s) == _horner_eliminate_tau(p)
    assert got.max_exponent(TAU) <= 1


def test_eliminate_tau_without_tau_squared_returns_the_input_itself():
    for p in (P("a0*tau + sigma"), P("b1*sigma^4*tau - 3/2"), MPoly.const(7), MPoly.zero()):
        got, s = eliminate_tau(p)
        assert s == 0 and got is p


def test_tau_first_power_unchanged():
    assert eliminate_tau(T) == (T, 0)


def test_tau_squared_specialized_kills_quadratic_term():
    got, s = eliminate_tau(T**2)
    assert s == 1
    assert got.substitute({E: 1, MU: 1, RHO: -1}) == P("-r^2 + 2*r*sigma")


def _d(value):
    """d/dxi of a (polynomial, r-power) pair, then tau elimination."""
    poly, s = eliminate_tau(value[0].derive(PRE_RULES))
    return poly, value[1] + s


def _mul(x, y):
    poly, s = eliminate_tau(x[0] * y[0])
    return poly, x[1] + y[1] + s


def _sub(x, y):
    # align the r-powers: poly / r**s is the true value
    s = max(x[1], y[1])
    r = P("r")
    return x[0] * r ** (s - x[1]) - y[0] * r ** (s - y[1]), s


def _add(x, y):
    return _sub(x, (-y[0], y[1]))


def test_tau_degree_invariant_under_operations():
    rng = random.Random(9)
    pool = [(S, 0), (T, 0), (P("mu"), 0), (S * T, 0)]
    value = (MPoly.const(1), 0)
    for _ in range(30):
        other = rng.choice(pool)
        value = rng.choice([_add(value, other), _mul(value, other), _d(value)])
        assert value[0].max_exponent(TAU) <= 1


# ---------------------------------------------------------------- d/dxi


def test_st_diff_sigma():
    assert S.derive(PRE_RULES) == P("e*sigma*tau")


def test_st_diff_constant():
    assert MPoly.const(5).derive(PRE_RULES).is_zero()


def test_st_diff_tau():
    # tau' = e*tau^2 - mu*sigma + r, then the first integral removes tau^2
    expected = P("-e^2*r^2 + r^2 + (2*e^2*mu*r - mu*r)*sigma - e^2*(mu^2+rho)*sigma^2")
    assert _d((T, 0)) == (expected, 1)


def _random_stpoly(rng: random.Random) -> MPoly:
    p = MPoly.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = MPoly.const(F(rng.randint(-4, 4)))
        if rng.random() < 0.5:
            coeff = coeff + MPoly.var(rng.choice([a(1), b(1), MU, R]))
        p = p + coeff * S ** rng.randint(0, 2) * T ** rng.randint(0, 1)
    return p


def test_st_diff_is_a_derivation_at_sign_specializations():
    # d/dxi followed by tau elimination encodes e = +-1; the symbolic
    # Leibniz defect is a multiple of e^2 - 1, so exact equality is
    # asserted at both signs
    rng = random.Random(12)
    for _ in range(100):
        p, q = (_random_stpoly(rng), 0), (_random_stpoly(rng), 0)
        defect, _ = _sub(_d(_mul(p, q)), _add(_mul(_d(p), q), _mul(p, _d(q))))
        for e_val in (1, -1):
            assert defect.substitute({E: e_val}).is_zero()


# ---------------------------------------------------------------- ansatz


def test_ansatz_depth_one():
    assert build_pre_ansatz(1) == P("a0 + a1*sigma + b1*tau")


def test_ansatz_depth_two_unrolls():
    v = build_pre_ansatz(2)
    assert sorted(v.split((SIGMA, TAU))) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)
    ]


def test_ansatz_collapses_to_constant():
    v = build_pre_ansatz(1).substitute({a(1): 0, b(1): 0})
    assert v == MPoly.var(a(0))


def test_ansatz_depth_zero_rejected():
    with pytest.raises(ValueError):
        build_pre_ansatz(0)


# ---------------------------------------------------------------- residual


def test_residual_of_constant_is_zero():
    assert pre_ode_residual(ito(), MPoly.var(a(0))) == (MPoly.zero(), 0)


def _sigma_degree(poly, tau_degree):
    return max(i for i, j in poly.split((SIGMA, TAU)) if j == tau_degree)


def test_residual_top_degrees(pre_system):
    res, _ = pre_ode_residual(ito(), build_pre_ansatz(1))
    assert _sigma_degree(res, 0) == 6
    assert _sigma_degree(res, 1) == 5
    assert len(pre_system) == 13


def test_residual_vanishes_at_specialized_solution():
    res, _ = pre_ode_residual(ito(), build_pre_ansatz(1))
    bound = res.substitute(
        {
            a(0): F(5, 2), a(1): F(15), b(1): F(0),
            MU: F(-1), R: F(1), E: F(1), RHO: F(-1), LAM: F(-6),
        }
    )
    assert bound.is_zero()


def test_extracted_system_contains_printed_leading_equations(pre_system):
    canon = {canonical_form(eq.poly) for eq in pre_system}
    assert canonical_form(P("e^7*(mu^2+rho)^2*a1")) in canon
    assert canonical_form(P("e^8*(mu^2+rho)^3*b1")) in canon


def test_extracted_system_matches_transcription(pre_system):
    assert compare_systems(pre_system, load_fixture("pre")) == []


def test_split_r():
    s, q = split_r(P("3*r^2*mu + r^3"))
    assert s == 2 and q == P("3*mu + r")


# ---------------------------------------------------------------- closed forms


def _values(syms, w, xi, params):
    return function_values(sorted(syms, key=lambda s: s.key), w, xi, params)


def test_case_ii_sec_at_origin():
    sigma, tau, _ = ST_CASES["II-sec"]
    point = _values([SEC, TAN, YSEC], 2.0, 0.0, {MU: 0.0})  # r = (w/2)^2 = 1
    assert (eval_float(sigma, point), eval_float(tau, point)) == (1.0, 0.0)


def test_case_i_printed_values():
    # sigma = C/xi, tau = -1/(e*xi), with C = 1
    sigma, tau, _ = ST_CASES["I"]
    for e in (1.0, -1.0):
        point = _values([XINV], 0.0, 2.0, {E: e})
        assert eval_float(sigma, point) == pytest.approx(0.5)
        assert eval_float(tau, point) == pytest.approx(-0.5 * e)


def test_case_iii_at_origin():
    sigma, tau, _ = ST_CASES["III"]
    point = _values([SECH, TANH, YSECH], 2.0, 0.0, {MU: 0.0})
    assert (eval_float(sigma, point), eval_float(tau, point)) == (1.0, 0.0)


def test_pole_proximity_rejected():
    with pytest.raises(PoleError):
        _values([XINV], 0.0, 1e-9, {})


def test_case_validation():
    # every case fixes its signs and r; another choice breaks an identity
    sigma, tau, fixed = ST_CASES["I"]
    assert any(st_residuals(sigma, tau, {**fixed, R: MPoly.const(1)}))  # Case I needs r = 0
    sigma, tau, fixed = ST_CASES["II-sec"]
    assert any(st_residuals(sigma, tau, {**fixed, E: MPoly.const(-1)}))  # wrong sign pair
    assert any(st_residuals(sigma, tau, {**fixed, RHO: MPoly.const(1)}))
    sigma, tau, fixed = ST_CASES["IV"]
    assert any(st_residuals(sigma, tau, {**fixed, R: -fixed[R]}))  # needs r > 0


# (case, e, mu, r) samples: the exact identities hold for every mu and, in
# Case I, both signs of e; each sample also evaluates the unreduced
# identities in binary64 at its mu and w = 2*sqrt(r), so a reduction that
# wrongly returned 0 would show here
ST_SAMPLES = [
    ("I", 1, F(0), F(0)),
    ("I", -1, F(0), F(0)),
    ("II-sec", 1, F(1, 2), F(1)),
    ("II-sec", 1, F(-1), F(4)),
    ("II-csc", 1, F(-1), F(1)),
    ("II-csc", 1, F(1), F(9, 4)),
    ("III", -1, F(1, 2), F(1)),
    ("III", -1, F(0), F(4)),
    ("IV", -1, F(1), F(1)),
    ("IV", -1, F(-1, 2), F(9, 4)),
]


def _sample_id(sample):
    case, _, mu, r = sample
    return f"{case}/mu={mu}/r={r}"


def _sides(case, e):
    """(lhs, rhs) of sigma', tau' and r*tau^2 at the case's closed form."""
    sigma, tau, fixed = ST_CASES[case]
    at = {SIGMA: sigma, TAU: tau, E: MPoly.const(e), **fixed}
    pairs = [
        (sigma.derive(RULES), PRE_RULES[SIGMA].substitute(at)),
        (tau.derive(RULES), PRE_RULES[TAU].substitute(at)),
        ((P("r") * T**2).substitute(at), R_TAU2.substitute(at)),
    ]
    return [(lhs.substitute({E: e}), rhs.substitute({E: e})) for lhs, rhs in pairs]


def _worst_defect(pairs, mu, r):
    w = 2 * float(r) ** 0.5
    span = 1.0 / max(1.0, float(r)) ** 0.5
    syms = {s for pair in pairs for p in pair for s in p.symbols()} & RULES.keys()
    worst, used = 0.0, 0
    for i in range(200):
        xi = 0.15 * span + (1.3 - 0.15) * span * i / 199.0
        for signed in (xi, -xi):
            try:
                point = _values(syms, w, signed, {MU: float(mu)})
                vals = [(eval_float(lhs, point), eval_float(rhs, point)) for lhs, rhs in pairs]
            except PoleError:
                continue
            worst = max([worst] + [abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in vals])
            used += 1
        if used >= 20:
            break
    assert used >= 20
    return worst


@pytest.mark.parametrize("sample", ST_SAMPLES, ids=_sample_id)
def test_closed_forms_satisfy_the_system(sample):
    case, e, mu, r = sample
    sigma, tau, fixed = ST_CASES[case]
    assert not any(st_residuals(sigma, tau, fixed)[:2])
    assert _worst_defect(_sides(case, e)[:2], mu, r) <= 1e-12


@pytest.mark.parametrize(
    "sample", [s for s in ST_SAMPLES if s[0] != "I"], ids=_sample_id
)
def test_first_integral_is_constant(sample):
    case, e, mu, r = sample
    sigma, tau, fixed = ST_CASES[case]
    assert st_residuals(sigma, tau, fixed)[2].is_zero()
    assert _worst_defect(_sides(case, e)[2:], mu, r) <= 1e-12


def test_case_i_excluded_from_first_integral():
    # at r = 0 the first integral degenerates to e*rho*sigma^2 = 0, which
    # Case I does not satisfy, so the check leaves it out
    sigma, tau, fixed = ST_CASES["I"]
    assert len(st_residuals(sigma, tau, fixed)) == 2
    at = {SIGMA: sigma, TAU: tau, **fixed}
    assert not reduced((P("r") * T**2 - R_TAU2).substitute(at)).is_zero()


# ---------------------------------------------------------------- tanh inside the projective method
# At mu = 0, e = 1 and rho = -1 the pair reads tau' = tau^2 + r, the tanh
# method's phi' = k + phi^2 with phi = tau and k = r, and its first integral
# is r*tau^2 = sigma^2 - r^2.  So a tanh ansatz of order M, rewritten by that
# integral, is a projective ansatz of depth M, and every tanh solved point
# maps to a point of the projective system.


def _projective_image(point, order):
    """The projective unknowns of depth ``order`` that a tanh point gives."""
    k = point[K]
    u = sum((MPoly.const(point[a(j)]) * T**j for j in range(order + 1)), MPoly.zero())
    cleared, top = reduce_power(u, TAU, S**2 - k**2, lead=k)
    parts = (cleared * F(1, k**top)).split((SIGMA, TAU))
    image = {MU: F(0), R: k, a(0): F(0)}
    image.update((s, F(0)) for j in range(1, order + 1) for s in (a(j), b(j)))
    for (i, t), c in parts.items():
        image[a(i) if not t else b(i + 1)] = c.constant_value()
    return image


@pytest.mark.parametrize("order", [2, 3, 4])
def test_every_tanh_point_maps_to_a_projective_point(order):
    presets = {LAM: F(-6)}
    _, tanh_system = derive("tanh", order=order)
    _, pre_system = derive("pre", order=order)
    points = [br.assignment for br in solve_system(tanh_system, presets) if br.status == "solved"]
    images = [_projective_image(p, order) for p in points]
    zeros = {s: F(0) for j in range(3, order + 1) for s in (a(j), b(j))}
    assert sorted(images, key=lambda im: im[R]) == [
        {MU: 0, R: F(-1, 4), a(0): F(-5, 2), a(1): 0, b(1): 0, a(2): 120, b(2): 0, **zeros},
        {MU: 0, R: F(1, 4), a(0): F(5, 2), a(1): 0, b(1): 0, a(2): -120, b(2): 0, **zeros},
    ]
    signs = {E: 1, RHO: -1, **presets}
    for image in images:
        assert verify_assignment([eq.poly for eq in pre_system], {**signs, **image}) == (True, None)
