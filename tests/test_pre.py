import random
from fractions import Fraction as F

import pytest

from fkdv.equation import ito
from fkdv.errors import PoleError
from fkdv.fixtures import canonical_form, compare_systems, load_fixture
from fkdv.poly import MPoly, parse_poly
from fkdv.pre import (
    ST_CATALOG,
    PreAnsatzSpec,
    STClosedForm,
    STPoly,
    build_pre_ansatz,
    eliminate_tau,
    first_integral_defect,
    linear_balance,
    pre_degree_candidates,
    pre_ode_residual,
    split_r,
    st_closed_form_eval,
    st_diff,
    st_system_defect,
    tau2_reduce,
)
from fkdv.symbols import E, LAM, MU, R, RHO, a, b


def P(text):
    return parse_poly(text)


# ---------------------------------------------------------------- reduction


def test_tau_squared_reduces_to_first_integral():
    got = tau2_reduce({(0, 2): 1})
    expected = STPoly(
        {(0, 0): P("-e*r^2"), (1, 0): P("2*e*mu*r"), (2, 0): P("-e*(mu^2+rho)")},
        r_power=1,
    )
    assert got == expected
    assert got.r_power == 1


def test_eliminate_tau_clears_one_r_per_pair_of_tau_powers():
    # tau^5 = tau * (tau^2)^2, so s = 2 and r^2*tau^5 = tau*(r*tau^2)^2
    got, s = eliminate_tau(P("a1*tau^5 + b1*sigma*tau^2 + 4"))
    r_tau2 = P("-e*(r^2 - 2*mu*r*sigma + (mu^2+rho)*sigma^2)")
    assert s == 2
    assert got == P("a1*tau") * r_tau2**2 + P("b1*sigma*r") * r_tau2 + P("4*r^2")
    assert eliminate_tau(P("a0*tau + sigma")) == (P("a0*tau + sigma"), 0)


def test_tau_first_power_unchanged():
    assert tau2_reduce({(0, 1): 1}) == STPoly.tau()


def test_tau_squared_specialized_kills_quadratic_term():
    got = tau2_reduce({(0, 2): 1}).substitute({E: 1, MU: 1, RHO: -1})
    assert got == STPoly({(0, 0): P("-r"), (1, 0): MPoly.const(2)})


def test_tau_degree_invariant_under_operations():
    rng = random.Random(9)
    pool = [STPoly.sigma(), STPoly.tau(), STPoly.const(P("mu")), STPoly({(1, 1): 1})]
    value = STPoly.const(1)
    for _ in range(30):
        other = rng.choice(pool)
        value = rng.choice([value + other, value * other, st_diff(value)])
        assert all(j <= 1 for _, j in value.terms)


# ---------------------------------------------------------------- st_diff


def test_st_diff_sigma():
    assert st_diff(STPoly.sigma()) == STPoly({(1, 1): P("e")})


def test_st_diff_constant():
    assert st_diff(STPoly.const(5)).is_zero()


def test_st_diff_tau():
    # tau' = e*tau^2 - mu*sigma + r, then the first integral removes tau^2
    expected = STPoly(
        {
            (0, 0): P("-e^2*r^2 + r^2"),
            (1, 0): P("2*e^2*mu*r - mu*r"),
            (2, 0): P("-e^2*(mu^2+rho)"),
        },
        r_power=1,
    )
    assert st_diff(STPoly.tau()) == expected


def _random_stpoly(rng: random.Random) -> STPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, 2), rng.randint(0, 1))
        coeff = MPoly.const(F(rng.randint(-4, 4)))
        if rng.random() < 0.5:
            coeff = coeff + MPoly.var(rng.choice([a(1), b(1), MU, R]))
        terms[key] = terms.get(key, MPoly.zero()) + coeff
    return STPoly(terms)


def test_st_diff_is_a_derivation_at_sign_specializations():
    # the reduction encodes e = +-1; the symbolic Leibniz defect is a
    # multiple of e^2 - 1, so exact equality is asserted at both signs
    rng = random.Random(12)
    for _ in range(100):
        p, q = _random_stpoly(rng), _random_stpoly(rng)
        defect = st_diff(p * q) - (st_diff(p) * q + p * st_diff(q))
        for e_val in (1, -1):
            assert defect.substitute({E: e_val}).is_zero()


# ---------------------------------------------------------------- ansatz


def test_ansatz_depth_one():
    v = build_pre_ansatz(1)
    assert v == STPoly(
        {(0, 0): MPoly.var(a(0)), (1, 0): MPoly.var(a(1)), (0, 1): MPoly.var(b(1))}
    )


def test_ansatz_depth_two_unrolls():
    v = build_pre_ansatz(PreAnsatzSpec(2))
    assert sorted(v.terms) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]


def test_ansatz_collapses_to_constant():
    v = build_pre_ansatz(1).substitute({a(1): 0, b(1): 0})
    assert v == STPoly.const(MPoly.var(a(0)))


def test_ansatz_depth_zero_rejected():
    with pytest.raises(ValueError):
        PreAnsatzSpec(0)


# ---------------------------------------------------------------- degrees


def test_degree_candidates():
    assert pre_degree_candidates() == frozenset({1, 2})


def test_pairwise_balances_solve_to_two():
    assert linear_balance((2, 3), (1, 5)) == 2
    assert linear_balance((3, 1), (2, 3)) == 2


# ---------------------------------------------------------------- residual


def test_residual_of_constant_is_zero():
    assert pre_ode_residual(ito(), STPoly.const(MPoly.var(a(0)))).is_zero()


def test_residual_top_degrees(pre_system):
    res = pre_ode_residual(ito(), build_pre_ansatz(1))
    assert res.sigma_degree(0) == 6
    assert res.sigma_degree(1) == 5
    assert len(pre_system) == 13


def test_residual_vanishes_at_specialized_solution():
    res = pre_ode_residual(ito(), build_pre_ansatz(1))
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


def test_case_ii_sec_at_origin():
    form = STClosedForm("II-sec", e=1, rho=-1, mu=F(0), r=F(1))
    assert st_closed_form_eval(form, 0.0) == (1.0, 0.0)


def test_case_i_printed_values():
    form = STClosedForm("I", e=1, rho=-1, C=F(3))
    sigma, tau = st_closed_form_eval(form, 2.0)
    assert sigma == pytest.approx(1.5) and tau == pytest.approx(-0.5)


def test_case_iii_at_origin():
    form = STClosedForm("III", e=-1, rho=-1, mu=F(0), r=F(1))
    assert st_closed_form_eval(form, 0.0) == (1.0, 0.0)


def test_pole_proximity_rejected():
    form = STClosedForm("I", e=1, rho=-1, C=F(1))
    with pytest.raises(PoleError):
        st_closed_form_eval(form, 1e-9)


def test_case_validation():
    with pytest.raises(ValueError):
        STClosedForm("I", e=1, rho=-1, r=F(1), C=F(1))  # Case I needs r = 0
    with pytest.raises(ValueError):
        STClosedForm("II-sec", e=-1, rho=-1, r=F(1))  # wrong sign pair
    with pytest.raises(ValueError):
        STClosedForm("IV", e=-1, rho=1, r=F(-2))  # needs r > 0


def _valid_samples(fn, span, needed=20):
    out = []
    for i in range(200):
        xi = 0.15 * span + (1.3 - 0.15) * span * i / 199.0
        for signed in (xi, -xi):
            try:
                out.append(fn(signed))
            except (PoleError, ValueError, ZeroDivisionError, OverflowError):
                continue
            if len(out) >= needed:
                return out
    return out


@pytest.mark.parametrize(
    "form", ST_CATALOG, ids=lambda f: f"{f.case_id}/mu={f.mu}/r={f.r}"
)
def test_closed_forms_satisfy_the_system(form):
    span = 1.0 / max(1.0, float(form.r)) ** 0.5
    defects = _valid_samples(lambda xi: max(st_system_defect(form, xi)), span)
    assert len(defects) >= 20
    assert max(defects) <= 1e-6


@pytest.mark.parametrize(
    "form",
    [f for f in ST_CATALOG if f.uses_first_integral()],
    ids=lambda f: f"{f.case_id}/mu={f.mu}/r={f.r}",
)
def test_first_integral_is_constant(form):
    span = 1.0 / max(1.0, float(form.r)) ** 0.5
    defects = _valid_samples(lambda xi: first_integral_defect(form, xi), span)
    assert len(defects) >= 20
    assert max(defects) <= 1e-8


def test_case_i_excluded_from_first_integral():
    form = STClosedForm("I", e=1, rho=-1, C=F(2))
    with pytest.raises(ValueError):
        first_integral_defect(form, 0.7)
