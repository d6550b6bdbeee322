from fractions import Fraction as F

import pytest

from fkdv.equation import EquationSpec, ode_residual, ode_terms
from fkdv.poly import MPoly
from fkdv.pre import PRE_RULES, build_pre_ansatz
from fkdv.symbols import LAM
from fkdv.tanh import TANH_RULES, build_ansatz

# the four members perfbench's derive-sweep derives, and one with Fraction
# coefficients and a zero beta
SPECS = {
    "ito": EquationSpec(F(2), F(6), F(3), F(1)),
    "sk": EquationSpec(F(45), F(15), F(15), F(1)),
    "lax": EquationSpec(F(30), F(20), F(10), F(1)),
    "kk": EquationSpec(F(20), F(25), F(10), F(1)),
    "fractional": EquationSpec(F(1, 3), F(0), F(5, 2), F(1)),
}

# (rule table, ansatz) of each method
METHODS = {
    "tanh": (TANH_RULES, build_ansatz(3)),
    "pre": (PRE_RULES, build_pre_ansatz(2)),
}


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("member", list(SPECS))
def test_ode_residual_is_the_sum_of_the_named_terms(member, method):
    spec = SPECS[member]
    rules, v = METHODS[method]
    terms = ode_terms(spec, v, rules)
    total = MPoly.zero()
    for _, term in terms:
        total = total + term
    assert ode_residual(spec, v, rules) == total


@pytest.mark.parametrize("method", list(METHODS))
def test_named_terms_are_the_pde_terms(method):
    spec = SPECS["fractional"]
    rules, v = METHODS[method]
    v1 = v.derive(rules)
    v2 = v1.derive(rules)
    v3 = v2.derive(rules)
    v5 = v3.derive(rules).derive(rules)
    assert dict(ode_terms(spec, v, rules)) == {
        "u_t": v1 * MPoly.var(LAM),
        "omega*u_xxxxx": v5 * spec.omega,
        "alpha*u^2*u_x": v * v * v1 * spec.alpha,
        "beta*u_x*u_xx": MPoly.zero(),
        "gamma*u*u_xxx": v * v3 * spec.gamma,
    }


def test_spec_converts_int_coefficients_to_fractions():
    spec = EquationSpec(2, beta=6, gamma=F(3), omega=True)
    assert spec == SPECS["ito"]
    assert [type(v) for v in spec] == [F] * 4
    assert EquationSpec._fields == ("alpha", "beta", "gamma", "omega")


def test_spec_rejects_a_coefficient_that_is_not_rational():
    with pytest.raises(TypeError, match="^gamma must be rational$"):
        EquationSpec(F(2), 6, 0.5, 1)


def test_spec_rejects_omega_zero():
    with pytest.raises(ValueError, match="^omega must be nonzero: the family is fifth order$"):
        EquationSpec(2, 6, 3, F(0))


def test_spec_is_immutable():
    with pytest.raises(AttributeError):
        SPECS["ito"].omega = F(2)


def test_replace_and_make_check_like_the_constructor():
    spec = SPECS["ito"]._replace(beta=4)
    assert spec == EquationSpec(2, 4, 3, 1) and type(spec.beta) is F
    assert EquationSpec._make([2, 6, 3, 1]) == SPECS["ito"]
    with pytest.raises(ValueError, match="^omega must be nonzero"):
        SPECS["ito"]._replace(omega=F(0))
    with pytest.raises(TypeError, match="^omega must be rational$"):
        EquationSpec._make([1, 2, 3, 0.5])
