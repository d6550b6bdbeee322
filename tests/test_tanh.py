import math
import random
from fractions import Fraction as F

import pytest

from fkdv.closedform import PHI_FORMS, eval_float, phi_residual
from fkdv.equation import EquationSpec, ito
from fkdv.errors import BalanceError
from fkdv.fixtures import compare_systems, load_fixture
from fkdv.poly import MPoly, parse_poly
from fkdv.symbols import LAM, Sym, a
from fkdv.tanh import (
    TANH_RULES,
    BalanceTerm,
    balance_M,
    balance_terms_for,
    build_ansatz,
    ode_residual,
)

K = Sym("k")


# ---------------------------------------------------------------- balancing


def test_balance_ito():
    assert balance_M(balance_terms_for(ito())) == 2


def test_balance_vvppp_against_fifth():
    terms = [BalanceTerm.power_derivative(1, 3), BalanceTerm.derivative(5)]
    assert balance_M(terms) == 2


def test_balance_cubic_term_against_third():
    terms = [BalanceTerm.power_derivative(2, 1), BalanceTerm.derivative(3)]
    assert balance_M(terms) == 1


def test_balance_non_integer_fails_with_orders_named():
    terms = [BalanceTerm.power_derivative(2, 2), BalanceTerm.derivative(5)]
    with pytest.raises(BalanceError, match=r"3M\+2.*M\+5"):
        balance_M(terms)


def test_balance_needs_two_distinct_orders():
    with pytest.raises(BalanceError):
        balance_M([BalanceTerm.derivative(5), BalanceTerm.derivative(5)])


def test_omega_zero_rejected():
    with pytest.raises(ValueError):
        EquationSpec(F(2), F(6), F(3), F(0))


# ---------------------------------------------------------------- d/dxi

PHI = MPoly.var(Sym("phi"))


def test_phi_diff_of_phi():
    assert PHI.derive(TANH_RULES) == MPoly.var(K) + PHI**2


def test_phi_diff_of_constant():
    assert MPoly.const(1).derive(TANH_RULES).is_zero()


def test_phi_diff_of_phi_squared():
    # chain rule under the rewrite: 2k*phi + 2*phi^3
    assert (PHI**2).derive(TANH_RULES) == MPoly.var(K) * PHI * 2 + PHI**3 * 2


def _random_phipoly(rng: random.Random, numeric=False) -> MPoly:
    p = MPoly.zero()
    for j in range(rng.randint(1, 4)):
        if numeric:
            c = MPoly.const(F(rng.randint(-6, 6), rng.randint(1, 3)))
        else:
            c = MPoly.const(F(rng.randint(-5, 5)))
            if rng.random() < 0.5:
                c = c + MPoly.var(rng.choice([a(0), a(1), K]))
        p = p + c * PHI**j
    return p


def test_phi_diff_is_a_derivation():
    rng = random.Random(3)
    for _ in range(100):
        p, q = _random_phipoly(rng), _random_phipoly(rng)
        assert (p * q).derive(TANH_RULES) == p.derive(TANH_RULES) * q + p * q.derive(TANH_RULES)


def test_phi_diff_matches_finite_differences():
    # instantiate k = 1 and phi(xi) = tan(xi), a solution of the rewrite rule
    rng = random.Random(4)
    for _ in range(25):
        p = _random_phipoly(rng, numeric=True)
        dp = p.derive(TANH_RULES).substitute({K: 1})
        xi = rng.uniform(0.1, 1.0)
        h = 1e-5

        def val(z):
            return eval_float(p, {Sym("phi"): math.tan(z)})

        fd = (val(xi + h) - val(xi - h)) / (2 * h)
        exact = eval_float(dp, {Sym("phi"): math.tan(xi)})
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact), abs(fd))


# ---------------------------------------------------------------- ansatz


def test_ansatz_order_two():
    assert build_ansatz(2) == MPoly.var(a(0)) + MPoly.var(a(1)) * PHI + MPoly.var(a(2)) * PHI**2


def test_ansatz_order_one_and_three():
    assert build_ansatz(1).max_exponent(Sym("phi")) == 1
    assert build_ansatz(3).coefficient_of(Sym("phi"), 3) == MPoly.var(a(3))


# ---------------------------------------------------------------- residual


def test_residual_of_constant_is_zero():
    assert ode_residual(ito(), MPoly.var(a(0))).is_zero()


def test_residual_degree_is_M_plus_five(tanh_system):
    res = ode_residual(ito(), build_ansatz(2))
    assert res.max_exponent(Sym("phi")) == 7
    assert len(tanh_system) == 8


def test_residual_vanishes_at_specialized_solution():
    res = ode_residual(ito(), build_ansatz(2))
    bound = res.substitute(
        {a(0): F(-5), a(1): F(0), a(2): F(-30), K: F(1, 4), LAM: F(-6)}
    )
    assert bound.is_zero()


def test_extracted_system_contains_printed_equations(tanh_system):
    polys = {eq.poly for eq in tanh_system}
    assert parse_poly("4*a2^3+144*a2^2+720*a2").normalize() in polys
    assert parse_poly("10*a1*a2^2+150*a1*a2+120*a1").normalize() in polys


def test_extracted_system_matches_transcription(tanh_system):
    assert compare_systems(tanh_system, load_fixture("tanh")) == []


# ---------------------------------------------------------------- phi catalog


@pytest.mark.parametrize("form", list(PHI_FORMS))
def test_phi_form_satisfies_riccati(form):
    # phi' - (k + phi^2) is the zero polynomial, for every w; a flipped
    # sign of phi or of k leaves a nonzero residual
    phi, k = PHI_FORMS[form]
    assert phi_residual(phi, k).is_zero()
    assert not phi_residual(-phi, k).is_zero()
    if k:
        assert not phi_residual(phi, -k).is_zero()
