import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fkdv.closedform import PHI_FORMS, eval_float, phi_residual
from fkdv.equation import EquationSpec, ito, ode_terms
from fkdv.errors import BalanceError
from fkdv.fixtures import compare_systems, load_fixture
from fkdv.poly import MPoly, parse_poly
from fkdv.symbols import LAM, Sym, a
from fkdv.symbols import PHI as PHI_SYM
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
    terms = [BalanceTerm(2, 3, "v^1*v^(3)"), BalanceTerm(1, 5, "v^(5)")]
    assert balance_M(terms) == 2


def test_balance_cubic_term_against_third():
    terms = [BalanceTerm(3, 1, "v^2*v^(1)"), BalanceTerm(1, 3, "v^(3)")]
    assert balance_M(terms) == 1


def test_balance_non_integer_fails_with_orders_named():
    terms = [BalanceTerm(3, 2, "v^2*v^(2)"), BalanceTerm(1, 5, "v^(5)")]
    with pytest.raises(BalanceError, match=r"3M\+2.*M\+5"):
        balance_M(terms)


def test_balance_needs_two_distinct_orders():
    with pytest.raises(BalanceError):
        balance_M([BalanceTerm(1, 5, "v^(5)"), BalanceTerm(1, 5, "v^(5)")])


# The pairwise search that the scan in balance_M replaced, kept as the
# reference the scan must agree with, errors and their texts included.


def linear_balance(order1: tuple[int, int], order2: tuple[int, int]) -> int | None:
    """Positive integer m with s1*m+i1 == s2*m+i2, if any."""
    (s1, i1), (s2, i2) = order1, order2
    if s1 == s2:
        return None
    num, den = i2 - i1, s1 - s2
    if num % den or num // den < 1:
        return None
    return num // den


def _pairwise_balance_M(terms):
    """Smallest positive integer M at which the two dominant orders agree.

    Every pair with distinct order expressions is considered; a candidate M
    is kept only when the balanced value is maximal among all terms at that
    M.  Raises BalanceError, naming the dominant orders, when no pair gives
    a positive integer.
    """
    exprs = sorted({(t.slope, t.intercept) for t in terms}, reverse=True)
    if len(exprs) < 2:
        raise BalanceError("need at least two distinct order expressions")
    candidates = [
        m
        for i, (s1, i1) in enumerate(exprs)
        for other in exprs[i + 1 :]
        if (m := linear_balance((s1, i1), other)) is not None
        and all(s * m + c <= s1 * m + i1 for s, c in exprs)
    ]
    if not candidates:
        (s1, i1), (s2, i2) = exprs[0], exprs[1]
        o1 = BalanceTerm(s1, i1, "").order_str()
        o2 = BalanceTerm(s2, i2, "").order_str()
        raise BalanceError(
            f"balancing {o1} against {o2} gives no positive integer order"
        )
    return min(candidates)


def _balanced(balance, terms):
    try:
        return balance(terms)
    except BalanceError as exc:
        return str(exc)


_TERMS = st.lists(
    st.builds(BalanceTerm, st.integers(0, 5), st.integers(0, 30), st.just("")), min_size=1, max_size=6
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TERMS)
def test_balance_scan_agrees_with_the_pairwise_search(terms):
    assert _balanced(balance_M, terms) == _balanced(_pairwise_balance_M, terms)


# The if-chain on alpha, beta and gamma that the term table replaced, with
# the three constructors it built the terms with, kept as the reference the
# table must agree with.


def _previous_balance_terms_for(spec):
    def derivative(p):  # order of v^(p) is M + p
        return BalanceTerm(1, p, f"v^({p})")

    def product(p, q):  # order of v^(p) * v^(q) is 2M + p + q
        return BalanceTerm(2, p + q, f"v^({p})*v^({q})")

    def power_derivative(p, q):  # order of v^p * v^(q) is (p+1)M + q
        return BalanceTerm(p + 1, q, f"v^{p}*v^({q})")

    terms = [derivative(1), derivative(5)]
    if spec.alpha != 0:
        terms.append(power_derivative(2, 1))
    if spec.beta != 0:
        terms.append(product(1, 2))
    if spec.gamma != 0:
        terms.append(power_derivative(1, 3))
    return terms


# a coefficient is zero about half the time, so every subset of the three
# nonlinear terms is drawn
_COEF = st.one_of(st.just(F(0)), st.fractions(-50, 50, max_denominator=12))
_OMEGA = st.fractions(-50, 50, max_denominator=12).filter(bool)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_COEF, _COEF, _COEF, _OMEGA)
def test_balance_terms_agree_with_the_previous_if_chain(alpha, beta, gamma, omega):
    spec = EquationSpec(alpha, beta, gamma, omega)
    terms, previous = balance_terms_for(spec), _previous_balance_terms_for(spec)
    assert [tuple(t) for t in terms] == [tuple(t) for t in previous]
    assert _balanced(balance_M, terms) == _balanced(balance_M, previous)


@pytest.mark.parametrize("spec", [
    ito(),
    EquationSpec(F(45), F(15), F(15), F(1)),
    EquationSpec(F(1, 3), F(0), F(5, 2), F(-2)),
    EquationSpec(F(0), F(1), F(0), F(1)),
], ids=["ito", "sk", "no-beta", "beta-only"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_balance_order_is_the_phi_degree_of_the_term(spec, m):
    # each balance term is a term of the residual with a nonzero
    # coefficient, in the table's order; its order at M = m is the highest
    # power of phi in that term of the expanded residual
    named = dict(ode_terms(spec, build_ansatz(m), TANH_RULES))
    present = [name for name, coef, _ in spec.terms() if coef]
    terms = balance_terms_for(spec)
    assert len(terms) == len(present)
    for name, t in zip(present, terms):
        assert t.slope * m + t.intercept == named[name].max_exponent(PHI_SYM), name


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
