import json
import math
import random
import time
from fractions import Fraction as F
from functools import reduce
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from fkdv import fixtures
from fkdv.errors import UnboundSymbolError
from fkdv.fixtures import load_fixture
from fkdv.poly import (
    _DEG1,
    _FIELD,
    MPoly,
    Point,
    _Parser,
    _derivative,
    _horner,
    _pseudo_divmod,
    exps_of,
    monomial,
    parse_poly,
    rational_roots,
)
from fkdv.solver import verify_assignment
from fkdv.symbols import DEGREE_SHIFT, FIELD_BITS, Sym, a, b


A0, A1, A2 = a(0), a(1), a(2)
K = Sym("k")


def P(text):
    return parse_poly(text)


def _rats(p):
    """The rational view of ``p``'s int ``terms`` over ``den``: code ->
    Fraction, in p's term order."""
    return {k: F(c, p.den) for k, c in p.terms.items()}


def _assert_canonical(p):
    """``p`` is in lowest terms: nonzero int coefficients over a positive
    int den sharing no factor with all of them, so the same value built
    again from its rationals has the same terms, den and hash."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1
    q = MPoly(_rats(p))
    assert (q.terms, q.den, hash(q)) == (p.terms, p.den, hash(p))


# ---------------------------------------------------------------- symbols


def test_symbols_interned_and_ordered():
    assert Sym("a2") is Sym("a2")
    order = [a(0), a(1), a(5), b(1), b(3), Sym("k"), Sym("lam"), Sym("mu"),
             Sym("r"), Sym("e"), Sym("rho"), Sym("phi"), Sym("tau")]
    assert order == sorted(order, key=lambda s: s.key)


@pytest.mark.parametrize("bad", ["c1", "b0", "a-1", "lambda", "a01", "x", "a17", "b17"])
def test_symbols_closed_alphabet(bad):
    with pytest.raises(ValueError):
        Sym(bad)


# ---------------------------------------------------------------- arithmetic


def test_difference_of_squares():
    assert P("a1+1") * P("a1-1") == P("a1^2-1")


def test_additive_identity():
    p = P("3*a1*k - 7/2")
    assert p + MPoly.zero() == p


def test_monomial_product():
    assert P("2*a2") * P("3*k") == P("6*a2*k")


def test_derive_applies_rules_and_fixes_other_symbols():
    rules = {Sym("phi"): P("k + phi^2")}
    assert P("a1*phi^2 + a0").derive(rules) == P("2*a1*k*phi + 2*a1*phi^3")
    assert P("a0*k + 3").derive(rules).is_zero()


def test_derive_is_a_derivation():
    rules = {Sym("sigma"): P("e*sigma*tau"), Sym("tau"): P("e*tau^2 - mu*sigma + r")}
    p, q = P("a1*sigma^2*tau + b1*tau - 2"), P("sigma - a0*tau^3")
    assert (p * q).derive(rules) == p.derive(rules) * q + p * q.derive(rules)


def test_split_recombines():
    p = P("3*a1*sigma^2*tau + b1*tau - sigma + 7")
    parts = p.split((Sym("sigma"), Sym("tau")))
    assert set(parts) == {(2, 1), (0, 1), (1, 0), (0, 0)}
    assert parts[(2, 1)] == P("3*a1")
    total = MPoly.zero()
    for (i, j), c in parts.items():
        total = total + c * P("sigma") ** i * P("tau") ** j
    assert total == p


def test_leading_term_graded_lex():
    p = P("4*a2^3+144*a2^2+720*a2")
    assert max(p.terms) == monomial({A2: 3}) and p.terms[max(p.terms)] == 4
    # at equal degree the earlier symbol dominates
    assert max(P("a0*k + a1^2").terms) == monomial({A0: 1, K: 1})


# ---------------------------------------------------------------- normalize


def test_normalize_paper_equation():
    assert P("4*a2^3+144*a2^2+720*a2").normalize() == P("a2^3+36*a2^2+180*a2")


def test_normalize_zero():
    assert MPoly.zero().normalize() == MPoly.zero()


def test_normalize_sign_flip():
    assert P("-3*a1").normalize() == P("a1")


def test_normalize_idempotent_random():
    rng = random.Random(5)
    for _ in range(50):
        p = _random_poly(rng)
        n = p.normalize()
        assert n.normalize() == n
        assert n.normalize() is n


def test_normalize_preserves_zero_set():
    rng = random.Random(6)
    for _ in range(50):
        p = _random_poly(rng)
        point = {s: F(rng.randint(-4, 4), rng.randint(1, 3)) for s in p.symbols()}
        assert (p.eval_rat(point) == 0) == (p.normalize().eval_rat(point) == 0)


# ---------------------------------------------------------------- substitute


def test_substitute_root_annihilates():
    p = P("4*a2^3+144*a2^2+720*a2")
    assert p.substitute({A2: F(-30)}).is_zero()
    assert p.substitute({A2: 0}).is_zero()


def test_substitute_exact_value():
    assert P("4*a2^3+144*a2^2+720*a2").substitute({A2: 1}) == MPoly.const(868)


def test_substitute_with_polynomial_value():
    p = P("a1^2 - k")
    q = p.substitute({A1: P("k+1")})
    assert q == P("k^2 + k + 1")


# ---------------------------------------------------------------- univariate


def test_as_univariate_dense_list():
    assert P("4*a2^3+144*a2^2+720*a2").as_univariate(A2) == [0, 720, 144, 4]


def test_as_univariate_second_symbol_absent():
    assert P("a1*a2").as_univariate(A2) is None


def test_as_univariate_constant():
    assert P("7").as_univariate(K) == [7]


# ---------------------------------------------------------------- roots


def test_rational_roots_paper_cubic():
    # oracle: 4*a2*(a2+6)*(a2+30) expands to the coefficient list
    assert P("4*a2*(a2+6)*(a2+30)") == P("4*a2^3+144*a2^2+720*a2")
    assert rational_roots([0, 720, 144, 4]) == {F(0), F(-6), F(-30)}


def test_rational_roots_none():
    assert rational_roots([1, 0, 1]) == set()


def test_rational_roots_half():
    assert rational_roots([-1, 2]) == {F(1, 2)}


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots([0, 0, 0])


def test_rational_roots_vs_brute_force_grid():
    # any rational root p/q of a primitive integer polynomial has p | c0 and
    # q | cn, so coefficients in [-20, 20] keep all roots inside the grid
    rng = random.Random(11)
    for _ in range(60):
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.choice([1, -1]) * rng.randint(1, 20)]
        if all(c == 0 for c in coeffs):
            continue
        brute = set()
        n = len(coeffs) - 1
        for num in range(-200, 201):
            for den in range(1, 21):
                # homogenized integer evaluation of p(num/den)
                if sum(c * num**i * den ** (n - i) for i, c in enumerate(coeffs)) == 0:
                    brute.add(F(num, den))
        assert rational_roots(coeffs) == brute


def test_rational_roots_thirty_digit_coefficients_are_fast():
    # trial division to sqrt(10**30) would not finish; the cost must follow
    # the digit count instead
    start = time.perf_counter()
    assert rational_roots([-3 * (10**30 + 57), 0, 3]) == set()
    assert rational_roots([0, 0, 0, -81 * 10**12, 0, 1]) == {F(0), F(9 * 10**6), F(-9 * 10**6)}
    assert time.perf_counter() - start <= 2


@st.composite
def split_polys(draw):
    """c * prod((q_i*x - p_i)**m_i) * (x^2 + s) with s > 0, and its roots."""
    x = MPoly.var(a(0))
    poly = MPoly.const(F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))))
    poly = poly * draw(st.sampled_from([1, -1]))
    roots = set()
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.integers(-(10**30), 10**30)), draw(st.integers(1, 10**6))
        roots.add(F(p, q))
        poly = poly * (x * q - p) ** draw(st.integers(1, 3))
    s = F(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**6)))
    return (poly * (x * x + s)).as_univariate(a(0)), roots


@settings(max_examples=100, deadline=None, derandomize=True)
@given(split_polys())
def test_rational_roots_of_split_products(case):
    coeffs, roots = case
    assert rational_roots(coeffs) == roots


def _list_mul(f, g):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _list_add(f, g):
    out = [x + y for x, y in zip(f, g)] + f[len(g):] + g[len(f):]
    while out and out[-1] == 0:
        out.pop()
    return out


_INT_LISTS = st.lists(st.integers(-(10**6), 10**6), max_size=8)
# unit and small leading coefficients exercise the steps that need no scaling
_LEADS = st.sampled_from([1, -1, 2, -3]) | st.integers(-(10**6), 10**6).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_INT_LISTS, _INT_LISTS, _LEADS)
def test_pseudo_division_identity(f, g, lead):
    g = g[:4] + [lead]
    while f and f[-1] == 0:
        f.pop()
    q, r, k = _pseudo_divmod(f, g)
    assert all(type(c) is int for c in q + r)
    assert len(r) < len(g) and (not r or r[-1] != 0)
    assert [abs(lead) ** k * c for c in f] == _list_add(_list_mul(q, g), r)


def _fraction_primitive(cs):
    den = math.lcm(*[F(c).denominator for c in cs])
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _fraction_divmod(f, g):
    r = [F(c) for c in f]
    q = [F(0)] * max(len(f) - len(g) + 1, 0)
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        k = len(r) - len(g)
        q[k] = c
        for i, gc in enumerate(g):
            r[k + i] -= c * gc
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _fraction_rational_roots(coeffs):
    # the Sturm-bisection root finder with Fraction long division, before the
    # integer pseudo-remainders
    cs = [F(c) for c in coeffs]
    while cs[-1] == 0:
        cs.pop()
    roots = set()
    while len(cs) > 1 and cs[0] == 0:
        roots.add(F(0))
        cs.pop(0)
    f = _fraction_primitive(cs)
    n, an = len(f) - 1, f[-1]
    if n == 0:
        return roots
    g = [c * an ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    d, e = g, _derivative(g)
    while e:
        r = _fraction_divmod(d, e)[1]
        d, e = e, (_fraction_primitive(r) if r else [])
    h = _fraction_primitive(_fraction_divmod(g, d)[0])
    sturm = [h, _derivative(h)]
    while len(sturm[-1]) > 1:
        sturm.append([-c for c in _fraction_primitive(_fraction_divmod(sturm[-2], sturm[-1])[1])])

    def variations(x):
        signs = [v > 0 for v in (_horner(p, x) for p in sturm) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in h)
    work = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while work:
        lo, hi, vlo, vhi = work.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _horner(h, hi) == 0:
                roots.add(F(hi, an))
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        work += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return roots


@st.composite
def linear_and_quadratic_products(draw):
    """c * prod of linear factors q*x - p and irreducible quadratics
    u*x^2 + v*x + w, with multiplicities."""
    x = MPoly.var(a(0))
    poly = MPoly.const(F(draw(st.integers(-(10**6), 10**6).filter(bool)), draw(st.integers(1, 10**3))))
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.integers(-(10**12), 10**12)), draw(st.integers(1, 10**4))
        poly = poly * (x * q - p) ** draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(1, 10**4))
        v, w = draw(st.integers(-(10**8), 10**8)), draw(st.integers(-(10**8), 10**8))
        disc = v * v - 4 * u * w
        if disc < 0 or math.isqrt(disc) ** 2 != disc:  # irreducible over Q
            poly = poly * (x * x * u + x * v + w) ** draw(st.integers(1, 2))
    return poly.as_univariate(a(0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(linear_and_quadratic_products())
def test_rational_roots_match_fraction_division(coeffs):
    assert rational_roots(coeffs) == _fraction_rational_roots(coeffs)


_BIG = st.integers(-(10**30), 10**30)


@st.composite
def low_degree_polys(draw):
    """Degree <= 2 with coefficients up to 10**30: a factor of either sign,
    possibly a Fraction, times one of a line q1*x - p1, two lines (a square
    discriminant; 2*f2 rarely divides -f1 +- s), a line squared (a double
    root) or a random quadratic (mostly a non-square or negative
    discriminant), then times x**z for zero roots."""
    lead = F(draw(st.integers(1, 10**30)), draw(st.sampled_from([1, 7]) | st.integers(1, 10**30)))
    lead *= draw(st.sampled_from([1, -1]))
    x = MPoly.var(a(0))
    kind = draw(st.sampled_from(["line", "roots", "double", "random"]))
    if kind == "random":
        body = x * x * draw(_BIG) + x * draw(_BIG) + draw(_BIG)
    else:
        p1, q1 = draw(_BIG), draw(st.integers(1, 10**15))
        p2, q2 = (p1, q1) if kind == "double" else (draw(_BIG), draw(st.integers(1, 10**15)))
        body = x * q1 - p1 if kind == "line" else (x * q1 - p1) * (x * q2 - p2)
    poly = body * x ** draw(st.integers(0, 2)) * lead
    coeffs = poly.as_univariate(a(0))
    assume(any(coeffs))
    return coeffs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(low_degree_polys())
def test_rational_roots_closed_form_matches_fraction_division(coeffs):
    assert rational_roots(coeffs) == _fraction_rational_roots(coeffs)


@pytest.mark.parametrize(
    "coeffs, roots",
    [
        ([0, 0, 5], {F(0)}),  # only zero roots
        ([0, -(10**30), 10**15 * 3], {F(0), F(10**15, 3)}),  # a zero root, then a line
        ([9 * 10**30, -6 * 10**15, 1], {F(3 * 10**15)}),  # disc = 0: the double root once
        ([10**30 + 1, 0, 1], set()),  # disc < 0
        ([-3 * (10**30 + 57), 0, 3], set()),  # disc > 0, not a square
        ([1, 5, 6], {F(-1, 2), F(-1, 3)}),  # square disc, 2*f2 divides neither -f1 +- s
        ([-2, -1, -(10**30)], set()),  # negative leading coefficient, disc < 0
        ([10**30, 10**30 - 1, -1], {F(10**30), F(-1)}),  # negative leading coefficient
        # Fraction coefficients: (x - 2/3) * (x + 5/7) / 10**30
        ([F(-10, 21 * 10**30), F(1, 21 * 10**30), F(1, 10**30)], {F(2, 3), F(-5, 7)}),
    ],
)
def test_rational_roots_closed_form_cases(coeffs, roots):
    assert rational_roots(coeffs) == roots == _fraction_rational_roots(coeffs)


@st.composite
def big_products(draw):
    """Products of degree 3 to 8 whose factors carry 10**12 to 10**30
    coefficients: lines q*x - p, with multiplicity, and quadratics
    u*x^2 + v*x + w, reducible or not, the Sturm search's inputs."""
    x = MPoly.var(a(0))

    def big():
        return draw(st.integers(10**12, 10**30)) * draw(st.sampled_from([1, -1]))

    poly, degree = MPoly.const(draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, -1]))), 0
    target = draw(st.integers(3, 8))
    while degree < target:
        if target - degree < 2 or draw(st.booleans()):
            m = draw(st.integers(1, min(2, target - degree)))
            poly, degree = poly * (x * draw(st.integers(1, 10**12)) - big()) ** m, degree + m
        else:
            u = draw(st.integers(1, 10**12))
            poly, degree = poly * (x * x * u + x * big() + big()), degree + 2
    return poly.as_univariate(a(0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(big_products())
def test_rational_roots_of_big_products_match_fraction_division(coeffs):
    assert 3 <= len(coeffs) - 1 <= 8
    assert rational_roots(coeffs) == _fraction_rational_roots(coeffs)


def _count_horner(monkeypatch):
    calls = []

    def counting(cs, x):
        calls.append(x)
        return _horner(cs, x)

    monkeypatch.setattr("fkdv.poly._horner", counting)
    return calls


@pytest.mark.parametrize(
    "coeffs",
    [[5, -3], [-3 * (10**30 + 57), 0, 3], [9 * 10**30, -6 * 10**15, 1], [0, 0, 0, 1, 5, 6]],
)
def test_rational_roots_up_to_degree_two_evaluates_nothing(coeffs, monkeypatch):
    calls = _count_horner(monkeypatch)
    rational_roots(coeffs)
    assert calls == []


def test_rational_roots_sturm_search_cost_follows_the_bound(monkeypatch):
    # (16x^2 - (10^14 + 31)) * (7x^2 - (10^12 + 39)) * (3x + 5*10^9): the
    # Cauchy-bound search evaluated 2,429 Sturm polynomials, the Fujiwara
    # bound 1,097
    x = MPoly.var(a(0))
    poly = (x * x * 16 - (10**14 + 31)) * (x * x * 7 - (10**12 + 39)) * (x * 3 + 5 * 10**9)
    calls = _count_horner(monkeypatch)
    assert rational_roots(poly.as_univariate(a(0))) == {F(-5 * 10**9, 3)}
    assert len(calls) <= 1100


# ---------------------------------------------------------------- properties

_SYMS = [a(0), a(1), a(2), b(1), Sym("k"), Sym("mu")]


def _random_poly(rng: random.Random) -> MPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = monomial({s: rng.randint(1, 3) for s in rng.sample(_SYMS, rng.randint(0, 2))})
        terms[mono] = terms.get(mono, 0) + F(rng.randint(-9, 9), rng.randint(1, 4))
    return MPoly(terms)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        syms = draw(st.lists(st.sampled_from(_SYMS), max_size=2, unique=True))
        mono = monomial({s: draw(st.integers(1, 3)) for s in syms})
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4))
        terms[mono] = terms.get(mono, 0) + F(num, den)
    return MPoly(terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@st.composite
def bindings(draw):
    out = {}
    for s in draw(st.lists(st.sampled_from(_SYMS), max_size=3, unique=True)):
        if draw(st.booleans()):
            out[s] = F(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        else:
            out[s] = draw(polys())
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), polys(), bindings())
def test_substitution_is_a_homomorphism(p, q, bind):
    assert (p * q).substitute(bind) == p.substitute(bind) * q.substitute(bind)
    assert (p + q).substitute(bind) == p.substitute(bind) + q.substitute(bind)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys())
def test_ascii_parse_round_trip(p):
    assert parse_poly(p.ascii()) == p


# ints (0 among them) and fractions, as the solver binds both
_RATS = st.sampled_from([0, 1, -1]) | st.builds(F, st.integers(-30, 30), st.integers(1, 6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), st.integers(0, 12))
def test_power_is_repeated_multiplication(p, n):
    product = MPoly.const(1)
    for _ in range(n):
        product = product * p
    assert p**n == product


@pytest.mark.parametrize("text", ["1/0", "2.5", "a0^b1", "(a0", "a0 a1", "x", "1/a0", ""])
def test_parse_rejects_malformed_text_with_value_error(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_power_of_a_large_constant_is_fast():
    # a constant is a monomial, so its power is one int power, not 100000 products
    start = time.perf_counter()
    assert parse_poly("3^100000") == MPoly.const(3**100000)
    assert time.perf_counter() - start < 0.5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), st.fixed_dictionaries({s: _RATS for s in _SYMS}))
def test_eval_rat_matches_full_substitution(p, point):
    got = p.eval_rat(point)
    assert type(got) is F
    assert got == p.substitute(point).constant_value()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), polys(), st.sampled_from(_SYMS), _RATS, st.booleans())
def test_rational_substitute_matches_constant_polynomial(base, q, s, c, cancel):
    # q * (s - c) vanishes at s = c, so its terms cancel in the substitution
    p = base + q * (MPoly.var(s) - c) if cancel else base
    got = p.substitute({s: c})
    general = p.substitute({s: MPoly.const(c)})
    assert got == general
    assert got.ascii() == general.ascii() and got.degree() == general.degree()
    assert got == base.substitute({s: c})
    assert s not in got.symbols()
    assert all(v != 0 for v in got.terms.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), bindings())
def test_substitute_ignores_absent_symbols(p, bind):
    absent = {s: v for s, v in bind.items() if s not in p.symbols()}
    assert p.substitute(absent) == p
    assert p.substitute({}) == p


@st.composite
def rational_bindings(draw):
    """Rational values, zeros among them, for some of the symbols."""
    syms = draw(st.lists(st.sampled_from(_SYMS), min_size=1, max_size=3, unique=True))
    return {s: draw(_RATS) for s in syms}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), rational_bindings())
def test_partial_and_zero_bindings_match_constant_polynomials(p, bind):
    zero = {s: 0 for s in bind}
    for rats in (bind, zero):
        got = p.substitute(rats)
        assert got == p.substitute({s: MPoly.const(v) for s, v in rats.items()})
        assert all(v != 0 for v in got.terms.values())
    # binding to 0 keeps the untouched terms, codes and coefficients
    for k, c in _rats(p.substitute(zero)).items():
        assert not {s for s, _ in exps_of(k)} & zero.keys()
        assert k in p.terms and _rats(p)[k] == c


def _rebuilt_symbols(p):
    return {s for k in p.terms for s, _ in exps_of(k)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), polys(), bindings(), _RATS)
def test_cached_symbols_match_a_rebuild(p, q, bind, scale):
    for r in (p, q):
        r.symbols()  # fill the caches before deriving new polynomials
    for r in (p + q, p * q, p - q, p.substitute(bind), (p * scale).normalize(), p.normalize()):
        assert r.symbols() == _rebuilt_symbols(r)
        assert r.normalize().symbols() == _rebuilt_symbols(r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), bindings())
def test_ascii_stable_and_parses_after_arithmetic(p, q, bind):
    first = p.ascii()
    assert p.ascii() == first == str(p)
    for r in (p + q, p * q, p.substitute(bind), (p * q).substitute(bind)):
        text = r.ascii()
        assert text == r.ascii() == MPoly(dict(sorted(_rats(r).items()))).ascii()
        assert parse_poly(text) == r
    assert p.ascii() == first


# ---------------------------------------------------------------- coefficients


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MPoly.const(0.5)
    with pytest.raises(TypeError):
        MPoly({monomial({A0: 1}): 1.0})


def test_integral_coefficients_are_ints_and_boundaries_fractions():
    # 3*a0 + 2 + 1/2*k is the int coefficients (6, 4, 1) over den 2
    p = MPoly.var(A0) * F(6, 2) + MPoly.const(F(4, 2)) + P("1/2*k")
    assert p.terms == {monomial({A0: 1}): 6, 0: 4, monomial({K: 1}): 1} and p.den == 2
    assert type(MPoly.var(A0).terms[monomial({A0: 1})]) is int
    assert type(MPoly.const(F(8, 4)).constant_value()) is F
    assert type(MPoly.zero().constant_value()) is F
    assert type(P("2*a0 + 4").content()) is F
    assert type(P("2*a0 + 4").eval_rat({A0: 1})) is F
    # a coefficient handed out is an int when integral, else a Fraction
    coeffs = P("3/2*a0 + 2").as_univariate(A0)
    assert coeffs == [2, F(3, 2)] and [type(c) for c in coeffs] == [int, F]
    pivots = P("2*a0 + 1/2*a1 + k^2").linear_pivots()
    assert pivots == {A0: 2, A1: F(1, 2)} and type(pivots[A0]) is int
    # int and Fraction coefficients of equal value make equal polynomials
    q = MPoly({monomial({A0: 1}): F(3), monomial(): F(1, 2)})
    assert q == P("3*a0 + 1/2") and hash(q) == hash(P("3*a0 + 1/2"))
    # a result is in lowest terms: here the denominator cancels
    r = P("1/2*a0 + 3/2") * 2
    assert (r.terms, r.den) == ({monomial({A0: 1}): 1, 0: 3}, 1)
    assert r.normalize() is r


def _fraction_content(p):
    # the content from the rational view: the gcd of the numerators over
    # the lcm of the denominators, every coefficient in lowest terms
    rats = _rats(p).values()
    return F(math.gcd(*[c.numerator for c in rats]), math.lcm(*[c.denominator for c in rats]))


def _fraction_normalize(p):
    # the rational view divided by the content, negated when its leading
    # coefficient is negative
    rats = _rats(p)
    content = _fraction_content(p)
    if rats and rats[max(rats)] < 0:
        content = -content
    return {k: c / content for k, c in rats.items()}


@pytest.mark.parametrize(
    ("text", "content", "normal"),
    [
        ("-6*a0^2 + 4*a1 - 10", 2, "3*a0^2 - 2*a1 + 5"),  # negative lead
        ("12*a0*a1 + 18*k", 6, "2*a0*a1 + 3*k"),  # gcd > 1
        ("-7*a0^3", 7, "a0^3"),  # one term
        ("a0 - 3*a1 + 2", 1, "a0 - 3*a1 + 2"),  # already normal
    ],
)
def test_int_content_and_normalize_agree_with_the_fraction_loop(text, content, normal):
    p = P(text)
    assert p.content() == content and type(p.content()) is F
    for q in (p, p * F(1, 6)):  # over den 1, and over a den above 1
        assert q.content() == _fraction_content(q)
        n = q.normalize()
        assert n == P(normal) and n.den == 1
        assert _rats(n) == _fraction_normalize(q)
    if p == P(normal):
        assert p.normalize() is p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), st.integers(-(10**6), 10**6).filter(bool))
def test_int_path_matches_the_fraction_loop(p, scale):
    ints = p.normalize() * scale
    for q in (ints, ints * F(1, 7), p):
        assert q.content() == _fraction_content(q)
        assert _rats(q.normalize()) == _fraction_normalize(q)
    assert ints.normalize() == p.normalize()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), _RATS)
def test_normalize_gives_coprime_int_coefficients(p, scale):
    n = (p * scale).normalize()
    coeffs = list(n.terms.values())
    assert n.den == 1 and all(type(c) is int for c in coeffs)
    if coeffs:
        assert math.gcd(*coeffs) == 1
        lead = max(n.terms)
        assert n.terms[lead] > 0
        # n is p up to a nonzero rational factor
        assert n * _rats(p * scale)[lead] == (p * scale) * n.terms[lead]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), st.sampled_from(_SYMS))
def test_derive_and_split_build_canonical_monomials(p, s):
    # derive and split assemble residual codes by subtraction: each must be
    # the code monomial() builds from its decoded exponents
    parts = p.split((s, Sym("mu"))).values()
    for q in (p.derive({s: MPoly.const(1)}), p.derive({s: p}), *parts):
        for k in q.terms:
            assert monomial(exps_of(k)) == k


# ---------------------------------------------------------------- packed monomials
#
# The reference below keeps a monomial as a {symbol: exponent} dict and a
# polynomial as a {sorted exponent tuple: coefficient} dict, with no packing.

# the fields at both ends of the packed code and either side of a family edge
_WIDE_SYMS = [a(0), a(1), a(16), b(1), b(16), Sym("k"), Sym("tau"), Sym("ycsch")]
_MAX_DEGREE = 255


def _ref_key(exps: dict) -> tuple:
    return tuple(sorted(((s, e) for s, e in exps.items() if e), key=lambda se: se[0].key))


def _ref_cmp(a: tuple, b: tuple) -> int:
    """The graded-lex rule on sorted (symbol, exponent) tuples: higher total
    degree first, then the exponent of the earliest symbol."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) and j < len(b):
        (sa, ea), (sb, eb) = a[i], b[j]
        if sa is sb:
            if ea != eb:
                return 1 if ea > eb else -1
            i, j = i + 1, j + 1
        elif sa.key < sb.key:
            return 1  # earlier symbol with positive exponent wins
        else:
            return -1
    return 1 if i < len(a) else -1 if j < len(b) else 0


def _ref_of(p: MPoly) -> dict:
    # the decoded exponents and rational coefficients, after checking that
    # each key is a plain int whose degree field agrees with its fields
    # (monomial() raises above the degree cap) and that p is in lowest terms
    for k in p.terms:
        assert type(k) is int and monomial(exps_of(k)) == k
    _assert_canonical(p)
    return {exps_of(k): c for k, c in _rats(p).items()}


def _ref_poly(ref: dict) -> MPoly:
    return MPoly({monomial(k): c for k, c in ref.items()})


def _ref_add(acc: dict, key: tuple, c) -> None:
    acc[key] = acc.get(key, 0) + c
    if acc[key] == 0:
        del acc[key]


def _ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            exps = dict(k1)
            for s, e in k2:
                exps[s] = exps.get(s, 0) + e
            _ref_add(out, _ref_key(exps), c1 * c2)
    return out


def _ref_partial(p: dict, s) -> dict:
    out: dict = {}
    for k, c in p.items():
        exps = dict(k)
        e = exps.get(s, 0)
        if e:
            exps[s] = e - 1
            _ref_add(out, _ref_key(exps), c * e)
    return out


def _ref_gcd(p: dict) -> dict:
    """The componentwise minimum of the exponents over the terms of p."""
    common = None
    for k in p:
        exps = dict(k)
        common = exps if common is None else {s: min(e, exps.get(s, 0)) for s, e in common.items()}
    return common or {}


@st.composite
def wide_monos(draw, max_degree=60):
    syms = draw(st.lists(st.sampled_from(_WIDE_SYMS), max_size=4, unique=True))
    exps = {}
    for s in syms:
        e = draw(st.integers(1, max_degree))
        if sum(exps.values()) + e <= max_degree:
            exps[s] = e
    return exps


@st.composite
def wide_refs(draw, max_degree=60):
    ref = {}
    for _ in range(draw(st.integers(0, 5))):
        coef = F(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        _ref_add(ref, _ref_key(draw(wide_monos(max_degree))), coef)
    return ref


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wide_monos(_MAX_DEGREE), wide_monos(_MAX_DEGREE))
def test_packed_order_and_decoding_match_the_reference(x, y):
    mx, my = monomial(x), monomial(y)
    assert exps_of(mx) == _ref_key(x)
    assert monomial(x.items()) == mx and (mx >> DEGREE_SHIFT) == sum(x.values())
    cmp = _ref_cmp(_ref_key(x), _ref_key(y))
    assert (mx < my, mx > my, mx == my) == (cmp < 0, cmp > 0, cmp == 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wide_monos(), wide_monos())
def test_packed_product_matches_the_reference(x, y):
    # a product of monomials is the sum of their codes, a power a multiple
    sums = {s: x.get(s, 0) + y.get(s, 0) for s in {*x, *y}}
    assert monomial(x) + monomial(y) == monomial(sums)
    assert exps_of(monomial(x) + monomial(y)) == _ref_key(sums)
    assert 3 * monomial(x) == monomial({s: 3 * e for s, e in x.items()})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_refs(), wide_refs())
def test_packed_mul_matches_the_reference(p, q):
    assert _ref_of(_ref_poly(p) * _ref_poly(q)) == _ref_mul(p, q)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_refs(), st.lists(st.sampled_from(_WIDE_SYMS), min_size=1, max_size=3, unique=True))
def test_packed_split_matches_the_reference(p, syms):
    expected: dict = {}
    for k, c in p.items():
        exps = dict(k)
        key = tuple(exps.pop(s, 0) for s in syms)
        expected.setdefault(key, {})[_ref_key(exps)] = c
    got = _ref_poly(p).split(syms)
    assert {key: _ref_of(part) for key, part in got.items()} == expected


def test_sum_of_products_adds_every_product_into_one_map():
    p, q = P("a0 + 1"), P("a1 - 2*k")
    got = MPoly.sum_of_products(
        [(p, q), (q, MPoly.const(2)), (MPoly.const(3), p, p), (q, -p), (p,)]
    )
    assert got == q * 2 + p * p * 3 + p
    assert MPoly.sum_of_products([]).is_zero()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_refs(), wide_refs(30), wide_refs(30), *[st.sampled_from(_WIDE_SYMS)] * 2)
def test_packed_derive_matches_the_reference(p, r1, r2, s1, s2):
    rules = {s1: r1, s2: r2}
    expected: dict = {}
    for s, rule in rules.items():
        for key, c in _ref_mul(_ref_partial(p, s), rule).items():
            _ref_add(expected, key, c)
    got = _ref_poly(p).derive({s: _ref_poly(rule) for s, rule in rules.items()})
    assert _ref_of(got) == expected


def _ref_apply(op: str, p: dict, q: dict, s, v) -> dict:
    """The reference result of kernel operation ``op`` (see _kernel_apply)."""
    if op in ("add", "sub"):
        out = dict(p)
        for k, c in q.items():
            _ref_add(out, k, c if op == "add" else -c)
        return out
    if op == "undo":
        return p
    if op == "scale":
        return {k: c * v for k, c in p.items() if v}
    if op in ("mul", "square"):
        return _ref_mul(p, q if op == "mul" else p)
    if op == "conjugate":
        diff = _ref_mul(q, q)
        _ref_add(diff, _ref_key({s: 2}), -1)
        return _ref_mul(p, diff)
    if op == "substitute":
        out = {}
        for k, c in p.items():
            exps = dict(k)
            _ref_add(out, _ref_key({**exps, s: 0}), c * v ** exps.get(s, 0))
        return out
    if op == "derive":
        return _ref_mul(_ref_partial(p, s), q)
    if op == "coefficient_of":
        top = max((dict(k).get(s, 0) for k in p), default=0)
        return {_ref_key({**dict(k), s: 0}): c for k, c in p.items() if dict(k).get(s, 0) == top}
    if op == "divide_gcd":
        common = _ref_gcd(p)
        return {
            _ref_key({t: e - common.get(t, 0) for t, e in dict(k).items()}): c for k, c in p.items()
        }
    raise AssertionError(op)


def _kernel_apply(op: str, poly: MPoly, other: MPoly, s, v) -> MPoly:
    if op == "add":
        return poly + other
    if op == "sub":
        return poly - other
    if op == "undo":
        # other's terms cancel in the sum
        return (poly + other) - other
    if op == "scale":
        return poly * v
    if op == "mul":
        return poly * other
    if op == "square":
        return poly**2
    if op == "conjugate":
        # the cross terms cancel in the product
        return poly * ((other - MPoly.var(s)) * (other + MPoly.var(s)))
    if op == "substitute":
        return poly.substitute({s: v})
    if op == "derive":
        return poly.derive({s: other})
    if op == "coefficient_of":
        return poly.coefficient_of(s, poly.max_exponent(s))
    if op == "divide_gcd":
        return poly.divide_mono(poly.monomial_gcd())
    raise AssertionError(op)


_KERNEL_OPS = ("add", "sub", "undo", "scale", "mul", "square", "conjugate", "substitute",
               "derive", "coefficient_of", "divide_gcd", "normalize")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    wide_refs(20),
    wide_refs(20),
    st.lists(
        st.tuples(st.sampled_from(_KERNEL_OPS), st.sampled_from(_WIDE_SYMS), _RATS), max_size=3
    ),
)
def test_kernel_keeps_int_codes_and_matches_the_reference(p, q, ops):
    # after each operation _ref_of checks the keys, the coefficients and
    # the lowest terms and decodes them; at most three operations on degree 20 stay within the
    # degree cap (the largest, two squarings after a conjugate, reach 240)
    poly, other, ref = _ref_poly(p), _ref_poly(q), p
    for op, s, v in ops:
        if op == "normalize":
            # normalize scales every term by one factor: read it off a term
            poly = poly.normalize()
            if ref:
                k0 = next(iter(ref))
                factor = F(_ref_of(poly)[k0], ref[k0])
                ref = {k: c * factor for k, c in ref.items()}
        else:
            poly, ref = _kernel_apply(op, poly, other, s, v), _ref_apply(op, ref, q, s, v)
        assert _ref_of(poly) == ref


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_refs(), st.dictionaries(st.sampled_from(_WIDE_SYMS), _RATS | wide_refs(3), max_size=3))
def test_packed_substitute_matches_the_reference(p, bind):
    expected: dict = {}
    for k, c in p.items():
        term = {_ref_key({s: e for s, e in k if s not in bind}): c}
        for s, e in k:
            if s in bind:
                v = bind[s] if isinstance(bind[s], dict) else ({(): bind[s]} if bind[s] else {})
                for _ in range(e):
                    term = _ref_mul(term, v)
        for key, tc in term.items():
            _ref_add(expected, key, tc)
    values = {s: _ref_poly(v) if isinstance(v, dict) else v for s, v in bind.items()}
    assert _ref_of(_ref_poly(p).substitute(values)) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_refs(), wide_monos(30))
def test_packed_gcd_and_division_match_the_reference(p, g):
    # every term times g has g as a common factor
    scaled = _ref_mul(p, {_ref_key(g): 1})
    poly = _ref_poly(scaled)
    assert exps_of(poly.monomial_gcd()) == _ref_key(_ref_gcd(scaled))
    assert _ref_of(poly.divide_mono(monomial(g))) == p
    if p and g:
        with pytest.raises(ValueError):
            _ref_poly(p).divide_mono(monomial({**g, Sym("lam"): 1}))


def test_packed_degree_boundary():
    top = monomial({a(0): _MAX_DEGREE})
    assert top >> DEGREE_SHIFT == _MAX_DEGREE
    assert exps_of(top) == ((a(0), _MAX_DEGREE),)
    with pytest.raises(ValueError, match="negative exponent"):
        monomial({a(0): 2, b(1): -1})
    last = Sym("ycsch")
    assert MPoly.var(last) ** _MAX_DEGREE == MPoly({monomial({last: _MAX_DEGREE}): 1})


@pytest.mark.parametrize(
    "overflow",
    [
        lambda: monomial({a(0): _MAX_DEGREE + 1}),
        lambda: monomial({a(16): 200, Sym("ycsch"): 56}),
        lambda: MPoly.var(a(0)) ** 200 * (MPoly.var(Sym("k")) ** 55 + MPoly.var(b(1)) ** 56),
        lambda: MPoly.var(a(0)) ** (_MAX_DEGREE + 1),
        lambda: (MPoly.var(a(0)) + MPoly.var(b(1))) ** 256,
        lambda: parse_poly("tau^256"),
    ],
    ids=["monomial", "monomial-two-fields", "MPoly.__mul__", "MPoly.__pow__",
         "MPoly.__pow__-sum", "parse"],
)
def test_packed_degree_above_cap_raises(overflow):
    with pytest.raises(ValueError, match="exceeds 255"):
        overflow()


# ---------------------------------------------------------------- previous parser and evaluator
# The parser and the exact evaluator were rewritten: the parser adds a
# sum's terms into one code-keyed dict instead of rebuilding the sum for
# every term, and the evaluator converts a point once for a whole system.
# The previous implementations are kept here as references; the rewrites
# must agree with them on every input, errors and their messages included.


class _PreviousParser:
    """The previous parser: every token becomes an MPoly, and a sum is
    rebuilt for every term."""

    def __init__(self, text):
        self.tokens = _Parser._tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens at {self.peek()!r}")
        return p

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.term() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            p = p + self.term() * sign
        return p

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self):
        p = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"expected integer exponent, got {tok!r}")
            p = p ** int(tok)
        return p

    def atom(self):
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return p
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise ValueError(f"expected nonzero integer denominator, got {den!r}")
                return MPoly.const(F(num, int(den)))
            return MPoly.const(num)
        return MPoly.var(Sym(tok))


def _parsed_by(parse, text):
    """The polynomial ``parse`` makes of ``text``, or the message of the
    ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _agree_with_previous_parser(text):
    got = _parsed_by(parse_poly, text)
    assert got == _parsed_by(lambda t: _PreviousParser(t).parse(), text), text
    if isinstance(got, MPoly):
        _assert_canonical(got)


# symbol powers up to past the degree cap; a parenthesized factor only gets
# small powers, so no property example expands a large power of a sum
_SYMBOL_POWERS = st.sampled_from(["a0", "a1", "k", "tau", "ycsch"]).flatmap(
    lambda s: st.sampled_from([s, f"{s}^2", f"{s}^0", f"{s}^100", f"{s}^200", f"{s}^255", f"{s}^256"])
)
_NUMBERS = st.sampled_from(["0", "1", "2", "7", "2^3", "0^0", "0^2", "3/4", "12/6", "0/5", "1/0", "2^3/4"])


def _sums(parts):
    return st.lists(st.tuples(st.sampled_from([" + ", " - ", "-", "+-", "--"]), parts),
                    min_size=1, max_size=4).map(lambda ts: "".join(op + t for op, t in ts)[1:])


_FACTORED = st.recursive(
    _SYMBOL_POWERS | _NUMBERS,
    lambda inner: st.one_of(
        inner.map(lambda t: f"-{t}"),
        st.tuples(_sums(inner), st.sampled_from(["", "^0", "^2", "^3"])).map(lambda t: f"({t[0]}){t[1]}"),
        st.lists(inner, min_size=2, max_size=4).map("*".join),
        _sums(inner),
    ),
    max_leaves=10,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_FACTORED)
def test_parser_matches_the_previous_parser_on_factored_text(text):
    _agree_with_previous_parser(text)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys(), wide_refs())
def test_parser_matches_the_previous_parser_on_ascii_text(p, q):
    _agree_with_previous_parser(p.ascii())
    _agree_with_previous_parser(_ref_poly(q).ascii())


@pytest.mark.parametrize("method", ["tanh", "pre"])
def test_previous_parser_reads_each_transcription_as_load_fixture_holds_it(method):
    # the parser's real traffic: long flat sums inside products of powers of
    # sums, such as e^5*(mu^2+rho)^2*(12*mu*e^3-6*mu*e+a1)*b1, a shape the
    # strategies above never produce
    path = resources.files("fkdv").joinpath("fixtures", fixtures._FILES[method])
    entries = json.loads(path.read_text())["equations"]
    held = load_fixture(method).equations
    assert [eq.label for eq in held] == [entry["label"] for entry in entries]
    for entry, eq in zip(entries, held):
        assert _PreviousParser(entry["expr"]).parse() == eq.poly, entry["label"]
        _assert_canonical(eq.poly)


@pytest.mark.parametrize("text", [
    "a0*-a1^2", "a0*--a1^3", "-a1^2", "a0*-(a1 + 1)^2", "2^3*a0", "1/2^2", "-2^2", "a0*-2^2",
    "0*a0^200*a1^100", "a0^200*a1^100*0", "a0^200*a1^100", "a0^200*a0^100",
    "a0*(a1 + 1)^200*(k + 1)^100", "(a0 - a0)*(a1 + 1)^200*(k + 1)^100", "(a0 - a0)^300",
    "a0^256", "(a0 + 1)^256", "a0^0", "0^0", "3^5*k", "1/2*a0 + 3/2", "1/2*2*a0",
    "(a0*a1)^200", "(2*a0)^3*(-a1)^2", "(0)*a0^200*a1^100", "(a0 - a0)^0", "(7/7)^300",
    "a0^2^3", "(a0^2^3)", "a0*+a1", "a0 *", "a0^-2", "a0^b1", "1/a0", "()", "٣*a0", "a0^²",
    "a٣", "ａ0", "a0\u00a0+ 1", "a0 + ½", "é", "2_", "_a", "a0 \x1c+\t1",
])
def test_parser_matches_the_previous_parser_on_edge_cases(text):
    _agree_with_previous_parser(text)


@pytest.mark.parametrize(("text", "bad"), [
    ("٣*a0", "٣"), ("a0^²", "²"), ("a٣", "٣"), ("ａ0", "ａ"), ("a0\u00a0+ 1", "\u00a0"),
    ("a0 + ½", "½"), ("é", "é"),
])
def test_parser_accepts_only_ascii(text, bad):
    with pytest.raises(ValueError) as info:
        parse_poly(text)
    assert str(info.value) == f"bad character {bad!r} in polynomial text"


def _previous_tokenize(text):
    """The previous tokenizer, which classified characters with
    str.isdigit/isalpha and so also took non-ASCII digits and letters."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()/":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in polynomial text")
    return out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.text(st.sampled_from("a0_9Zz+-*^()/ \t\n\x0b\x1c\x1f!.#~\x00\x7f"), max_size=12)
       | st.text(st.characters(max_codepoint=127), max_size=12))
def test_tokenizer_matches_the_previous_tokenizer_on_ascii_text(text):
    assert _parsed_by(_Parser._tokenize, text) == _parsed_by(_previous_tokenize, text)


def test_parser_keeps_the_degree_cap_and_the_unary_minus_quirk():
    with pytest.raises(ValueError, match="total degree 300 exceeds 255"):
        parse_poly("a0^200*a1^100")
    # a unary minus inside a product binds before ^
    assert parse_poly("a0*-a1^2") == parse_poly("a0*a1^2")
    assert parse_poly("-a1^2") == -parse_poly("a1^2")


def _previous_eval_rat(p, point):
    """The previous MPoly.eval_rat: the point is converted again for every
    polynomial, and so are the polynomial's coefficients."""
    try:
        values = {s: F(point[s]) for s in p.symbols()}
    except KeyError:
        missing = min((s for s in p.symbols() if s not in point), key=lambda s: s.key)
        raise KeyError(f"unbound symbol {missing}") from None
    den = math.lcm(*[v.denominator for v in values.values()])
    powers = {}  # powers[s][e] = N**e, filled on demand
    zero = 0  # the fields of the symbols bound to 0
    for s, v in values.items():
        n = v.numerator * (den // v.denominator)
        powers[s] = [1, n]
        if not n:
            zero |= ((1 << FIELD_BITS) - 1) << s.shift
    d = max(p.degree(), 0)
    scale = [1]  # scale[j] = D**j
    for _ in range(d):
        scale.append(scale[-1] * den)
    rats = _rats(p)
    clear = math.lcm(*[c.denominator for c in rats.values()])
    total = 0
    for k, c in rats.items():
        if k & zero:
            continue
        v = c if clear == 1 else c.numerator * (clear // c.denominator)
        for s, e in exps_of(k):
            row = powers[s]
            while len(row) <= e:
                row.append(row[-1] * row[1])
            v *= row[e]
        total += v * scale[d - (k >> DEGREE_SHIFT)]
    return F(total, clear * scale[d])


def _previous_verify(system, point):
    for p in system:
        missing = [s for s in p.symbols() if s not in point]
        if missing:
            raise UnboundSymbolError(min(missing, key=lambda t: t.key))
    for p in system:
        if _previous_eval_rat(p, point) != 0:
            return False, p
    return True, None


@st.composite
def systems_and_points(draw):
    """A point over _SYMS, values 0, negative and fractional among them, and
    a system whose polynomials each vanish there or not, as drawn."""
    point = draw(st.fixed_dictionaries({s: _RATS for s in _SYMS}))
    system = []
    for p in draw(st.lists(polys(), max_size=5)):
        if draw(st.booleans()):
            p = p - p.substitute(point).constant_value()
        system.append(p)
    return system, point


@settings(max_examples=300, deadline=None, derandomize=True)
@given(systems_and_points())
def test_verify_assignment_matches_the_previous_evaluation(case):
    system, point = case
    ok, witness = verify_assignment(system, point)
    want_ok, want_witness = _previous_verify(system, point)
    assert ok == want_ok and witness is want_witness
    for p in system:
        got = p.eval_rat(point)
        assert type(got) is F and got == _previous_eval_rat(p, point)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(polys(), min_size=1, max_size=4), st.fixed_dictionaries({s: _RATS for s in _SYMS}))
def test_one_point_evaluates_every_polynomial_like_eval_rat(system, values):
    # the tables the first polynomials grow serve the later ones unchanged
    at = Point(values, _SYMS)
    for p in system:
        assert F(at.scaled(p), at.denominator(p)) == p.eval_rat(values)


def test_an_unused_symbol_s_value_is_never_read():
    p = P("a0^2 - 1/4")
    point = {A0: F(-1, 2), K: 0.5, Sym("mu"): "not a number"}
    assert verify_assignment([p, P("2*a0 + 1")], point) == (True, None)
    assert p.eval_rat(point) == 0
    # an unused value does not join the common denominator either
    assert Point(point, p.symbols()).denominator(p) == 4 * 2**2
    with pytest.raises(TypeError):
        P("a0 + k").eval_rat(point)


def test_eval_rat_names_the_least_unbound_symbol():
    with pytest.raises(KeyError, match="unbound symbol a1"):
        P("k*a1 + a2").eval_rat({A0: 1})
    with pytest.raises(UnboundSymbolError) as err:
        verify_assignment([P("a0 + 1"), P("k*a1 + a2")], {A0: -1})
    assert err.value.sym == A1


# ---------------------------------------------------------------- previous substitute
# substitute gained a path for one binding to a rational, the solver's every
# call, which computes each power of the value once, and the kernel then
# moved from int-or-Fraction coefficients to int coefficients over one
# denominator.  The previous substitute is kept here as the reference,
# verbatim but for running on the rational view (_rats) with the Fraction
# products below: both must give the same rational terms in the same order,
# but for a polynomial binding, whose terms come out grouped by the bound
# symbols' exponents, only the same terms.


def _previous_substitute(self, bind):
    """Homomorphic substitution; unbound symbols remain."""
    syms = self.symbols()
    bind = {
        s: _rats(v) if isinstance(v, MPoly) else F(v)
        for s, v in bind.items()
        if s in syms
    }
    if not bind:
        return _rats(self)
    touched = 0
    for s in bind:
        touched |= _FIELD << s.shift
    if not any(bind.values()):
        # a binding to 0 drops every term it touches and keeps the rest
        return {k: c for k, c in _rats(self).items() if not k & touched}
    bound = [(s.shift, (1 << s.shift) + _DEG1, v) for s, v in bind.items()]
    acc = {}
    get = acc.get
    for k, c in _rats(self).items():
        if not k & touched:
            acc[k] = get(k, 0) + c
            continue
        factors = []
        for shift, step, v in bound:
            e = (k >> shift) & _FIELD
            if not e:
                continue
            k -= e * step
            if isinstance(v, dict):
                factors.append(_previous_pow(v, e))
            else:
                c = c * v**e
        if not c:
            continue
        if factors:
            _fraction_accumulate(acc, [(k, c)], list(reduce(_previous_mul, factors).items()))
        else:
            acc[k] = get(k, 0) + c
    return _nonzero(acc)


# 0, small and 10**30-sized ints and Fractions
_BINDABLE = (
    st.just(0)
    | st.integers(-9, 9)
    | _BIG
    | st.builds(F, st.integers(-9, 9), st.integers(1, 6))
    | st.builds(F, _BIG, st.integers(1, 10**30))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(polys(), st.sampled_from(_SYMS + [Sym("r")]), _BINDABLE)
def test_one_binding_matches_the_previous_substitute(p, s, v):
    got = p.substitute({s: v})
    _assert_parity(got, _previous_substitute(p, {s: v}))
    if s not in p.symbols():
        assert got is p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys(), st.dictionaries(st.sampled_from(_SYMS), _BINDABLE | polys(), max_size=3))
def test_every_binding_matches_the_previous_substitute(p, bind):
    got, ref = p.substitute(bind), _previous_substitute(p, bind)
    if any(isinstance(v, MPoly) and s in p.symbols() for s, v in bind.items()):
        # a polynomial binding groups the terms by the bound exponents, so
        # only the terms, not their order, are the reference's
        assert _rats(got) == ref
        _assert_canonical(got)
    else:
        _assert_parity(got, ref)


# ---------------------------------------------------------------- previous products
# *, sum_of_products and derive multiply ints over one common denominator.
# Their previous loops, which multiplied Fraction coefficients as they were,
# are kept here as the references on the rational view (the reference sum
# and power multiply with the reference *): each result must have the same
# rational terms in the same order, in lowest terms.


def _fraction_accumulate(acc, left, right):
    """acc += left * right over (code, Fraction) pairs."""
    get = acc.get
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _nonzero(acc):
    return {k: c for k, c in acc.items() if c}


def _previous_mul(p, q):
    acc = {}
    _fraction_accumulate(acc, p.items(), list(q.items()))
    return _nonzero(acc)


def _previous_pow(p, n):
    # the previous binary powering, without its negative-power and degree checks
    if not n:
        return {0: F(1)}
    result = p
    for bit in bin(n)[3:]:
        result = _previous_mul(result, result)
        if bit == "1":
            result = _previous_mul(result, p)
    return result


def _previous_sum_of_products(products):
    acc = {}
    for *head, last in products:
        left = reduce(_previous_mul, map(_rats, head)).items() if head else [(0, 1)]
        _fraction_accumulate(acc, left, list(_rats(last).items()))
    return _nonzero(acc)


def _previous_derive(self, rules):
    acc = {}
    for s, rule in rules.items():
        shift = s.shift
        step = (1 << shift) + _DEG1
        partial = []
        for k, c in _rats(self).items():
            e = (k >> shift) & _FIELD
            if e:
                partial.append((k - step, c * e))
        _fraction_accumulate(acc, partial, list(_rats(rule).items()))
    return _nonzero(acc)


def _assert_parity(got, ref):
    assert list(_rats(got).items()) == list(ref.items())
    _assert_canonical(got)


@st.composite
def kinded_polys(draw):
    # int, Fraction or mixed coefficients; the Fractions have coprime
    # denominators among them, and an integral one is an int once built
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        syms = draw(st.lists(st.sampled_from(_SYMS), max_size=2, unique=True))
        mono = monomial({s: draw(st.integers(1, 3)) for s in syms})
        num = draw(st.integers(-9, 9).filter(bool))
        if kind == "int" or (kind == "mixed" and draw(st.booleans())):
            terms[mono] = num
        else:
            terms[mono] = F(num, draw(st.sampled_from([1, 2, 3, 4, 5, 7])))
    return MPoly(terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kinded_polys(), kinded_polys(), st.integers(0, 4))
def test_product_matches_the_previous_mul(p, q, n):
    _assert_parity(p * q, _previous_mul(_rats(p), _rats(q)))
    _assert_parity(q * p, _previous_mul(_rats(q), _rats(p)))
    if n == 1:  # p**1 is p itself
        assert p**n is p
    else:
        _assert_parity(p**n, _previous_pow(_rats(p), n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(kinded_polys(), min_size=1, max_size=3), max_size=5))
def test_sum_of_products_matches_the_previous_loop(products):
    _assert_parity(MPoly.sum_of_products(products), _previous_sum_of_products(products))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kinded_polys(), st.dictionaries(st.sampled_from(_SYMS), kinded_polys(), max_size=3))
def test_derive_matches_the_previous_loop(p, rules):
    _assert_parity(p.derive(rules), _previous_derive(p, rules))


def test_the_common_denominator_grows_with_coprime_denominators():
    half, third, ints = P("1/2*a0"), P("1/3*a1"), (P("a0 - 1"), P("k"))
    for products in ([(half,), (third,), ints], [ints, (half,), (third, P("2*k")), (P("3/2"),)]):
        _assert_parity(MPoly.sum_of_products(products), _previous_sum_of_products(products))
    assert MPoly.sum_of_products([(half,), (third,), ints]) == P("1/2*a0 + 1/3*a1 + a0*k - k")
    rules = {A0: P("1/3*k"), A1: P("1/5*k^2")}
    p = P("1/2*a0^2 + a1")
    _assert_parity(p.derive(rules), _previous_derive(p, rules))
    assert p.derive(rules) == P("1/3*a0*k + 1/5*k^2")


def test_cleared_products_return_ints_and_cancel_to_zero():
    p, q = P("1/2*a0 + 3/4"), P("4*a1 + 4*k")
    assert (p * q).den == 1
    got = MPoly.sum_of_products([(p, q), (P("1/3*k"), P("3"))])
    assert got == P("2*a0*a1 + 2*a0*k + 3*a1 + 4*k") and got.den == 1
    assert MPoly.sum_of_products([(p, q), (-p, q)]).is_zero()
    assert MPoly.sum_of_products([(p,), (P("1/3"),), (-p,), (P("-1/3"),)]).is_zero()
    assert P("1/2*a0^2 - 1/2*a1^2").derive({A0: P("a1"), A1: P("a0")}).is_zero()


# ---------------------------------------------------------------- lowest terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kinded_polys(), kinded_polys(), _RATS, st.sampled_from(_SYMS))
def test_every_operation_returns_lowest_terms(p, q, v, s):
    # each result is canonical, and the same value built again from its
    # rationals (in _assert_canonical) or through a sum that cancels has
    # the same terms, den and hash
    results = [
        p + q, p - q, v - p, -p, p * q, p * v, p**2, p**3,
        MPoly.sum_of_products([(p, q), (q,), (p, p, q)]), p.derive({s: q, K: p}),
        p.substitute({s: v}), p.substitute({s: q}), p.substitute({s: v, K: q, A2: v}),
        p.coefficient_of(s, 1), *p.split((s,)).values(), p.divide_mono(p.monomial_gcd()),
        p.normalize(), parse_poly(p.ascii()), MPoly.const(v), MPoly(_rats(p)),
    ]
    for r in results:
        _assert_canonical(r)
        same = (r + q) - q
        assert (same.terms, same.den, hash(same)) == (r.terms, r.den, hash(r))


@pytest.mark.parametrize("scale", [1, F(1, 2)], ids=["int", "fraction"])
def test_products_keep_the_degree_cap_on_both_paths(scale):
    high, top = MPoly.var(A0) ** 200 * scale, MPoly.var(K) ** 56
    with pytest.raises(ValueError, match="exceeds 255"):
        high * top
    # the over-cap term cancels, and the cap still holds
    with pytest.raises(ValueError, match="exceeds 255"):
        MPoly.sum_of_products([(high, top), (-high, top)])
    p = (MPoly.var(A0) + MPoly.var(b(1))) * MPoly.var(A1) ** 254 * scale
    with pytest.raises(ValueError, match="exceeds 255"):
        p.derive({A0: MPoly.var(K) ** 2, b(1): -(MPoly.var(K) ** 2)})
