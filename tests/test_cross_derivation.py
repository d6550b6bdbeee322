"""Independent re-derivation of both algebraic systems with sympy.

The production pipeline never touches sympy; these tests rebuild the ODE
residuals from scratch with sympy's own differentiation and compare the
collected coefficient systems term by term, so a systematic error in the
polynomial kernel, the rewrite rules or the transcriptions would surface
here.  A Gröbner basis of the depth-1 projective system checks the
solver's isolated points the same way, and ``sympy.solve`` every
component of the tanh systems at M = 2 and 3.
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from fkdv.fixtures import canonical_form
from fkdv.poly import MPoly, exps_of
from fkdv.reproduce import derive, solve_system, unknowns
from fkdv.symbols import E, LAM, R, RHO, a


def _mpoly_to_sympy(p: MPoly, table):
    total = sp.Integer(0)
    for code, coeff in p.terms.items():
        term = sp.Rational(coeff, p.den)
        for s, e in exps_of(code):
            term *= table[s.name] ** e
        total += term
    return sp.expand(total)


def _proportional(lhs, rhs, gens) -> bool:
    """Exact check that lhs = c * rhs for a nonzero rational c."""
    pl = sp.Poly(lhs, *gens)
    pr = sp.Poly(rhs, *gens)
    dl, dr = dict(pl.terms()), dict(pr.terms())
    if set(dl) != set(dr) or not dl:
        return False
    probe = next(iter(dl))
    c = sp.Rational(dl[probe], dr[probe])
    return c != 0 and all(dl[m] == c * dr[m] for m in dr)


def test_tanh_system_matches_sympy_derivation(tanh_system):
    k, lam, a0, a1, a2, phi = sp.symbols("k lam a0 a1 a2 phi")
    table = {"k": k, "lam": lam, "a0": a0, "a1": a1, "a2": a2}
    gens = (k, lam, a0, a1, a2)

    def nth(expr_in_phi, n):
        out = expr_in_phi
        for _ in range(n):
            out = sp.expand(sp.diff(out, phi) * (k + phi**2))
        return out

    v = a0 + a1 * phi + a2 * phi**2
    v1, v2, v3 = nth(v, 1), nth(v, 2), nth(v, 3)
    v5 = nth(v, 5)
    residual = sp.expand(lam * v1 + 2 * v**2 * v1 + 6 * v1 * v2 + 3 * v * v3 + v5)
    coeffs = sp.Poly(residual, phi).all_coeffs()[::-1]  # ascending powers

    by_power = {eq.power: eq.poly for eq in tanh_system}
    nonzero = {j: c for j, c in enumerate(coeffs) if c != 0}
    assert set(nonzero) == set(by_power)
    for j, c in nonzero.items():
        assert _proportional(c, _mpoly_to_sympy(by_power[j], table), gens), j


def test_pre_system_matches_sympy_derivation(pre_system):
    sigma, tau = sp.symbols("sigma tau")
    e, mu, r, rho, lam, a0, a1, b1 = sp.symbols("e mu r rho lam a0 a1 b1")
    table = {
        "e": e, "mu": mu, "r": r, "rho": rho, "lam": lam,
        "a0": a0, "a1": a1, "b1": b1,
    }
    gens = (e, mu, r, rho, lam, a0, a1, b1)

    def d(expr):
        # chain rule through sigma' = e*sigma*tau, tau' = e*tau^2 - mu*sigma + r
        return sp.expand(
            sp.diff(expr, sigma) * (e * sigma * tau)
            + sp.diff(expr, tau) * (e * tau**2 - mu * sigma + r)
        )

    v = a0 + a1 * sigma + b1 * tau
    v1 = d(v)
    v2 = d(v1)
    v3 = d(v2)
    v5 = d(d(v3))
    residual = sp.expand(lam * v1 + 2 * v**2 * v1 + 6 * v1 * v2 + 3 * v * v3 + v5)

    # eliminate tau powers >= 2 once, after full expansion, exactly as the
    # pipeline does; clearing by r^3 keeps everything polynomial (the input
    # has tau degree 6, so at most tau2^3 and hence 1/r^3 appears)
    tau2 = -e * (r - 2 * mu * sigma + (mu**2 + rho) / r * sigma**2)
    eliminated = sp.Integer(0)
    for (n,), coeff in sp.Poly(residual, tau).terms():
        eliminated += coeff * tau2 ** (n // 2) * tau ** (n % 2)
    residual = sp.expand(eliminated * r**3)

    poly = sp.Poly(residual, sigma, tau)
    collected = {}
    for monom, c in poly.terms():
        collected[monom] = collected.get(monom, 0) + c

    by_key = {(eq.power, eq.tau_degree): eq.poly for eq in pre_system}
    nonzero = {key: c for key, c in collected.items() if c != 0}
    assert set(nonzero) == set(by_key)
    for key, c in nonzero.items():
        mine = _mpoly_to_sympy(canonical_form(by_key[key]), table)
        # strip the r power sympy's clearing left behind, then compare
        cp = sp.Poly(c, r)
        low = min(m[0] for m in cp.monoms())
        stripped = sp.expand(sp.cancel(c / r**low))
        assert _proportional(stripped, mine, gens), key


def _pieces(eqs, gens):
    """Lex Gröbner bases whose generators are irreducible over Q and whose
    zero sets together make up that of ``eqs``: a generator that factors
    splits the basis into one piece per factor."""
    basis = sp.groebner(eqs, *gens, order="lex")
    if basis.exprs == [1]:
        return []
    for g in basis.exprs:
        _, factors = sp.factor_list(g, *gens)
        if len(factors) > 1 or factors[0][1] > 1:
            return [piece for f, _ in factors for piece in _pieces([*basis.exprs, f], gens)]
    return [basis]


@pytest.mark.parametrize(("lam", "count"), [(-6, 4), (-96, 4), (-7, 0)])
def test_depth_1_isolated_rational_points_are_the_solved_points(lam, count):
    # the solver's solved points with r != 0 against the isolated rational
    # zeros of the depth-1 system at (e, rho) = (1, -1) and 1 - r*z; at
    # lambda = -7 the paper's branches need a0 = +-5*sqrt(42)/12
    _, system = derive("pre", order=1)
    presets = {LAM: Fraction(lam), E: 1, RHO: -1}
    syms = unknowns(system, presets)
    z, *gens = sp.symbols(["z"] + [s.name for s in syms])
    table = {s.name: g for s, g in zip(syms, gens)}
    table.update({s.name: sp.Rational(v) for s, v in presets.items()})
    eqs = [_mpoly_to_sympy(eq.poly, table) for eq in system]
    eqs.append(1 - table[R.name] * z)
    pieces = _pieces(eqs, (z, *gens))
    curves = [piece for piece in pieces if not piece.is_zero_dimensional]
    jacobian = sp.Matrix(eqs).jacobian((z, *gens))
    isolated = set()
    for piece in pieces:
        if not piece.is_zero_dimensional:
            continue
        for sol in sp.solve_poly_system(piece.exprs, z, *gens):
            at = dict(zip((z, *gens), sol))
            if all(v.is_Rational for v in sol) and not any(
                all(g.subs(at) == 0 for g in curve.exprs) for curve in curves
            ):
                # a regular zero, so isolated whatever the pieces
                assert jacobian.subs(at).rank() == len(at)
                isolated.add(tuple(Fraction(int(v.p), int(v.q)) for v in sol[1:]))
    solved = {
        tuple(br.assignment[s] for s in syms)
        for br in solve_system(system, presets)
        if br.status == "solved" and br.assignment[R]
    }
    assert len(isolated) == count
    assert solved == isolated


@pytest.mark.parametrize("lam", [-6, -96, -7])
@pytest.mark.parametrize("order", [2, 3])
def test_tanh_leaves_are_the_components_sympy_solves(order, lam):
    # sympy.solve gives every component of the tanh system at a fixed lam:
    # the family a1 = ... = aM = 0 and two points, rational at lam = -6*m^4
    # and with k = +-sqrt(42)/24 at lam = -7, where the solver ends them in
    # one stuck leaf
    _, system = derive("tanh", order=order)
    presets = {LAM: Fraction(lam)}
    syms = unknowns(system, presets)
    gens = sp.symbols([s.name for s in syms])
    table = {s.name: g for s, g in zip(syms, gens)}
    table[LAM.name] = sp.Integer(lam)
    found = sp.solve([_mpoly_to_sympy(eq.poly, table) for eq in system], gens, dict=True)
    points = [sol for sol in found if len(sol) == len(gens)]
    rational = [sol for sol in points if all(v.is_Rational for v in sol.values())]
    irrational = [sol for sol in points if sol not in rational]
    families = [sol for sol in found if len(sol) < len(gens)]
    leaves = solve_system(system, presets)

    solved = {tuple(br.assignment[s] for s in syms) for br in leaves if br.status == "solved"}
    assert solved == {tuple(Fraction(int(sol[g].p), int(sol[g].q)) for g in gens) for sol in rational}
    family = {a(j): 0 for j in range(1, order + 1)}
    assert families == [{table[s.name]: 0 for s in family}]
    free = [br for br in leaves if br.status == "solved_with_free_symbols"]
    assert [br.assignment.as_dict() for br in free] == [family]
    assert [s.name for s in free[0].free_symbols] == ["a0", "k"]
    stuck = [br for br in leaves if br.status == "stuck"]
    if lam == -7:
        k = table["k"]
        assert sorted(sol[k] for sol in irrational) == [-sp.sqrt(42) / 24, sp.sqrt(42) / 24]
        (leaf,) = stuck
        witness = _mpoly_to_sympy(leaf.witness, table)
        assert all(sp.expand(witness.subs(sol)) == 0 for sol in irrational)
    else:
        assert irrational == [] and stuck == []
