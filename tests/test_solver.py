import hashlib
import time
from collections import Counter
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from fkdv import solver
from fkdv.closedform import catalog
from fkdv.errors import UnboundSymbolError
from fkdv.poly import MPoly, monomial, parse_poly
from fkdv.reproduce import (
    GRID,
    derive,
    paper_branches,
    solve_system,
    unknowns,
)
from fkdv.solver import (
    Assignment,
    SolveConfig,
    solve,
    verify_assignment,
)
from fkdv.symbols import E, LAM, MU, R, RHO, Sym, a, b

K = Sym("k")


def _solved_set(branches):
    return {
        tuple(sorted((s.name, v) for s, v in br.assignment.items()))
        for br in branches
        if br.status == "solved"
    }


def _as_key(d):
    return tuple(sorted((s.name, F(v)) for s, v in d.items()))


@pytest.fixture(scope="module")
def tanh_branches(tanh_system):
    return solve_system(tanh_system, {LAM: F(-6)})


@pytest.fixture(scope="module")
def pre_branches(pre_system):
    return solve_system(pre_system, {LAM: F(-6), E: 1, RHO: -1})


# ---------------------------------------------------------------- solve


def test_tanh_solved_branches(tanh_branches):
    got = _solved_set(tanh_branches)
    for exp in paper_branches("tanh", 1):
        assert _as_key(exp) in got


def test_paper_branches_are_the_six_generating_tuples():
    # at lam = -6*m^4 with q = m^2, here m = 2
    q = F(4)
    assert paper_branches("tanh", 2) == [
        {a(0): -5 * q, a(1): 0, a(2): -30, K: q / 4},
        {a(0): 5 * q, a(1): 0, a(2): -30, K: -q / 4},
    ]
    h = F(5, 2) * q
    assert paper_branches("pre", 2) == [
        {a(0): h, a(1): 15, b(1): 0, MU: -1, R: q},
        {a(0): h, a(1): -15, b(1): 0, MU: 1, R: q},
        {a(0): -h, a(1): -15, b(1): 0, MU: 1, R: -q},
        {a(0): -h, a(1): 15, b(1): 0, MU: -1, R: -q},
    ]


def test_tanh_contradiction_through_a2_minus_6(tanh_branches):
    hits = [
        br
        for br in tanh_branches
        if br.status == "contradiction" and br.assignment.as_dict().get(a(2)) == F(-6)
    ]
    assert hits
    for br in hits:
        assert br.witness is not None
        assert br.witness.is_constant() and br.witness.constant_value() != 0


def test_tanh_free_constant_branch(tanh_branches):
    hits = [
        br
        for br in tanh_branches
        if br.status == "solved_with_free_symbols"
        and br.assignment.as_dict() == {a(1): F(0), a(2): F(0)}
    ]
    assert hits
    assert set(hits[0].free_symbols) == {a(0), K}
    assert hits[0].remaining == ()


def test_pre_solved_branches(pre_branches):
    got = _solved_set(pre_branches)
    for exp in paper_branches("pre", 1):
        assert _as_key(exp) in got


def test_no_silent_loss(tanh_branches, pre_branches):
    for branches in (tanh_branches, pre_branches):
        counts = Counter(br.status for br in branches)
        assert sum(counts.values()) == len(branches)
        assert set(counts) <= {
            "solved",
            "solved_with_free_symbols",
            "contradiction",
            "stuck",
        }


def test_determinism(tanh_system):
    first = solve_system(tanh_system, {LAM: F(-6)})
    second = solve_system(tanh_system, {LAM: F(-6)})
    assert [br.sort_key() for br in first] == [br.sort_key() for br in second]


def test_solver_runtime_bound(tanh_system, pre_system):
    t0 = time.time()
    solve_system(tanh_system, {LAM: F(-6)})
    solve_system(pre_system, {LAM: F(-6), E: 1, RHO: -1})
    assert time.time() - t0 < 10.0


def test_budget_exhaustion_reports_stuck(pre_system):
    cfg = SolveConfig(
        unknowns=(a(0), a(1), b(1), MU, R),
        presets=Assignment({LAM: F(-6), E: 1, RHO: -1}),
        branch_budget=5,
    )
    branches = solve([eq.poly for eq in pre_system], cfg)
    assert any(br.status == "stuck" for br in branches)


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        solve([], SolveConfig(unknowns=(a(0),)))


def test_symbols_outside_unknowns_rejected(tanh_system):
    cfg = SolveConfig(unknowns=(a(0), a(1), a(2), K))  # lam neither preset nor unknown
    with pytest.raises(ValueError, match="lam"):
        solve([eq.poly for eq in tanh_system], cfg)


def test_presets_and_unknowns_must_be_disjoint():
    with pytest.raises(ValueError):
        SolveConfig(unknowns=(a(0),), presets=Assignment({a(0): F(1)}))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_tanh_unknowns_are_the_coefficients_and_k(order):
    _, system = derive("tanh", order=order)
    assert unknowns(system, {LAM}) == tuple(a(j) for j in range(order + 1)) + (K,)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pre_unknowns_are_the_coefficients_mu_and_r(depth):
    _, system = derive("pre", order=depth)
    expected = (
        tuple(a(j) for j in range(depth + 1))
        + tuple(b(j) for j in range(1, depth + 1))
        + (MU, R)
    )
    assert unknowns(system, {LAM, E, RHO}) == expected


def test_solver_soundness(tanh_system, tanh_branches, pre_system, pre_branches):
    # re-assert externally what solve() already self-checks internally
    tanh_polys = [eq.poly for eq in tanh_system]
    for br in tanh_branches:
        if br.status == "solved":
            full = br.assignment.merged(Assignment({LAM: F(-6)}))
            ok, witness = verify_assignment(tanh_polys, full)
            assert ok, witness
    pre_polys = [eq.poly for eq in pre_system]
    for br in pre_branches:
        if br.status == "solved":
            full = br.assignment.merged(Assignment({LAM: F(-6), E: 1, RHO: -1}))
            ok, witness = verify_assignment(pre_polys, full)
            assert ok, witness


# ---------------------------------------------------------------- verify


def test_verify_assignment_solution_a(tanh_system):
    polys = [eq.poly for eq in tanh_system]
    ok, witness = verify_assignment(
        polys, {a(0): F(-5), a(1): 0, a(2): -30, K: F(1, 4), LAM: -6}
    )
    assert ok and witness is None


def test_verify_assignment_all_zero(tanh_system):
    polys = [eq.poly for eq in tanh_system]
    ok, _ = verify_assignment(polys, {a(0): 0, a(1): 0, a(2): 0, K: 0, LAM: -6})
    assert ok


def test_verify_assignment_pre_solution_i(pre_system):
    polys = [eq.poly for eq in pre_system]
    ok, _ = verify_assignment(
        polys,
        {a(0): F(5, 2), a(1): 15, b(1): 0, MU: -1, R: 1, E: 1, RHO: -1, LAM: -6},
    )
    assert ok


def test_verify_assignment_failure_returns_witness(tanh_system):
    polys = [eq.poly for eq in tanh_system]
    ok, witness = verify_assignment(
        polys, {a(0): 1, a(1): 1, a(2): 1, K: 1, LAM: 1}
    )
    assert not ok
    assert witness in polys


def test_verify_assignment_unbound_symbol_named(tanh_system):
    polys = [eq.poly for eq in tanh_system]
    with pytest.raises(UnboundSymbolError, match="lam"):
        verify_assignment(polys, {a(0): 0, a(1): 0, a(2): 0, K: 0})


def test_verify_assignment_names_the_first_polynomial_s_least_unbound_symbol():
    polys = [parse_poly("lam*a2 + 1"), parse_poly("a0 + 1")]
    with pytest.raises(UnboundSymbolError) as err:
        verify_assignment(polys, {})
    assert err.value.sym == a(2)


# ---------------------------------------------------------------- grid


def test_lambda_grid_consistency(tanh_system, pre_system):
    # every catalog parameter tuple annihilates its system at each grid point
    tanh_polys = [eq.poly for eq in tanh_system]
    pre_polys = [eq.poly for eq in pre_system]
    for m, lam in enumerate(GRID, start=1):
        for rec in catalog():
            asg = rec.specialize(m)
            assert asg[LAM] == lam
            if rec.method == "pre":
                asg[E] = F(1)
                asg[RHO] = F(-1)
                ok, witness = verify_assignment(pre_polys, asg)
            else:
                ok, witness = verify_assignment(tanh_polys, asg)
            assert ok, (rec.id, m, witness)


def test_scaled_branches_found_on_grid(tanh_system, pre_system):
    for m, lam in enumerate(GRID, start=1):
        got_t = _solved_set(solve_system(tanh_system, {LAM: lam}))
        for exp in paper_branches("tanh", m):
            assert _as_key(exp) in got_t
        got_p = _solved_set(solve_system(pre_system, {LAM: lam, E: 1, RHO: -1}))
        for exp in paper_branches("pre", m):
            assert _as_key(exp) in got_p


# ---------------------------------------------------------------- leaf lists

# sha256 of repr([(sort_key, free symbol names)]) over every leaf of the
# projective Ito solve with e=1, rho=-1, keyed by (depth, lambda, budget).
# First recorded before the solver memoized repeated subtrees: replaying a
# subtree must leave every leaf, and where the budget runs out, unchanged.
# Re-recorded when stuck leaves began to list their pending eliminations.
# Disjoint case splits (ROADMAP item 5) will change these digests on purpose.
PINNED_LEAVES = {
    (2, -6, 10000): (267, "a2ae3fcae92bc780059657ccb3aa31fb1f805fda1e90d00f0936a92c55822ffd"),
    (2, -96, 10000): (267, "524ac0b0df1a9bddeaddafd20fc449f77af5aa2e9ff1791c8813a01370abd524"),
    (3, -6, 10000): (1354, "d9482564f37eb6be62ae92c5077f445a89b8539d79feed9dba5fec0d8623b948"),
    (1, -6, 5): (6, "e16d6d3dc56589431c5ed3ccb2e17af6420f96ab344c988a45cf524dac4a456e"),
    (2, -6, 60): (33, "1c74d350b20caa4b30c0e3c125e588aa0157fc84d8f05135c6648aa9b550ac6e"),
    (2, -6, 250): (129, "e4e296ae23a1e39973248c7517c45b07253e2d68d33947932fad2bfd44c51227"),
    (2, -6, 400): (217, "061786ab878a24f24f73ea24cc67ee1011e81252cb716fb0b5c576809b2540c7"),
    (3, -6, 1300): (714, "d8ad9a3f84bcab7b3e5f5fef6c4ce1acbdadf1e53001132e508fca6ee38a109e"),
}


@cache
def _pre_polys(depth):
    return tuple(eq.poly for eq in derive("pre", order=depth)[1])


def _pre_solve(depth, lam, budget=10000):
    unknowns = (
        tuple(a(j) for j in range(depth + 1))
        + tuple(b(j) for j in range(1, depth + 1))
        + (MU, R)
    )
    cfg = SolveConfig(
        unknowns=unknowns,
        presets=Assignment({LAM: F(lam), E: 1, RHO: -1}),
        branch_budget=budget,
    )
    return solve(_pre_polys(depth), cfg)


@pytest.mark.parametrize(("depth", "lam", "budget"), list(PINNED_LEAVES))
def test_leaf_list_matches_pinned_digest(depth, lam, budget):
    leaves = _pre_solve(depth, lam, budget)
    text = repr([(br.sort_key(), [s.name for s in br.free_symbols]) for br in leaves])
    count, digest = PINNED_LEAVES[depth, lam, budget]
    assert len(leaves) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if budget < 10000:
        assert any(br.status == "stuck" for br in leaves)


def test_each_solved_point_verified_once(monkeypatch):
    calls = Counter()

    def counting(system, asg):
        calls[tuple(asg.items())] += 1
        return verify_assignment(system, asg)

    monkeypatch.setattr(solver, "verify_assignment", counting)
    leaves = _pre_solve(2, -6)
    solved = Counter(tuple(br.assignment.items()) for br in leaves if br.status == "solved")
    assert max(solved.values()) > 1  # the case tree reaches some points twice
    assert len(calls) == len(solved) and set(calls.values()) == {1}


def test_each_substitution_and_root_set_computed_once(monkeypatch):
    # move 3 reaches equal nodes along several paths; the per-solve caches
    # must leave one substitution per (polynomial, binding) and one root
    # search per coefficient list, and the same leaves
    _pre_polys(3)
    substitutions, root_searches = Counter(), Counter()
    substitute, rational_roots = MPoly.substitute, solver.rational_roots

    def counting_substitute(p, bind):
        substitutions[p.ascii(), tuple(sorted((s.name, str(v)) for s, v in bind.items()))] += 1
        return substitute(p, bind)

    def counting_rational_roots(coeffs):
        root_searches[tuple(coeffs)] += 1
        return rational_roots(coeffs)

    monkeypatch.setattr(MPoly, "substitute", counting_substitute)
    monkeypatch.setattr(solver, "rational_roots", counting_rational_roots)
    leaves = _pre_solve(3, -6)
    assert len(substitutions) > 1000 and set(substitutions.values()) == {1}
    assert len(root_searches) > 10 and set(root_searches.values()) == {1}
    text = repr([(br.sort_key(), [s.name for s in br.free_symbols]) for br in leaves])
    count, digest = PINNED_LEAVES[3, -6, 10000]
    assert len(leaves) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------- move 1


def test_factor_left_after_the_roots_ends_in_a_stuck_leaf():
    leaves = solve([parse_poly("(a0 - 1)*(a0^2 - 2)")], SolveConfig(unknowns=(a(0),)))
    assert [(br.status, br.assignment.as_dict()) for br in leaves] == [
        ("solved", {a(0): F(1)}),
        ("stuck", {}),
    ]
    assert leaves[1].witness == parse_poly("a0^2 - 2")


def test_off_grid_projective_solve_keeps_the_irrational_r_factor():
    # at lambda = -7 the paper's branches need r = +-sqrt(7/6): after r = 0
    # is branched on, 6*r^2 - 7 is left and must surface
    leaves = _pre_solve(1, -7)
    stuck = [br for br in leaves if br.status == "stuck" and br.witness == parse_poly("6*r^2 - 7")]
    assert len(leaves) == 31 and len(stuck) == 2
    by_point = {tuple(br.assignment.items()): br for br in stuck}
    leaf = by_point[tuple(Assignment({MU: -1, b(1): 0, a(1): 15}).items())]
    # a0 = 5/2*r is still pending on r, so the leaf can be resumed from it
    assert parse_poly("a0 - 5/2*r") in leaf.remaining


@st.composite
def _factored(draw):
    roots = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                          max_size=3, unique=True))
    quads = draw(st.lists(st.sampled_from(["a0^2 - 2", "a0^2 + 1", "3*a0^2 - 5", "a0^2 + a0 + 1"]),
                          max_size=2))
    if not roots and not quads:
        roots = [F(0)]
    factors = [(MPoly.var(a(0)) - r) ** draw(st.integers(1, 2)) for r in roots]
    return roots, quads, factors + [parse_poly(q) for q in quads]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_factored())
def test_move_1_leaves_account_for_every_factor(case):
    roots, quads, factors = case
    p = MPoly.const(1)
    for f in factors:
        p = p * f
    leaves = solve([p], SolveConfig(unknowns=(a(0),)))
    assert sorted(br.assignment[a(0)] for br in leaves if br.status == "solved") == sorted(roots)
    stuck = [br.witness for br in leaves if br.status == "stuck"]
    rest = MPoly.const(1)
    for q in quads:
        rest = rest * parse_poly(q)
    assert stuck == ([rest.normalize()] if quads else [])


# ---------------------------------------------------------------- move 2


def test_non_unit_integer_pivot_eliminates_exactly():
    # no univariate equation, so move 2 eliminates a0 with the pivot 3
    system = [parse_poly("3*a0 + 2*a1 - 1"), parse_poly("a0*a1 + a1")]
    assert system[0].linear_pivots() == {a(0): 3, a(1): 2}
    assert system[1].linear_pivots() == {}
    leaves = solve(system, SolveConfig(unknowns=(a(0), a(1))))
    assert [br.status for br in leaves] == ["solved", "solved"]
    assert {tuple(br.assignment.items()) for br in leaves} == {
        ((a(0), F(1, 3)), (a(1), F(0))),
        ((a(0), F(-1)), (a(1), F(2))),
    }
    assert all(type(v) is F for br in leaves for _, v in br.assignment.items())


def test_non_unit_pivot_left_pending_stays_exact():
    # a1 stays free, so the elimination of a0 = (1 - 2*a1)/3 is reported
    leaves = solve([parse_poly("3*a0 + 2*a1 - 1")], SolveConfig(unknowns=(a(0), a(1))))
    assert [br.status for br in leaves] == [solver.FREE]
    (rem,) = leaves[0].remaining
    assert rem == parse_poly("a0 + 2/3*a1 - 1/3")
    assert all(type(c) in (int, F) for c in rem.terms.values())


def _old_linear_symbols(p):
    # the move-2 predicate before the one-pass scan
    return {
        x
        for x in p.symbols()
        if p.max_exponent(x) == 1 and p.coefficient_of(x, 1).is_constant()
    }


@st.composite
def _small_polys(draw):
    syms = [a(0), a(1), b(1), MU]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        chosen = draw(st.lists(st.sampled_from(syms), max_size=2, unique=True))
        mono = monomial({s: draw(st.integers(1, 2)) for s in chosen})
        coef = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[mono] = terms.get(mono, 0) + coef
    return MPoly(terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_polys())
def test_linear_pivots_match_old_predicate(p):
    for q in (p, p.normalize()):
        pivots = q.linear_pivots()
        assert set(pivots) == _old_linear_symbols(q)
        for x, c in pivots.items():
            assert c == q.coefficient_of(x, 1).constant_value()


# ---------------------------------------------------------------- move 3


def _text_key(p):
    # the working order before the lazy text tie-break
    return (p.degree(), len(p.terms), p.ascii())


@st.composite
def _systems(draw):
    """Normalized equations, some with a common monomial factor."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(_small_polys())
        if draw(st.booleans()):
            syms = draw(st.lists(st.sampled_from([a(0), a(1), b(1), MU]), min_size=1, max_size=2))
            p = p * MPoly({monomial({s: 1 for s in syms}): 1})
        if not p.is_constant():
            out.append(p.normalize())
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_systems())
def test_move_3_takes_the_least_candidate(system):
    polys = sorted(set(system), key=solver._poly_key)
    assert polys == sorted(set(system), key=_text_key)
    candidates = [(p, g) for p in polys if (g := p.monomial_gcd())]
    got = solver._common_factor(polys)
    if not candidates:
        assert got is None
        return
    p, g = min(candidates, key=lambda pg: solver._poly_key(pg[0]))
    assert got[0] is p and got[1] == g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_systems())
def test_no_bound_symbol_remains_in_a_leaf(system):
    # the invariant the moves and finish rely on: each binding and each
    # elimination reaches every equation and every recorded elimination
    assume(system)
    cfg = SolveConfig(unknowns=(a(0), a(1), b(1), MU), branch_budget=200)
    for br in solve(system, cfg):
        bound = set(br.assignment.as_dict())
        for p in br.remaining:
            assert not p.symbols() & bound, (br.assignment, p)
