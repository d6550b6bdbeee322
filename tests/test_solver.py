import gc
import hashlib
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from fkdv import pre, reproduce, solver, tanh
from fkdv.closedform import catalog
from fkdv.errors import InternalInvariantError, UnboundSymbolError
from fkdv.poly import MPoly, monomial, parse_poly, rational_roots
from fkdv.reproduce import (
    GRID,
    branch_json,
    derive,
    paper_branches,
    solve_grid,
    solve_system,
    unknowns,
)
from fkdv.solver import (
    Assignment,
    SolveConfig,
    scale_leaves,
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
        # a contradiction reports its bindings only
        assert br.witness is None and br.remaining == ()


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
    with pytest.raises(ValueError, match=r"^presets and unknowns overlap: \[a1\]$"):
        SolveConfig(unknowns=(a(0), a(1)), presets=Assignment({a(1): F(1), MU: F(2)}))


def test_branch_budget_must_be_positive():
    assert SolveConfig((a(0),), branch_budget=1).branch_budget == 1
    for budget in (0, -3):
        with pytest.raises(ValueError, match="^branch budget must be positive$"):
            SolveConfig(unknowns=(a(0),), branch_budget=budget)


def test_replace_and_make_check_like_the_constructor():
    cfg = SolveConfig((a(0), a(1)))
    assert cfg._replace(branch_budget=5) == SolveConfig((a(0), a(1)), branch_budget=5)
    with pytest.raises(ValueError, match="^branch budget must be positive$"):
        cfg._replace(branch_budget=0)
    with pytest.raises(ValueError, match=r"^presets and unknowns overlap: \[a1\]$"):
        cfg._replace(presets=Assignment({a(1): F(1)}))
    with pytest.raises(ValueError, match="^branch budget must be positive$"):
        SolveConfig._make([(a(0),), Assignment(), 0])


def test_solve_config_defaults():
    cfg = SolveConfig(iter([a(0), MU]))
    assert cfg.unknowns == (a(0), MU)
    assert cfg.presets == Assignment() and len(cfg.presets) == 0
    assert cfg.branch_budget == 10000


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
# Re-recorded when solve began to report each distinct leaf once: each list
# is the earlier list, which repeated a leaf once per path that reached it,
# with adjacent equal entries removed ((1, -6, 5) had no repeat).
# Re-recorded when contradiction leaves began to report normal forms: leaves
# that differed only in a raw constant merged, and PINNED_PAIRS held.
# Re-recorded when every leaf began to report normal forms, its pending
# eliminations included, and a contradiction only its bindings: only
# contradiction leaves merged, one per pair, and PINNED_PAIRS held.
# Skipping an explored subtree must leave every leaf, and where the budget
# runs out, unchanged.  Disjoint case splits (ROADMAP item 6) will change
# these digests on purpose.
PINNED_LEAVES = {
    (2, -6, 10000): (121, "447a19235e567cd4d40cad08a34ac4dcbf5376b234b30b67f845a8568b65cbdb"),
    (2, -96, 10000): (121, "fd9be25f748b75a6a0cac8521e23ae570da53e956bcef93b0cf9b7aa4fca078d"),
    (3, -6, 10000): (263, "d290bb7e56f0e26e6ba4908180498a8684d45a6ef4a3b3847953757921ff5a2a"),
    (1, -6, 5): (6, "e16d6d3dc56589431c5ed3ccb2e17af6420f96ab344c988a45cf524dac4a456e"),
    (2, -6, 60): (25, "b629951328d7f0532ca4a54019c81243f1776989d728c61d1be267b96cf65c86"),
    (2, -6, 250): (68, "448e1603db0c19ea697a3d494f6eceeec3dc77d0136ba89183f79d2dcc585ca2"),
    (2, -6, 400): (110, "ce7e855a7865daa833e6bb08fbd5a9fe285e7a65730eef43985d843b051dea26"),
    (3, -6, 1300): (186, "4346d3dbf8fba6dea99d2eb66c7aab49e6b4d97a23602c757d7e7b0f4a5e87f3"),
    (4, -6, 100000): (563, "8c0aa2889ea603fcc662ce52d403306266880af1642f0e14e9431aebff6c97b0"),
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


def _leaf_keys(leaves):
    return [(br.sort_key(), [s.name for s in br.free_symbols]) for br in leaves]


def _digest(leaves):
    """(leaf count, digest) in the form of PINNED_LEAVES."""
    return len(leaves), hashlib.sha256(repr(_leaf_keys(leaves)).encode()).hexdigest()


@pytest.mark.parametrize(("depth", "lam", "budget"), list(PINNED_LEAVES))
def test_leaf_list_matches_pinned_digest(depth, lam, budget):
    leaves = _pre_solve(depth, lam, budget)
    assert _digest(leaves) == PINNED_LEAVES[depth, lam, budget]
    if budget < 10000:
        assert any(br.status == "stuck" for br in leaves)


# sha256 of repr(sorted distinct (status, bindings)) over the leaves of each
# PINNED_LEAVES case and of reproduce's grid solves, keyed like
# PINNED_LEAVES or by (method, lambda).  What a leaf reports beyond its
# status and bindings (witness, remaining polynomials) may change its text,
# and leaves that then agree merge; these pairs must not move.
PINNED_PAIRS = {
    (2, -6, 10000): (79, "18845ee6bb084393e7741e44ba811d45b86ecd47f64ef249aa31627b73f69595"),
    (2, -96, 10000): (79, "ff516b6502f9c43bc3d9103b768391c986c7046393498511539792e8799acae3"),
    (3, -6, 10000): (145, "f9c256850c06a4161f3b0c76951be260f11ed823ddc839266bfb4aba2e5a0163"),
    (1, -6, 5): (6, "c53081f99ee455fcdfe38e95047653ea454dd533ffdbc1cb7890715b4729ceb0"),
    (2, -6, 60): (24, "9001a69b123fd9935a14f32bcfe7b2eed834b2268033beb2d70860eab4d7eb70"),
    (2, -6, 250): (61, "240e8bf30da30370e8d94cf8554e2e1ab9b481bbd3d70e364e20d4c76463df3b"),
    (2, -6, 400): (77, "b2a44aace5f94c61ef99d02a94809129bec1dd21c2575acf5c4d3d67fd86af9f"),
    (3, -6, 1300): (92, "7e3ab0d65d339a42a9f820cc44993a8735d52c095571777a544d0d99eaaac2f7"),
    (4, -6, 100000): (301, "9db269743124cee6ce15c4cc22f6f79215b8ddf7f418c2fdd3c6d1105c60d671"),
    ("tanh", -6): (4, "d48769e5b9e54e75b22521b43c84cf0135011f2128bb1a203c4f225acbfc1c4b"),
    ("tanh", -96): (4, "a5c28f585eebdd75ae0ee71c815f3d3dcfe2f1b8808f63118ac8ecda740fec0f"),
    ("tanh", -486): (4, "8b7242000cb8dbce2d34d5f5acc309c25c8aa1cd40317733c11ed4e175637fbd"),
    ("pre", -6): (30, "d810d29dc8a900b083ef3291f159daa4e46bef297b56d155134780bae0f5c7ae"),
    ("pre", -96): (30, "ceb30c430e71f4aba9a0c55184965c4d7c996a0b24823833eb19947fbcb886ba"),
    ("pre", -486): (30, "2360311a4c8bb5537a8561602b64e43910d5660b8481bb731ee7affc4d4e7a08"),
}


def _pairs_digest(leaves):
    """(pair count, digest) in the form of PINNED_PAIRS."""
    pairs = sorted(
        {(br.status, tuple((s.name, str(v)) for s, v in br.assignment.items())) for br in leaves}
    )
    return len(pairs), hashlib.sha256(repr(pairs).encode()).hexdigest()


@pytest.mark.parametrize(("depth", "lam", "budget"), list(PINNED_LEAVES))
def test_status_and_bindings_match_pinned_digest(depth, lam, budget):
    assert _pairs_digest(_pre_solve(depth, lam, budget)) == PINNED_PAIRS[depth, lam, budget]


@pytest.mark.parametrize("method", ["tanh", "pre"])
def test_reproduce_grid_status_and_bindings_match_pinned_digest(method):
    order, system = derive(method)
    if method == "tanh":
        grid = solve_grid(system, {}, tanh.weights(order))
    else:
        grid = solve_grid(system, pre.PAPER_SIGNS, pre.weights(order))
    for lam, leaves in zip(GRID, grid):
        assert _pairs_digest(leaves) == PINNED_PAIRS[method, int(lam)], lam


# ---------------------------------------------------------------- scaling map


def _method_case(method, order, lam):
    """(polys, presets, weights) of ``method``'s Ito system of ``order`` at
    ``lam``, with the paper's signs for the projective method."""
    _, system = derive(method, order=order)
    if method == "tanh":
        return [eq.poly for eq in system], {LAM: F(lam)}, tanh.weights(order)
    return [eq.poly for eq in system], {LAM: F(lam), E: 1, RHO: -1}, pre.weights(order)


def _direct(polys, presets):
    syms = set().union(*(p.symbols() for p in polys)) - set(presets)
    cfg = SolveConfig(unknowns=tuple(sorted(syms)), presets=Assignment(presets))
    return solve(polys, cfg)


@pytest.mark.parametrize(
    ("method", "order"), [("tanh", 2), ("tanh", 3), ("tanh", 4), ("pre", 1), ("pre", 2), ("pre", 3)]
)
def test_scaled_leaves_are_the_leaves_solved_at_the_scaled_speed(method, order):
    # the case tree at lam = s^4*(-6) is the tree at -6 under the scaling
    # symmetry: every leaf, its remaining polynomials and witness included
    polys, presets, weights = _method_case(method, order, -6)
    leaves = _direct(polys, presets)
    _assert_leaves_in_normal_form(leaves)
    for s in (2, 3, 5):
        mapped = scale_leaves(polys, presets, leaves, weights, s)
        direct = _direct(polys, {**presets, LAM: F(-6 * s**4)})
        assert _leaf_keys(mapped) == _leaf_keys(direct), (method, order, s)
        assert mapped == direct
        _assert_leaves_in_normal_form(mapped)


def _assert_leaves_in_normal_form(leaves):
    """Every polynomial a leaf reports, its witness and each remaining one,
    is its own normal form, and a contradiction reports none."""
    for br in leaves:
        reported = [p for p in (br.witness, *br.remaining) if p is not None]
        assert all(p.normalize() == p for p in reported), br
        assert br.status != "contradiction" or not reported, br


def test_scaling_the_depth_2_tree_gives_the_pinned_leaves_at_minus_96():
    polys, presets, weights = _method_case("pre", 2, -6)
    mapped = scale_leaves(polys, presets, _pre_solve(2, -6), weights, 2)
    assert _digest(mapped) == PINNED_LEAVES[2, -96, 10000]


@pytest.mark.parametrize(("method", "order"), [("tanh", 2), ("pre", 1), ("pre", 2)])
def test_scale_one_is_the_identity(method, order):
    polys, presets, weights = _method_case(method, order, -6)
    leaves = _direct(polys, presets)
    mapped = scale_leaves(polys, presets, leaves, weights, 1)
    assert mapped == leaves and _leaf_keys(mapped) == _leaf_keys(leaves)


def test_the_tanh_contradiction_reports_its_bindings_only_at_minus_96(tanh_system):
    # a contradiction reports no polynomial: not the raw images -3 and -3*k
    # of lam = -6, nor -48 and -48*k of lam = -96, nor their normal forms
    polys, presets, weights = _method_case("tanh", 2, -6)
    mapped = scale_leaves(polys, presets, _direct(polys, presets), weights, 2)
    expected = {"bindings": {"a1": "0", "a2": "-6"}, "status": "contradiction"}
    assert [branch_json(br) for br in mapped if br.status == "contradiction"] == [expected]
    direct = solve_system(tanh_system, {LAM: F(-96)})
    assert [branch_json(br) for br in direct if br.status == "contradiction"] == [expected]


@pytest.mark.parametrize(
    ("texts", "weights"),
    [
        # move 1 binds k = 1 or -1, where k^4 + 2 leaves 3; at lam = -6*s^4,
        # k = s^2 or -s^2 and 3*s^8 is left; neither is reported
        (["6*k^2 + lam", "36*k^4 + 2*lam^2"], {K: 2, LAM: 4}),
        # move 2 eliminates a0 = 6 - k^2, whose constant scales as lam does,
        # and (a0 + k^2)^2 + lam^2 leaves 72, or 72*s^8, neither reported
        (["a0 + k^2 + lam", "a0^2 + 2*a0*k^2 + k^4 + lam^2"], {a(0): 4, K: 2, LAM: 4}),
        # a contradiction at the root, before any binding
        (["a0 - k", "lam"], {a(0): 2, K: 2, LAM: 4}),
    ],
)
def test_a_contradiction_maps_under_the_scaled_binding(texts, weights):
    # the derived systems meet contradictions only under bindings the
    # scaling leaves alone (x = 0, or an elimination homogeneous in x's
    # weight); these meet them after a binding that scales, where the raw
    # constants scale but a contradiction reports none of them.  No
    # working-order tie is broken by text here, so the map is exact at every s
    polys = [parse_poly(t) for t in texts]
    leaves = _direct(polys, {LAM: F(-6)})
    assert any(br.status == "contradiction" for br in leaves)
    for s in (2, 3, 5):
        mapped = scale_leaves(polys, {LAM: F(-6)}, leaves, weights, s)
        assert _leaf_keys(mapped) == _leaf_keys(_direct(polys, {LAM: F(-6 * s**4)}))
        _assert_leaves_in_normal_form(mapped)
    _assert_leaves_in_normal_form(leaves)


def test_the_homogeneity_check_rejects_a_system_with_one_term_added():
    polys, presets, weights = _method_case("pre", 1, -6)
    leaves = _direct(polys, presets)
    broken = [polys[0] + MPoly.var(a(1)) * MPoly.var(R), *polys[1:]]
    with pytest.raises(InternalInvariantError, match="not weighted-homogeneous"):
        scale_leaves(broken, presets, leaves, weights, 2)
    with pytest.raises(InternalInvariantError, match="no weight for"):
        scale_leaves(polys, presets, leaves, {x: w for x, w in weights.items() if x != MU}, 2)


def test_reproduce_solves_each_method_once(monkeypatch):
    # the grid's other speeds come from the scaling map, not from solve
    calls = []

    def counting(system, cfg):
        calls.append(cfg.presets[LAM])
        return solve(system, cfg)

    monkeypatch.setattr(reproduce, "solve", counting)
    assert reproduce.run_reproduce().exit_code == 0
    assert calls == [GRID[0], GRID[0]]


def test_solve_grid_gives_the_leaves_of_each_grid_speed(tanh_system):
    grid = solve_grid(tanh_system, {}, tanh.weights(2))
    assert len(grid) == len(GRID)
    for lam, leaves in zip(GRID, grid):
        assert _leaf_keys(leaves) == _leaf_keys(solve_system(tanh_system, {LAM: lam}))


def test_each_solved_point_verified_once(monkeypatch):
    # the case tree reaches some solved points along two paths; each is
    # returned once and verified once
    calls, reached = Counter(), Counter()
    branch = solver.Branch

    def recording(*args):
        br = branch(*args)
        if br.status == "solved":
            reached[tuple(br.assignment.items())] += 1
        return br

    def counting(system, asg):
        calls[tuple(asg.items())] += 1
        return verify_assignment(system, asg)

    monkeypatch.setattr(solver, "Branch", recording)
    monkeypatch.setattr(solver, "verify_assignment", counting)
    leaves = _pre_solve(2, -6)
    solved = Counter(tuple(br.assignment.items()) for br in leaves if br.status == "solved")
    assert max(reached.values()) > 1 and solved.keys() == reached.keys()
    assert set(solved.values()) == {1}
    assert len(calls) == len(solved) and set(calls.values()) == {1}


def test_each_substitution_and_root_set_computed_once(monkeypatch):
    # move 3 reaches equal nodes along several paths; the per-solve caches
    # must leave one substitution per (polynomial, binding) and one root
    # search per record, and the same leaves
    _pre_polys(3)
    substitutions, root_searches = Counter(), Counter()
    substitute, branch_on = MPoly.substitute, solver._Tree.branch_on

    def counting_substitute(p, bind):
        substitutions[p.ascii(), tuple(sorted((s.name, str(v)) for s, v in bind.items()))] += 1
        return substitute(p, bind)

    def counting_branch_on(tree, q):
        root_searches[q.p.ascii()] += 1
        return branch_on(tree, q)

    monkeypatch.setattr(MPoly, "substitute", counting_substitute)
    monkeypatch.setattr(solver._Tree, "branch_on", counting_branch_on)
    leaves = _pre_solve(3, -6)
    assert len(substitutions) > 1000 and set(substitutions.values()) == {1}
    assert len(root_searches) > 10 and set(root_searches.values()) == {1}
    assert _digest(leaves) == PINNED_LEAVES[3, -6, 10000]


def test_each_polynomial_fact_computed_once(monkeypatch):
    # the facts the moves read off a polynomial are kept per handle, so each
    # is computed once per distinct polynomial however many nodes meet it
    _pre_polys(3)
    names = ("normalize", "monomial_gcd", "as_univariate", "linear_pivots")
    calls = Counter()

    def counting(name):
        method = getattr(MPoly, name)

        def wrapper(p, *args):
            calls[name, p.ascii()] += 1
            return method(p, *args)

        return wrapper

    for name in names:
        monkeypatch.setattr(MPoly, name, counting(name))
    leaves = _pre_solve(3, -6)
    assert {name for name, _ in calls} == set(names)
    assert set(calls.values()) == {1}
    assert _digest(leaves) == PINNED_LEAVES[3, -6, 10000]


def test_text_comparisons_do_not_follow_memory_addresses(monkeypatch):
    # explore deduplicates a node's equations in insertion order, not in a
    # set of identity-hashed records, so the _Text comparisons of its sort,
    # which perfbench traces as poly.ascii_calls, do not depend on where
    # the records sit in memory, and unrelated allocations leave them be
    _pre_polys(2)
    calls = Counter()

    def counting(name):
        method = getattr(solver._Text, name)

        def wrapper(t, other):
            calls[name] += 1
            return method(t, other)

        return wrapper

    for name in ("__eq__", "__lt__"):
        monkeypatch.setattr(solver._Text, name, counting(name))
    ballast, counts = [], []
    for size in (0, 1, 3, 10, 33, 100, 333):
        ballast.append([solver._Eq(MPoly.const(1)) for _ in range(size)])
        calls.clear()
        assert _digest(_pre_solve(2, -6)) == PINNED_LEAVES[2, -6, 10000]
        counts.append(dict(calls))
    assert calls and all(c == counts[0] for c in counts)


@contextmanager
def _refcounting_only():
    """Run the block with the cycle collector off, so that only reference
    counting frees what the block drops."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _live_solver_objects():
    """The numbers of live Branch, _Eq and _Node objects."""
    counts = Counter(map(type, gc.get_objects()))
    return counts[solver.Branch], counts[solver._Eq], counts[solver._Node]


def test_a_solve_frees_what_it_builds():
    # nothing of a solve's state takes part in a reference cycle, so the
    # leaves, records and nodes go as soon as the caller drops the leaves
    _pre_polys(2)
    with _refcounting_only():
        branches = _live_solver_objects()[0]
        leaves = _pre_solve(2, -6)
        assert _live_solver_objects()[0] > branches
        del leaves
        assert _live_solver_objects() == (branches, 0, 0)


def test_interrupted_solve_leaves_no_state(monkeypatch):
    # a solve that raises half-way leaves nothing of itself alive, so the
    # next solve starts afresh and gives its pinned leaves
    _pre_polys(2)
    monkeypatch.setattr(solver, "verify_assignment", lambda system, asg: (False, system[0]))
    with _refcounting_only():
        branches = _live_solver_objects()[0]
        with pytest.raises(InternalInvariantError):
            _pre_solve(2, -6)
        assert _live_solver_objects() == (branches, 0, 0)
    monkeypatch.undo()
    assert _digest(_pre_solve(2, -6)) == PINNED_LEAVES[2, -6, 10000]


def test_a_solve_pauses_the_cycle_collector_and_restores_it(monkeypatch):
    # solve turns the collector off while it runs and back on after it
    # returns or raises; a caller that had it off finds it still off
    states = []

    def recording(system, asg):
        states.append(gc.isenabled())
        return verify_assignment(system, asg)

    monkeypatch.setattr(solver, "verify_assignment", recording)
    for collecting in (True, False):
        if not collecting:
            gc.disable()
        try:
            _pre_solve(1, -6)
            assert gc.isenabled() == collecting
            with monkeypatch.context() as failing:
                failing.setattr(solver, "verify_assignment", lambda system, asg: (False, system[0]))
                with pytest.raises(InternalInvariantError):
                    _pre_solve(1, -6)
            assert gc.isenabled() == collecting
        finally:
            gc.enable()
    assert states and not any(states)


@pytest.mark.parametrize("budget", [10000, 400])
def test_leaves_come_sorted_by_their_keys(budget):
    # the leaves are kept by key and returned in key order, each key once
    leaves = _pre_solve(2, -6, budget)
    keys = [br.sort_key() for br in leaves]
    assert keys == sorted(set(keys))
    assert leaves == sorted(leaves, key=solver.Branch.sort_key)
    if budget < 10000:
        assert any(br.status == "stuck" for br in leaves)


class _NeverHits(dict):
    def get(self, key, default=None):
        return default


class _TreeWithoutMemo(solver._Tree):
    """A solve whose memo never hits, so every subtree is explored again."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.memo = _NeverHits()


@pytest.mark.parametrize("budget", [60, 250, 400, 10000])
def test_the_memo_changes_no_leaf(budget, monkeypatch):
    # a skipped subtree adds no leaf and charges its nodes to the budget, so
    # the leaves, the budget-stuck ones too, are those of a full exploration
    leaves = _pre_solve(2, -6, budget)
    keys = [br.sort_key() for br in leaves]
    assert len(set(keys)) == len(keys)
    monkeypatch.setattr(solver, "_Tree", _TreeWithoutMemo)
    assert _pre_solve(2, -6, budget) == leaves


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
    assert len(leaves) == 29 and len(stuck) == 2
    by_point = {tuple(br.assignment.items()): br for br in stuck}
    leaf = by_point[tuple(Assignment({MU: -1, b(1): 0, a(1): 15}).items())]
    # a0 = 5/2*r is still pending on r, so the leaf can be resumed from it;
    # the elimination is reported in normal form
    assert parse_poly("2*a0 - 5*r") in leaf.remaining


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


def _deflate(coeffs: list[int], root: F) -> list[int]:
    """Ascending integer coefficients divided by (d*x - n), root = n/d, as
    often as it divides.  By Gauss's lemma the quotient of an integer
    polynomial by a primitive integer factor is integral, so the first
    inexact step proves that the factor does not divide."""
    n, d = root.numerator, root.denominator
    while True:
        quotient, carry = [], 0
        for c in reversed(coeffs[1:]):
            carry, rem = divmod(c + n * carry, d)
            if rem:
                return coeffs
            quotient.append(carry)
        if coeffs[0] + n * carry:
            return coeffs
        coeffs = quotient[::-1]


def _left_by_previous_deflation(p):
    # move 1's leftover as computed before the kernel's pseudo-division
    # took its place: the previous _deflate, root by root
    (x,) = p.symbols()
    coeffs = p.as_univariate(x)
    roots = sorted(rational_roots(coeffs))
    for root in roots:
        coeffs = _deflate(coeffs, root)
    if not roots:
        return p
    if len(coeffs) > 1:
        return MPoly({monomial([(x, i)]): c for i, c in enumerate(coeffs)}).normalize()
    return None


@st.composite
def _scaled_root_products(draw):
    # c * prod (d_i*x - n_i)^m_i * (x^2 + s): large roots, repeated roots,
    # and a quadratic that has rational roots for some s
    x = MPoly.var(a(0))
    p = draw(st.integers(-10**6, 10**6).filter(bool)) * (x**2 + draw(st.integers(-30, 30)))
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(-10**30, 10**30))
        d = draw(st.integers(1, 10**30))
        p = p * (d * x - n) ** draw(st.integers(1, 3))
    return p.normalize()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scaled_root_products())
def test_move_1_leaves_what_the_previous_deflation_left(p):
    tree = solver._Tree(SolveConfig(unknowns=(a(0),)))
    q = tree.intern(p)
    q.make_normal()
    tree.branch_on(q)
    assert q.left == _left_by_previous_deflation(p)


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


def test_non_unit_pivot_left_pending_is_reported_in_normal_form():
    # a1 stays free, so the elimination of a0 = (1 - 2*a1)/3 is reported,
    # as the normal form of a0 - (1 - 2*a1)/3
    leaves = solve([parse_poly("3*a0 + 2*a1 - 1")], SolveConfig(unknowns=(a(0), a(1))))
    assert [br.status for br in leaves] == [solver.FREE]
    (rem,) = leaves[0].remaining
    assert rem == parse_poly("3*a0 + 2*a1 - 1")
    assert all(type(c) in (int, F) for c in rem.terms.values())


def test_tied_pivot_keys_fall_to_the_working_order():
    # both equations have 3 terms, degree 2 and the pivot a1, so a1 is
    # eliminated by the first in working order: a0*k + a1 + 2, by its text,
    # which stays pending as the leaf's last remaining polynomial
    system = [parse_poly("a1 + a2*k + 1"), parse_poly("a1 + a0*k + 2")]
    leaves = solve(system, SolveConfig(unknowns=(a(0), a(1), a(2), K)))
    assert [(br.status, len(br.assignment)) for br in leaves] == [("stuck", 0)]
    assert leaves[0].witness == parse_poly("a0*k - a2*k + 1")
    assert [p.ascii() for p in leaves[0].remaining] == ["a0*k - a2*k + 1", "a0*k + a1 + 2"]


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
