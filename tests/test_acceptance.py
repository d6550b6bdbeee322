"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantity.  Run with ``pytest tests/test_acceptance.py -v``."""

import json
import random
import time
from fractions import Fraction as F

from fkdv import cli, closedform, pre, tanh
from fkdv.equation import ito
from fkdv.fixtures import compare_systems, load_fixture
from fkdv.poly import MPoly, monomial, rational_roots
from fkdv.reproduce import (
    check_phi_catalog,
    check_st_catalog,
    paper_branches,
    solve_system,
)
from fkdv.solver import rational_lambda_grid, verify_assignment
from fkdv.symbols import E, LAM, MU, R, RHO, Sym, a, b


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS: {detail}")


def _solved_set(branches):
    return {
        tuple(sorted((s.name, v) for s, v in br.assignment.items()))
        for br in branches
        if br.status == "solved"
    }


def test_criterion_01_balance():
    m = tanh.balance_M(tanh.balance_terms_for(ito()))
    assert m == 2
    _ok(1, "balancing the Ito preset gives M = 2 exactly")


def test_criterion_02_tanh_fixture(tanh_system):
    assert len(tanh_system) == 8
    diffs = compare_systems(tanh_system, load_fixture("tanh"))
    assert diffs == []
    _ok(2, "derived tanh system equals the 8-equation transcription exactly")


def test_criterion_03_pre_fixture(pre_system):
    assert len(pre_system) == 13
    diffs = compare_systems(pre_system, load_fixture("pre"))
    assert diffs == []
    _ok(3, "derived sigma-tau system equals the 13-equation transcription "
           "(up to rational multiples of r powers)")


def test_criterion_04_exact_substitution(tanh_system, pre_system):
    tanh_polys = [eq.poly for eq in tanh_system]
    pre_polys = [eq.poly for eq in pre_system]
    checked = 0
    for m, lam in enumerate(rational_lambda_grid(3), start=1):
        for rec in closedform.catalog():
            asg = rec.specialize(m)
            assert asg[LAM] == lam
            if rec.method == "pre":
                asg[E], asg[RHO] = F(1), F(-1)
                ok, witness = verify_assignment(pre_polys, asg)
            else:
                ok, witness = verify_assignment(tanh_polys, asg)
            assert ok, (rec.id, lam, witness)
            checked += 1
    assert checked == 30
    _ok(4, "all 10 parameter tuples annihilate their systems at "
           "lambda in {-6, -96, -486}, exact arithmetic")


def test_criterion_05_solver_reproduction(tanh_system, pre_system):
    t0 = time.time()
    tanh_branches = solve_system(tanh_system, {LAM: F(-6)})
    tanh_elapsed = time.time() - t0
    got = _solved_set(tanh_branches)
    for exp in paper_branches("tanh", 1):
        assert tuple(sorted((s.name, v) for s, v in exp.items())) in got
    assert any(
        br.status == "solved_with_free_symbols"
        and br.assignment.as_dict() == {a(1): F(0), a(2): F(0)}
        and set(br.free_symbols) == {a(0), Sym("k")}
        for br in tanh_branches
    )
    assert any(
        br.status == "contradiction" and br.assignment.as_dict().get(a(2)) == F(-6)
        for br in tanh_branches
    )

    t0 = time.time()
    pre_branches = solve_system(pre_system, {LAM: F(-6), E: 1, RHO: -1})
    pre_elapsed = time.time() - t0
    got = _solved_set(pre_branches)
    for exp in paper_branches("pre", 1):
        assert tuple(sorted((s.name, v) for s, v in exp.items())) in got
    assert tanh_elapsed < 10.0 and pre_elapsed < 10.0
    _ok(5, f"solver reproduces all required branches at lambda = -6 "
           f"(tanh {tanh_elapsed:.2f}s, pre {pre_elapsed:.2f}s)")


def test_criterion_06_numeric_residuals():
    worst = 0.0
    for lam in (-6.0, -2.5):
        for rec in closedform.catalog():
            rep = closedform.sample_report(rec.id, lam, closedform.SamplePlan(seed=7))
            assert rep.verdict == "pass", (rec.id, lam, rep.verdict)
            assert len(rep.samples) >= 20
            worst = max(worst, rep.max_relative_residual)
    assert worst <= 1e-6
    _ok(6, f"all ten solutions pass residual sampling at lambda = -6 and "
           f"-2.5; worst max relative residual {worst:.3e} <= 1e-6")


def test_criterion_07_cross_method_identities():
    worst = 0.0
    for s1, s2 in (("u7", "u1"), ("u8", "u2"), ("u9", "u3"), ("u10", "u4")):
        diff, used = closedform.pointwise_compare(s1, s2, -6.0, closedform.SamplePlan(seed=7))
        assert used >= 20
        assert diff <= 1e-10, (s1, s2, diff)
        worst = max(worst, diff)
    _ok(7, f"u7=u1, u8=u2, u9=u3, u10=u4 pointwise at lambda = -6; "
           f"worst difference {worst:.3e} <= 1e-10")


def test_criterion_08_auxiliary_catalogs():
    ok_phi, detail_phi = check_phi_catalog()
    assert ok_phi, detail_phi
    ok_st, detail_st = check_st_catalog()
    assert ok_st, detail_st
    # the residuals themselves are the zero polynomial, not small numbers
    for phi, k in closedform.PHI_FORMS.values():
        assert closedform.phi_residual(phi, k) == MPoly.zero()
    identities = 0
    for case in closedform.ST_CASES.values():
        residuals = closedform.st_residuals(*case)
        assert residuals == [MPoly.zero()] * len(residuals)
        identities += len(residuals)
    assert identities == 14  # two rules for all five cases, first integral for four
    _ok(8, f"phi' - (k + phi^2) reduces to 0 for all {len(closedform.PHI_FORMS)} phi forms; "
           f"both sigma-tau rules and the first integral reduce to 0 for all "
           f"{len(closedform.ST_CASES)} cases ({identities} exact identities)")


def test_criterion_09_algebraic_property_suites(tanh_system, pre_system):
    rng = random.Random(99)

    # Leibniz law for d/dxi = derive(TANH_RULES): exact on 100 random pairs
    phi = MPoly.var(Sym("phi"))

    def rand_phi():
        return sum(
            (
                (MPoly.const(F(rng.randint(-5, 5))) + MPoly.var(rng.choice([a(0), a(1), Sym("k")])))
                * phi**j
                for j in range(rng.randint(1, 3))
            ),
            MPoly.zero(),
        )

    for _ in range(100):
        p, q = rand_phi(), rand_phi()
        d = tanh.TANH_RULES
        assert (p * q).derive(d) == p.derive(d) * q + p * q.derive(d)

    # tau elimination commutes with derive(PRE_RULES) at e = +-1: with the
    # cleared r-powers aligned, eliminating before or after d/dxi agrees
    sigma, tau, r = (MPoly.var(Sym(n)) for n in ("sigma", "tau", "r"))

    def rand_st():
        p = MPoly.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = MPoly.const(F(rng.randint(-4, 4))) + MPoly.var(rng.choice([a(1), b(1), MU, R]))
            p = p + coeff * sigma ** rng.randint(0, 2) * tau ** rng.randint(0, 3)
        return p

    for _ in range(100):
        p = rand_st()
        after, s_after = pre.eliminate_tau(p.derive(pre.PRE_RULES))
        reduced, s_p = pre.eliminate_tau(p)
        before, s_before = pre.eliminate_tau(reduced.derive(pre.PRE_RULES))
        top = max(s_after, s_p + s_before)
        defect = after * r ** (top - s_after) - before * r ** (top - s_p - s_before)
        assert defect.substitute({E: 1}).is_zero()
        assert defect.substitute({E: -1}).is_zero()

    # substitution homomorphism
    syms = [a(0), a(1), a(2), Sym("k"), MU]

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = monomial({s: rng.randint(1, 3) for s in rng.sample(syms, rng.randint(0, 2))})
            terms[mono] = terms.get(mono, 0) + F(rng.randint(-9, 9), rng.randint(1, 4))
        return MPoly(terms)

    for _ in range(100):
        p, q = rand_poly(), rand_poly()
        bind = {s: F(rng.randint(-3, 3)) for s in rng.sample(syms, rng.randint(0, 3))}
        assert (p * q).substitute(bind) == p.substitute(bind) * q.substitute(bind)

    # solver soundness on every solved branch (also self-checked inside solve)
    from fkdv.solver import Assignment

    tanh_polys = [eq.poly for eq in tanh_system]
    for br in solve_system(tanh_system, {LAM: F(-6)}):
        if br.status == "solved":
            ok, _ = verify_assignment(
                tanh_polys, br.assignment.merged(Assignment({LAM: F(-6)}))
            )
            assert ok
    pre_polys = [eq.poly for eq in pre_system]
    for br in solve_system(pre_system, {LAM: F(-6), E: 1, RHO: -1}):
        if br.status == "solved":
            ok, _ = verify_assignment(
                pre_polys,
                br.assignment.merged(Assignment({LAM: F(-6), E: F(1), RHO: F(-1)})),
            )
            assert ok

    # rational_roots against the brute-force candidate grid
    for _ in range(25):
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [
            rng.choice([1, -1]) * rng.randint(1, 20)
        ]
        brute = set()
        n = len(coeffs) - 1
        for num in range(-200, 201):
            for den in range(1, 21):
                if sum(c * num**i * den ** (n - i) for i, c in enumerate(coeffs)) == 0:
                    brute.add(F(num, den))
        assert rational_roots(coeffs) == brute

    _ok(9, "derivation laws, substitution homomorphism, solver soundness and "
           "rational-root brute force all hold exactly")


def test_criterion_10_reproduce_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["reproduce", "--seed", "7", "--json", str(p1)]) == 0
    assert cli.main(["reproduce", "--seed", "7", "--json", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["ok"] is True
    _ok(10, f"reproduce --seed 7 twice emits byte-identical JSON "
            f"({len(b1)} bytes)")
