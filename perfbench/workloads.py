"""The four benchmark workloads, their inputs and their output checks.

A workload is a list of operations built from the seed.  An operation is a
self-contained call into ``fkdv`` (timed) plus a check of its output (not
timed).  Every call goes through a module attribute (``solver.solve``, not a
name imported here) so that the tracer's wrappers see it.

The checks use references that do not come from the solver under test: the
paper's parameter tuples, the checksummed fixture transcriptions, literature
tuples for other members of the family, and zero-padding of all of them to
higher ansatz orders.  A check also fingerprints the output, and the runner
requires the same fingerprint for the same operation on every pass of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from fkdv import cli, fixtures, pre, solver, tanh
from fkdv.equation import EquationSpec
from fkdv.symbols import E, LAM, MU, RHO, K, R, a, b

# (alpha, beta, gamma, omega) of u_t + omega*u_xxxxx + alpha*u^2*u_x
# + beta*u_x*u_xx + gamma*u*u_xxx = 0.
FAMILY = {
    "ito": (2, 6, 3, 1),
    "sk": (45, 15, 15, 1),
    "lax": (30, 20, 10, 1),
    "kk": (20, 25, 10, 1),
}

F = Fraction

# Known exact tanh tuples (phi' = k + phi^2, u = a0 + a1*phi + a2*phi^2).
# Ito: the paper's two branches at lam = -6 (q = 1).  Sawada-Kotera, Lax and
# Kaup-Kupershmidt: the solitary waves at k = -1, where KK has its two
# branches with amplitude ratio 8.
TANH_TUPLES = {
    "ito": [
        {"a0": F(-5), "a1": F(0), "a2": F(-30), "k": F(1, 4), "lam": F(-6)},
        {"a0": F(5), "a1": F(0), "a2": F(-30), "k": F(-1, 4), "lam": F(-6)},
    ],
    "sk": [{"a0": F(8, 3), "a1": F(0), "a2": F(-4), "k": F(-1), "lam": F(-16)}],
    "lax": [{"a0": F(4), "a1": F(0), "a2": F(-6), "k": F(-1), "lam": F(-56)}],
    "kk": [
        {"a0": F(1), "a1": F(0), "a2": F(-3, 2), "k": F(-1), "lam": F(-1)},
        {"a0": F(8), "a1": F(0), "a2": F(-12), "k": F(-1), "lam": F(-176)},
    ],
}


def paper_tanh_tuples(m: int) -> list[dict]:
    """The paper's tanh branches at lam = -6*m^4 (q = m^2)."""
    q = F(m * m)
    return [
        {"a0": -5 * q, "a1": F(0), "a2": F(-30), "k": q / 4},
        {"a0": 5 * q, "a1": F(0), "a2": F(-30), "k": -q / 4},
    ]


def paper_pre_tuples(m: int) -> list[dict]:
    """The paper's projective branches at lam = -6*m^4, e = 1, rho = -1."""
    q = F(m * m)
    h = F(5, 2) * q
    return [
        {"a0": h, "a1": F(15), "b1": F(0), "mu": F(-1), "r": q},
        {"a0": h, "a1": F(-15), "b1": F(0), "mu": F(1), "r": q},
        {"a0": -h, "a1": F(-15), "b1": F(0), "mu": F(1), "r": -q},
        {"a0": -h, "a1": F(15), "b1": F(0), "mu": F(-1), "r": -q},
    ]


PRE_PRESETS = {"e": F(1), "rho": F(-1)}


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "Checked"]


@dataclass
class Checked:
    fingerprint: str
    solutions: int  # distinct (status="solved", assignment) pairs, or tuples confirmed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spec_of(name: str) -> EquationSpec:
    return EquationSpec(*(F(c) for c in FAMILY[name]))


def tanh_unknowns(order: int) -> tuple:
    return tuple(a(j) for j in range(order + 1)) + (K,)


def pre_unknowns(depth: int) -> tuple:
    return (tuple(a(j) for j in range(depth + 1))
            + tuple(b(j) for j in range(1, depth + 1)) + (MU, R))


def derive_tanh(name: str, order: int):
    spec = spec_of(name)
    return tanh.extract_system(tanh.ode_residual(spec, tanh.build_ansatz(order)))


def derive_pre(name: str, depth: int):
    spec = spec_of(name)
    return pre.extract_pre_system(pre.pre_ode_residual(spec, pre.build_pre_ansatz(depth)))


def padded(values: dict, unknowns: tuple) -> dict:
    """Bind ``values`` by symbol name and every other unknown to zero."""
    by_name = {s.name: s for s in unknowns}
    by_name.update({"lam": LAM, "e": E, "rho": RHO, "k": K, "mu": MU, "r": R})
    point = {s: F(0) for s in unknowns}
    for n, v in values.items():
        point[by_name[n]] = v
    return point


def _system_fingerprint(system) -> str:
    return _digest("\n".join(
        f"{eq.power}:{eq.tau_degree}:{eq.r_power}:{eq.poly.ascii()}" for eq in system
    ))


# -- solve operations -----------------------------------------------------------


def _solve_op(label, method, order, lam, expected, expect_no_solved=False) -> Op:
    if method == "tanh":
        unknowns = tanh_unknowns(order)
        presets = {LAM: lam}
    else:
        unknowns = pre_unknowns(order)
        presets = {LAM: lam, E: PRE_PRESETS["e"], RHO: PRE_PRESETS["rho"]}

    def run():
        system = derive_tanh("ito", order) if method == "tanh" else derive_pre("ito", order)
        cfg = solver.SolveConfig(unknowns=unknowns, presets=solver.Assignment(presets))
        return system, solver.solve([eq.poly for eq in system], cfg)

    def check(out) -> Checked:
        system, leaves = out
        polys = [eq.poly for eq in system]
        solved = set()
        for br in leaves:
            if br.status != "solved":
                continue
            point = {**br.assignment.as_dict(), **presets}
            ok, witness = solver.verify_assignment(polys, point)
            if not ok:
                raise CheckFailed(f"{label}: solved leaf fails on {witness}")
            solved.add(frozenset(br.assignment.items()))
        for tup in expected:
            if frozenset(padded(tup, unknowns).items()) not in solved:
                raise CheckFailed(f"{label}: expected branch {tup} not solved")
        if expect_no_solved and solved:
            raise CheckFailed(f"{label}: non-grid wave speed gave a solved leaf")
        fp = _digest(repr([
            (br.status, [(s.name, str(v)) for s, v in br.assignment.items()])
            for br in leaves
        ]))
        return Checked(fp, len(solved))

    return Op(label, run, check)


def projective_deep_ops(seed: int) -> list[Op]:
    ops = [
        _solve_op(f"pre-d{d}@{lam}", "pre", d, F(lam), paper_pre_tuples(m))
        for d, lam, m in ((2, -6, 1), (2, -96, 2), (3, -6, 1))
    ]
    random.Random(seed).shuffle(ops)
    return ops


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3*10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def non_grid_speeds(seed: int) -> list[Fraction]:
    """lam = -6*n with n a prime just above 10^12 and 10^14.

    A prime n is never a square, so sqrt(-lam/6) is irrational and the wave
    speed is off the rational grid.  Taking n prime also keeps the cost the
    same for every seed: the root finder's trial division then runs to
    sqrt(n) with no common factor to cancel first.
    """
    rng = random.Random(seed)
    out = []
    for base in (10**12, 10**14):
        n = base + rng.randrange(1, 10**6)
        while not _is_prime(n):
            n += 1
        out.append(F(-6 * n))
    return out


def large_lambda_ops(seed: int) -> list[Op]:
    ops = []
    for m in (1000, 3000):
        lam = F(-6 * m**4)
        ops.append(_solve_op(f"tanh@grid-m{m}", "tanh", 2, lam, paper_tanh_tuples(m)))
        ops.append(_solve_op(f"pre@grid-m{m}", "pre", 1, lam, paper_pre_tuples(m)))
    for lam in non_grid_speeds(seed):
        ops.append(_solve_op(f"tanh@{lam}", "tanh", 2, lam, [], expect_no_solved=True))
        ops.append(_solve_op(f"pre@{lam}", "pre", 1, lam, []))
    random.Random(seed).shuffle(ops)
    return ops


# -- derivation operations ------------------------------------------------------


def _derive_op(name: str, method: str, order: int) -> Op:
    fixture_check = name == "ito" and (method, order) in (("tanh", 2), ("pre", 1))
    paper_count = {("tanh", 2): 8, ("pre", 1): 13}.get((method, order))
    if method == "tanh":
        tuples = [dict(t) for t in TANH_TUPLES[name]]
        unknowns = tanh_unknowns(order)
    else:
        # The paper's depth-1 tuples, zero-padded, solve every depth.
        tuples = ([{**t, **PRE_PRESETS, "lam": F(-6)} for t in paper_pre_tuples(1)]
                  if name == "ito" else [])
        unknowns = pre_unknowns(order)

    def run():
        if method == "tanh":
            system = derive_tanh(name, order)
        else:
            system = derive_pre(name, order)
        diffs = None
        if fixture_check:
            diffs = fixtures.compare_systems(system, fixtures.load_fixture(method))
        return system, diffs

    def check(out) -> Checked:
        system, diffs = out
        label = f"{name}-{method}-{order}"
        if diffs:
            raise CheckFailed(f"{label}: {diffs[0].describe()}")
        if paper_count is not None and len(system) != paper_count:
            raise CheckFailed(f"{label}: {len(system)} equations, expected {paper_count}")
        polys = [eq.poly for eq in system]
        for tup in tuples:
            ok, witness = solver.verify_assignment(polys, padded(tup, unknowns))
            if not ok:
                raise CheckFailed(f"{label}: known tuple {tup} fails on {witness}")
        return Checked(_system_fingerprint(system), len(tuples))

    return Op(f"derive-{name}-{method}-{order}", run, check)


def derive_sweep_ops(seed: int) -> list[Op]:
    ops = [_derive_op(name, "tanh", order) for name in FAMILY for order in range(2, 6)]
    ops += [_derive_op(name, "pre", depth) for name in FAMILY for depth in range(1, 5)]
    random.Random(seed).shuffle(ops)
    return ops


# -- reproduce --------------------------------------------------------------------


def reproduce_ops(seed: int, out_dir: Path) -> list[Op]:
    path = out_dir / "reproduce.json"
    argv = ["reproduce", "--seed", str(seed), "--json", str(path)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code) -> Checked:
        if code != 0:
            raise CheckFailed(f"fkdv reproduce exited {code}")
        raw = path.read_bytes()
        doc = json.loads(raw)
        bad = [s["stage"] for s in doc["stages"] if not s["ok"]]
        if bad or not doc["ok"]:
            raise CheckFailed(f"reproduce stages failed: {bad}")
        solved = {
            (solve["lambda"], method, tuple(sorted(br["bindings"].items())))
            for solve in doc["solves"]
            for method in ("tanh_branches", "pre_branches")
            for br in solve[method]
            if br["status"] == "solved"
        }
        return Checked(hashlib.sha256(raw).hexdigest(), len(solved))

    return [Op("reproduce", run, check)]


def build(workload: str, seed: int, out_dir: Path) -> list[Op]:
    if workload == "reproduce":
        return reproduce_ops(seed, out_dir)
    if workload == "projective-deep":
        return projective_deep_ops(seed)
    if workload == "large-lambda":
        return large_lambda_ops(seed)
    if workload == "derive-sweep":
        return derive_sweep_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
