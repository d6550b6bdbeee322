"""One-shot end-to-end reproduction: balance, derive both systems against
their transcriptions, solve at three rational wave speeds (one solve per
method, mapped to the other two by the scaling symmetry), substitute every
catalog parameter tuple exactly, and reduce the auxiliary-equation
identities, the PDE residual of all ten closed forms and the four
cross-method identities to the zero polynomial.  Every verdict is exact."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import __version__, closedform, fixtures, pre, tanh
from .equation import EquationSpec, ito
from .poly import rational_roots
from .solver import CONTRADICTION, FREE, SOLVED, STUCK, Assignment, SolveConfig
from .solver import scale_leaves, solve, verify_assignment
from .symbols import LAM, MAX_ORDER, R, Sym, a

# The solved wave speeds lam = -6*m^4 for m = 1, 2, 3, in that order: there
# w = (-lam/6)^(1/4) = m, which keeps every branch rational.
GRID = tuple(Fraction(-6 * m**4) for m in (1, 2, 3))


# each method is a module with default_order, derive_system, weights and PAPER_SIGNS
METHODS = {"tanh": tanh, "pre": pre}


def derive(method: str, spec: EquationSpec | None = None, order: int | None = None):
    """(order, system) of the method named ``method`` for ``spec`` (Ito by
    default); the order defaults to the method's ``default_order``.  An
    unknown name or an order above MAX_ORDER raises ValueError."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; the methods are {', '.join(METHODS)}")
    spec, mod = spec or ito(), METHODS[method]
    if order is None:
        order = mod.default_order(spec)
    if order > MAX_ORDER:
        raise ValueError(f"order {order} is above the maximum order {MAX_ORDER}")
    return order, mod.derive_system(spec, order)


def unknowns(system, presets) -> tuple[Sym, ...]:
    """The symbols of ``system`` that ``presets`` leaves open, in symbol
    order."""
    return tuple(sorted(set().union(*(eq.poly.symbols() for eq in system)) - set(presets)))


def solve_system(system, presets):
    """Branch-solve ``system`` for every symbol ``presets`` does not bind."""
    cfg = SolveConfig(unknowns=unknowns(system, presets), presets=Assignment(presets))
    return solve([eq.poly for eq in system], cfg)


def solve_grid(system, presets, weights) -> list:
    """The leaves of ``system`` at each GRID speed, ``presets`` binding the
    other symbols: one solve at lam = -6, whose leaves the scaling symmetry
    with s = m and ``weights`` maps to lam = -6*m^4."""
    presets = {LAM: GRID[0], **presets}
    leaves, polys = solve_system(system, presets), [eq.poly for eq in system]
    return [leaves, *scale_leaves(polys, presets, leaves, weights, range(2, len(GRID) + 1))]


@lru_cache(maxsize=8)
def specialized(m: int) -> tuple[tuple[closedform.SolutionRecord, dict[Sym, Fraction], tuple], ...]:
    """Each catalog record with its exact values at lam = -6*m^4 and the
    key (method, values), equal for records that share both, made once per
    m; the catalog is constant, so callers share the result and must not
    mutate it."""
    out = []
    for rec in closedform.catalog():
        values = rec.specialize(m)
        out.append((rec, values, (rec.method, frozenset(values.items()))))
    return tuple(out)


def paper_branches(method: str, m: int) -> list[dict]:
    """The generating parameter tuples of ``method``'s catalog records at
    lam = -6*m^4, without lam, each once, in catalog order."""
    out: list[dict] = []
    for rec, values, _ in specialized(m):
        tup = {s: v for s, v in values.items() if s is not LAM}
        if rec.method == method and tup not in out:
            out.append(tup)
    return out


def check_solver_run(branches, expected: list[tuple[str, dict]]) -> tuple[bool, str]:
    """(True, "ok") when each (status, bindings) pair of ``expected`` is a
    leaf of ``branches``, its bindings matched exactly, and no stuck
    witness in one symbol keeps a rational root; else (False, the faults)."""
    got = [(br.status, br.assignment.as_dict()) for br in branches]
    missing = [f"{status} {Assignment(b)}" for status, b in expected if (status, b) not in got]
    msgs = [f"missing leaves: {', '.join(missing)}"] if missing else []
    # move 1 divides every rational root out of the factor it leaves, and
    # no grid solve runs out of budget, so no stuck witness keeps one
    rooted = [
        br.witness.ascii() for br in branches
        if br.status == STUCK and len(xs := br.witness.symbols()) == 1
        and rational_roots(br.witness.as_univariate(*xs))
    ]
    if rooted:
        msgs.append(f"stuck leaves keep a rational root: {', '.join(dict.fromkeys(rooted))}")
    return (not msgs, "; ".join(msgs) or "ok")


def check_exact_substitution(systems: dict, m: int) -> tuple[bool, str]:
    """Every catalog parameter tuple annihilates the system of its method in
    ``systems`` (method name to system) at lam = -6*m^4, with the method's
    signs, in exact rational arithmetic.  Records that share a method and
    a tuple share one check; a failure names the first failing record in
    catalog order."""
    polys = {name: [eq.poly for eq in system] for name, system in systems.items()}
    verdicts: dict[tuple, tuple[bool, object]] = {}
    for rec, asg, key in specialized(m):
        if key not in verdicts:
            verdicts[key] = verify_assignment(polys[rec.method], {**asg, **METHODS[rec.method].PAPER_SIGNS})
        ok, witness = verdicts[key]
        if not ok:
            return False, f"{rec.id} ({rec.anchor}) fails on {witness}"
    return True, "ok"


def check_all_zero(residuals: dict, ok_detail: str, what: str = "residual") -> tuple[bool, str]:
    """(True, ``ok_detail``) when every value of ``residuals`` is zero (a
    zero polynomial or False), else (False, the names of the others)."""
    bad = [name for name, rest in residuals.items() if rest]
    if bad:
        return False, f"nonzero {what}: {', '.join(bad)}"
    return True, ok_detail


def check_phi_catalog() -> tuple[bool, str]:
    """phi' - (k + phi^2) reduces to 0 for every closed form of the tanh
    method."""
    forms = closedform.PHI_FORMS
    return check_all_zero(
        {name: closedform.phi_residual(*form) for name, form in forms.items()},
        f"phi' - (k + phi^2) reduces to 0 for all {len(forms)} forms",
    )


def check_st_catalog() -> tuple[bool, str]:
    """Both rules of the projective method, and for r != 0 its first
    integral, reduce to 0 for every sigma-tau case."""
    cases = closedform.ST_CASES
    with_r = sum(1 for *_, fixed in cases.values() if fixed[R])
    return check_all_zero(
        {name: any(closedform.st_residuals(*case)) for name, case in cases.items()},
        f"both rules reduce to 0 for all {len(cases)} cases, "
        f"the first integral for the {with_r} with r != 0",
    )


IDENTITY_PAIRS = (("u7", "u1"), ("u8", "u2"), ("u9", "u3"), ("u10", "u4"))


def check_identities() -> tuple[bool, str]:
    """Each projective template minus its tanh partner in IDENTITY_PAIRS
    reduces to 0: the two are one function for every lam < 0."""
    get = closedform.get_solution
    diffs = {
        f"{s1} - {s2}": closedform.reduced(get(s1).template - get(s2).template)
        for s1, s2 in IDENTITY_PAIRS
    }
    return check_all_zero(diffs, f"{', '.join(diffs)} reduce to 0", "difference")


class ReproduceResult(NamedTuple):
    doc: dict
    exit_code: int
    systems: tuple  # (tanh, pre), what the LaTeX appendix renders

    @property
    def latex(self) -> str:
        """The LaTeX appendix, rendered on each read: only ``--latex`` needs it."""
        return render_latex(*self.systems)


def branch_json(br) -> dict:
    out = {
        "bindings": {s.name: str(v) for s, v in br.assignment.items()},
        "status": br.status,
    }
    if br.free_symbols:
        out["free_symbols"] = [s.name for s in br.free_symbols]
    if br.witness is not None:
        out["witness"] = br.witness.ascii()
    if br.remaining:
        out["remaining"] = [p.ascii() for p in br.remaining]
    return out


def system_json(system) -> list[dict]:
    out = []
    for eq in system:
        entry = {"power": eq.power}
        if eq.tau_degree is not None:
            entry["tau_degree"] = eq.tau_degree
        if eq.r_power is not None:
            entry["r_power"] = eq.r_power
        entry["poly"] = eq.poly.ascii()
        out.append(entry)
    return out


def system_latex(system) -> str:
    """The system as a LaTeX align block, one row per equation."""
    lines = [r"\begin{align*}"]
    for eq in system:
        head = (
            rf"\varphi^{{{eq.power}}}"
            if eq.tau_degree is None
            else rf"\sigma^{{{eq.power}}}\tau^{{{eq.tau_degree}}}"
        )
        lines.append(rf"{head}:\quad & {eq.poly.latex()} = 0 \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines)


def manifest(command: str, spec: EquationSpec, method: str | None, lambdas: list[str],
             seed: int | None, timestamp: str | None) -> dict:
    """The run manifest every JSON document embeds."""
    return {
        "command": command,
        "equation": {name: str(v) for name, v in zip(spec._fields, spec)},
        "method": method,
        "lambda_values": lambdas,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": timestamp,
    }


def run_reproduce(seed: int = 7, timestamp: str | None = None) -> ReproduceResult:
    """Run every stage; ``seed`` is only recorded in the manifest, since no
    stage draws a random number."""
    stages: list[dict] = []
    exit_code = 0

    def stage(name: str, ok: bool, detail: str, fail_code: int = 1) -> bool:
        nonlocal exit_code
        stages.append({"stage": name, "ok": bool(ok), "detail": detail})
        if not ok and exit_code == 0:
            exit_code = fail_code
        return ok

    # balance, derive and compare both systems with their transcriptions
    orders, systems = {}, {}
    for name in METHODS:
        orders[name], systems[name] = derive(name)
    stage("balance", orders["tanh"] == 2, f"M = {orders['tanh']}")
    for name, count in {"tanh": 8, "pre": 13}.items():
        diffs = fixtures.compare_systems(systems[name], fixtures.load_fixture(name))
        stage(f"derive-{name}", not diffs and len(systems[name]) == count,
              f"{len(systems[name])} equations; "
              + ("matches transcription" if not diffs else diffs[0].describe()), fail_code=3)

    # solve at the grid's wave speeds; besides the catalog's branches, tanh
    # has a free-constant leaf and a contradiction through a2 = -6, which
    # the scaling map keeps: 0 maps to 0, and a2 has weight 0
    extra = {"tanh": [(FREE, {a(1): 0, a(2): 0}), (CONTRADICTION, {a(1): 0, a(2): -6})], "pre": []}
    grids = {name: solve_grid(systems[name], mod.PAPER_SIGNS, mod.weights(orders[name]))
             for name, mod in METHODS.items()}
    solves = []
    for m, lam in enumerate(GRID, start=1):
        leaves = {name: grid[m - 1] for name, grid in grids.items()}
        runs = {name: check_solver_run(tree, [(SOLVED, t) for t in paper_branches(name, m)] + extra[name])
                for name, tree in leaves.items()}
        stage(f"solve@{lam}", all(ok for ok, _ in runs.values()),
              "; ".join(f"{name}: {msg}" for name, (_, msg) in runs.items()))
        solves.append({"lambda": str(lam), **{f"{name}_branches": [branch_json(br) for br in tree]
                                              for name, tree in leaves.items()}})

    # exact substitution of every catalog parameter tuple
    for m, lam in enumerate(GRID, start=1):
        stage(f"substitute@{lam}", *check_exact_substitution(systems, m))

    # auxiliary-equation catalogs
    stage("phi-catalog", *check_phi_catalog())
    stage("sigma-tau-catalog", *check_st_catalog())

    # exact PDE residuals, for every lam < 0 at once
    residuals = {rec.id: closedform.exact_residual(rec) for rec in closedform.catalog()}
    stage("pde-exact", *check_all_zero(residuals, "all 10 residuals reduce to 0"))

    # cross-method identities, for every lam < 0 at once
    stage("identities", *check_identities())

    doc = {
        "schema": 1,
        "manifest": manifest(
            "reproduce", ito(), "+".join(METHODS), [str(v) for v in GRID], seed, timestamp
        ),
        "stages": stages,
        "systems": {name: system_json(system) for name, system in systems.items()},
        "solves": solves,
        "ok": all(s["ok"] for s in stages),
    }
    return ReproduceResult(doc=doc, exit_code=exit_code, systems=tuple(systems.values()))


def render_latex(tanh_system, pre_system) -> str:
    lines = [
        r"\section*{Derived algebraic systems}",
        r"\subsection*{tanh ansatz, order 2}",
        system_latex(tanh_system),
        r"\subsection*{projective Riccati ansatz, depth 1}",
        system_latex(pre_system),
        r"\section*{Solution catalog}",
        r"\[ w = \sqrt[4]{-\lambda/6}, \quad \xi = x + \lambda t \]",
    ]
    for rec in closedform.catalog():
        lines.append(rf"\subsection*{{{rec.id} (branch {rec.anchor}, {rec.method})}}")
        params = ",\\; ".join(f"{s.latex()} = {v.latex()}" for s, v in rec.params.items())
        lines.append(rf"\[ {params} \]")
        lines.append(rf"\[ u(x,t) = {rec.template.latex()} \]")
    return "\n".join(lines) + "\n"
