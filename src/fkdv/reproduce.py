"""One-shot end-to-end reproduction: balance, derive both systems against
their transcriptions, solve at three rational wave speeds, substitute every
catalog parameter tuple exactly, and reduce the auxiliary-equation
identities, the PDE residual of all ten closed forms and the four
cross-method identities to the zero polynomial.  Every verdict is exact."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import __version__, closedform, fixtures, pre, tanh
from .equation import EquationSpec, ito
from .solver import Assignment, SolveConfig, solve, verify_assignment
from .symbols import LAM, MAX_ORDER, R, Sym, a

# The solved wave speeds lam = -6*m^4 for m = 1, 2, 3, in that order: there
# w = (-lam/6)^(1/4) = m, which keeps every branch rational.
GRID = tuple(Fraction(-6 * m**4) for m in (1, 2, 3))


def derive(method: str, spec: EquationSpec | None = None, order: int | None = None):
    """(order, system) of ``method`` ("tanh" or "pre") for ``spec`` (Ito by
    default); the order defaults to the balanced M for tanh and to depth 1
    for the projective method.  An order above MAX_ORDER raises ValueError."""
    spec = spec or ito()
    if order is None:
        order = tanh.balance_M(tanh.balance_terms_for(spec)) if method == "tanh" else 1
    if order > MAX_ORDER:
        raise ValueError(f"order {order} is above the maximum order {MAX_ORDER}")
    if method == "tanh":
        return order, tanh.extract_system(tanh.ode_residual(spec, tanh.build_ansatz(order)))
    return order, pre.extract_pre_system(pre.pre_ode_residual(spec, pre.build_pre_ansatz(order)))


def unknowns(system, presets) -> tuple[Sym, ...]:
    """The symbols of ``system`` that ``presets`` leaves open, in symbol
    order."""
    return tuple(sorted(set().union(*(eq.poly.symbols() for eq in system)) - set(presets)))


def solve_system(system, presets):
    """Branch-solve ``system`` for every symbol ``presets`` does not bind."""
    cfg = SolveConfig(unknowns=unknowns(system, presets), presets=Assignment(presets))
    return solve([eq.poly for eq in system], cfg)


def specialized(m: int) -> list[tuple[closedform.SolutionRecord, dict[Sym, Fraction]]]:
    """Each catalog record with its exact values at lam = -6*m^4."""
    return [(rec, rec.specialize(m)) for rec in closedform.catalog()]


def paper_branches(method: str, m: int, table=None) -> list[dict]:
    """The generating parameter tuples of ``method``'s catalog records at
    lam = -6*m^4, without lam, each once, in catalog order (``table`` is
    ``specialized(m)``, made here when not given)."""
    out: list[dict] = []
    for rec, values in table or specialized(m):
        tup = {s: v for s, v in values.items() if s is not LAM}
        if rec.method == method and tup not in out:
            out.append(tup)
    return out


def check_solver_run(branches, expected: list[dict], free_expect: dict | None,
                     contradiction_binding: dict | None) -> tuple[bool, str]:
    got = [br.assignment.as_dict() for br in branches if br.status == "solved"]
    missing = [exp for exp in expected if exp not in got]
    msgs = []
    if missing:
        msgs.append(f"missing solved branches: {missing}")
    if free_expect is not None:
        ok_free = any(
            br.status == "solved_with_free_symbols"
            and br.assignment.as_dict() == free_expect
            for br in branches
        )
        if not ok_free:
            msgs.append("free-constant branch not found")
    if contradiction_binding is not None:
        ok_con = any(
            br.status == "contradiction"
            and all(
                br.assignment.as_dict().get(s) == v
                for s, v in contradiction_binding.items()
            )
            for br in branches
        )
        if not ok_con:
            msgs.append(f"contradiction branch through {contradiction_binding} not found")
    return (not msgs, "; ".join(msgs) or "ok")


def check_exact_substitution(tanh_system, pre_system, m: int, table=None) -> tuple[bool, str]:
    """Every catalog parameter tuple annihilates its generating system at
    lam = -6*m^4, in exact rational arithmetic; ``table`` is as in
    :func:`paper_branches`."""
    tanh_polys = [eq.poly for eq in tanh_system]
    pre_polys = [eq.poly for eq in pre_system]
    for rec, asg in table or specialized(m):
        if rec.method == "pre":
            asg = {**asg, **pre.PAPER_SIGNS}
            system = pre_polys
        else:
            system = tanh_polys
        ok, witness = verify_assignment(system, asg)
        if not ok:
            return False, f"{rec.id} ({rec.anchor}) fails on {witness}"
    return True, "ok"


def check_phi_catalog() -> tuple[bool, str]:
    """phi' - (k + phi^2) reduces to 0 for every closed form of the tanh
    method."""
    forms = closedform.PHI_FORMS
    bad = [name for name, form in forms.items() if closedform.phi_residual(*form)]
    if bad:
        return False, f"nonzero residual: {', '.join(bad)}"
    return True, f"phi' - (k + phi^2) reduces to 0 for all {len(forms)} forms"


def check_st_catalog() -> tuple[bool, str]:
    """Both rules of the projective method, and for r != 0 its first
    integral, reduce to 0 for every sigma-tau case."""
    cases = closedform.ST_CASES
    bad = [name for name, case in cases.items() if any(closedform.st_residuals(*case))]
    if bad:
        return False, f"nonzero residual: {', '.join(bad)}"
    with_r = sum(1 for *_, fixed in cases.values() if fixed[R])
    return True, (
        f"both rules reduce to 0 for all {len(cases)} cases, "
        f"the first integral for the {with_r} with r != 0"
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
    bad = [name for name, rest in diffs.items() if rest]
    if bad:
        return False, f"nonzero difference: {', '.join(bad)}"
    return True, f"{', '.join(diffs)} reduce to 0"


@dataclass
class ReproduceResult:
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
        "equation": {
            "alpha": str(spec.alpha),
            "beta": str(spec.beta),
            "gamma": str(spec.gamma),
            "omega": str(spec.omega),
        },
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
    order, tanh_system = derive("tanh")
    stage("balance", order == 2, f"M = {order}")
    _, pre_system = derive("pre")
    for method, system, count in (("tanh", tanh_system, 8), ("pre", pre_system, 13)):
        diffs = fixtures.compare_systems(system, fixtures.load_fixture(method))
        stage(
            f"derive-{method}",
            not diffs and len(system) == count,
            f"{len(system)} equations; "
            + ("matches transcription" if not diffs else diffs[0].describe()),
            fail_code=3,
        )

    # solve at the grid's wave speeds; each record is specialized once per m
    tables = [specialized(m) for m in range(1, len(GRID) + 1)]
    solves = []
    for m, lam in enumerate(GRID, start=1):
        tb = solve_system(tanh_system, {LAM: lam})
        ok_t, msg_t = check_solver_run(
            tb,
            paper_branches("tanh", m, tables[m - 1]),
            free_expect={a(1): Fraction(0), a(2): Fraction(0)},
            contradiction_binding={a(2): Fraction(-6)},
        )
        pb = solve_system(pre_system, {LAM: lam, **pre.PAPER_SIGNS})
        ok_p, msg_p = check_solver_run(pb, paper_branches("pre", m, tables[m - 1]), None, None)
        stage(f"solve@{lam}", ok_t and ok_p, f"tanh: {msg_t}; pre: {msg_p}")
        solves.append(
            {
                "lambda": str(lam),
                "tanh_branches": [branch_json(br) for br in tb],
                "pre_branches": [branch_json(br) for br in pb],
            }
        )

    # exact substitution of every catalog parameter tuple
    for m, lam in enumerate(GRID, start=1):
        ok, msg = check_exact_substitution(tanh_system, pre_system, m, tables[m - 1])
        stage(f"substitute@{lam}", ok, msg)

    # auxiliary-equation catalogs
    stage("phi-catalog", *check_phi_catalog())
    stage("sigma-tau-catalog", *check_st_catalog())

    # exact PDE residuals, for every lam < 0 at once
    nonzero = [rec.id for rec in closedform.catalog() if closedform.exact_residual(rec)]
    stage(
        "pde-exact",
        not nonzero,
        "all 10 residuals reduce to 0" if not nonzero else f"nonzero residual: {', '.join(nonzero)}",
    )

    # cross-method identities, for every lam < 0 at once
    stage("identities", *check_identities())

    doc = {
        "schema": 1,
        "manifest": manifest(
            "reproduce", ito(), "tanh+pre", [str(v) for v in GRID], seed, timestamp
        ),
        "stages": stages,
        "systems": {"tanh": system_json(tanh_system), "pre": system_json(pre_system)},
        "solves": solves,
        "ok": all(s["ok"] for s in stages),
    }
    return ReproduceResult(doc=doc, exit_code=exit_code, systems=(tanh_system, pre_system))


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
