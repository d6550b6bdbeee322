"""Mutation gate: every listed mutant must make its check fail.

A mutant is one exact text replacement in a file under src/ and a check,
by default ``fkdv reproduce``.  A fault that reproduce does not see (in the
float evaluator behind ``fkdv verify``, in the solver's budget, which
reproduce never runs out of, in the length of the wave-speed grid, which
no stage checks, in a contradiction leaf that reports its equations or a
pending elimination left as x - e, text that no stage reads, in the
balance order of beta*u_x*u_xx, which Ito's balance at M = 2 does not
depend on, in a kernel result left out of lowest terms, which every
stage reads only through normal forms, in the sign of a unary minus
inside a product, which no transcription writes, in a cached rewrite
image that every reproduce stage reads through one relation and one lead
per symbol or whose extra factor of r, of a denominator or of a relation
no stage sees, in move 2's choice between equal pivot keys, which no
system reproduce solves has, in the sign flags of ``fkdv solve``, which
reproduce never parses, in the validation of an EquationSpec or a
SolveConfig, which reproduce only builds from valid fields, or in a
substitute check that reuses one verdict for all tuples of a method,
where every tuple passes) names a pytest target instead, run from the
repository root.  So does a second mutant of a fault that reproduce
sees, to show that an independent check sees it too: the Gröbner basis
of tests/test_cross_derivation.py, which runs before that file's
comparison of the tanh solve with sympy.solve.  For each mutant, src/ is
copied to a temporary directory, the replacement is applied there and
the check runs on the copy; the mutant is killed when the check exits
nonzero.  A control run of each check on an unmutated copy comes first
and must exit 0.  Run it from anywhere, with the standard library only
(pytest for the pytest checks, and sympy, a test extra, for the Gröbner
basis):

    python tools/mutants.py

It prints one line per run, naming the reproduce stages or the tests that
failed, and exits 1 when an old text does not occur exactly once in its
file, when a control run fails or when a mutant survives.  A new gate of
the form "a mutated X fails" adds its mutant to MUTANTS.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the checks, as arguments to the interpreter
REPRODUCE = ("-m", "fkdv.cli", "reproduce")
CLOSEDFORM_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_closedform.py")
SOLVER_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_solver.py")
ACCEPTANCE_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py")
TANH_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_tanh.py")
POLY_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_poly.py")
PRE_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_pre.py")
CLI_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_cli.py")
EQUATION_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_equation.py")
CROSS_TESTS = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/test_cross_derivation.py")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str  # must occur exactly once in the file
    new: str
    check: tuple[str, ...] = REPRODUCE


MUTANTS = (
    Mutant(
        "sec' rule with its sign flipped",
        "fkdv/closedform.py",
        "SEC: (_HALF_W * _v(SEC) * _v(TAN),",
        "SEC: (-_HALF_W * _v(SEC) * _v(TAN),",
    ),
    Mutant(
        "tanh' = (w/2)(1 + tanh^2)",
        "fkdv/closedform.py",
        "TANH: (_HALF_W * (1 - _v(TANH) ** 2),",
        "TANH: (_HALF_W * (1 + _v(TANH) ** 2),",
    ),
    Mutant(
        "u7 template with +3 sec^2 in place of -3 sec^2",
        "fkdv/closedform.py",
        '"iii", pre_square(F(5, 2), -3, SEC)',
        '"iii", pre_square(F(5, 2), 3, SEC)',
    ),
    Mutant(
        "sec^2 = 1 - tan^2",
        "fkdv/closedform.py",
        "SEC: 1 + _v(TAN) ** 2,",
        "SEC: 1 - _v(TAN) ** 2,",
    ),
    Mutant(
        "one-binding substitution with the value's power off by one",
        "fkdv/poly.py",
        "c *= powers[e]",
        "c *= powers[e - 1]",
    ),
    Mutant(
        "a polynomial binding that pairs the bound symbols' exponents with the wrong values",
        "fkdv/poly.py",
        "zip(values, es)",
        "zip(values[::-1], es)",
    ),
    Mutant(
        "a side relation rewritten with rel ** (e % n) for rel ** (e // n)",
        "fkdv/poly.py",
        "rel, e // n * qs,",
        "rel, e % n * qs,",
    ),
    Mutant(
        "float sum with the built-in sum in place of math.fsum",
        "fkdv/closedform.py",
        "v = math.fsum(total)",
        "v = sum(total)",
        CLOSEDFORM_TESTS,
    ),
    Mutant(
        "float evaluation that ignores its magnitude bound",
        "fkdv/closedform.py",
        "lim = min(bound, sys.float_info.max)",
        "lim = sys.float_info.max",
        CLOSEDFORM_TESTS,
    ),
    Mutant(
        "parser sum that drops its minus signs",
        "fkdv/poly.py",
        "[(0, sign)]",
        "[(0, 1)]",
    ),
    Mutant(
        "a unary minus applied after a folded factor's power",
        "fkdv/poly.py",
        "fden**n, sign**n",
        "fden**n, sign",
        POLY_TESTS,
    ),
    Mutant(
        "tau' rule with its mu*sigma sign flipped",
        "fkdv/pre.py",
        "TAU: _E * _TAU**2 - _MU * _SIGMA + _R}",
        "TAU: _E * _TAU**2 + _MU * _SIGMA + _R}",
    ),
    Mutant(
        "move 1 that skips its first root",
        "fkdv/solver.py",
        "for root in q.roots:",
        "for root in q.roots[1:]:",
    ),
    Mutant(
        "move 1 that skips its first root, seen by the Gröbner basis at depth 1",
        "fkdv/solver.py",
        "for root in q.roots:",
        "for root in q.roots[1:]:",
        CROSS_TESTS,
    ),
    Mutant(
        "move 2 that breaks a pivot tie against the working order",
        "fkdv/solver.py",
        "q = min(found, key=lambda q: q.pivot[0])",
        "q = min(reversed(found), key=lambda q: q.pivot[0])",
        SOLVER_TESTS,
    ),
    Mutant(
        "move 2 eliminates x as x + p/c",
        "fkdv/solver.py",
        "MPoly.var(x) - q.p * (Fraction(1) / c)",
        "MPoly.var(x) + q.p * (Fraction(1) / c)",
    ),
    Mutant(
        "memo hit that does not charge the skipped subtree to the budget",
        "fkdv/solver.py",
        "self.budget -= used - 1",
        "self.budget -= 0",
        SOLVER_TESTS,
    ),
    Mutant(
        "move 1 that divides each root out only once",
        "fkdv/solver.py",
        "while not (div := _pseudo_divmod(",
        "if not (div := _pseudo_divmod(",
    ),
    Mutant(
        "balance scan that accepts a single top order",
        "fkdv/tanh.py",
        "if orders.count(max(orders)) > 1:",
        "if orders.count(max(orders)) > 0:",
    ),
    Mutant(
        "balance order from the largest derivative order in place of their sum",
        "fkdv/tanh.py",
        "BalanceTerm(len(orders), sum(orders), _label(orders))",
        "BalanceTerm(len(orders), max(orders), _label(orders))",
        TANH_TESTS,
    ),
    Mutant(
        "scale_leaves maps every scale by the first",
        "fkdv/solver.py",
        "for s in scales:",
        "for s in [scales[0]] * len(scales):",
    ),
    Mutant(
        "check_exact_substitution dedupes on the method alone",
        "fkdv/reproduce.py",
        "(rec.method, frozenset(values.items()))",
        "rec.method",
        SOLVER_TESTS,
    ),
    Mutant(
        "two-point wave-speed grid",
        "fkdv/reproduce.py",
        "for m in (1, 2, 3))",
        "for m in (1, 2))",
        ACCEPTANCE_TESTS,
    ),
    Mutant(
        "b_j weight 2 - 2j",
        "fkdv/pre.py",
        "b(j): 3 - 2 * j",
        "b(j): 2 - 2 * j",
    ),
    Mutant(
        "a contradiction that reports its equations",
        "fkdv/solver.py",
        "remaining = () if status == CONTRADICTION else (",
        "remaining = (",
        SOLVER_TESTS,
    ),
    Mutant(
        "a contradiction that keeps only its nonzero bindings",
        "fkdv/solver.py",
        "Assignment._trusted(resolved)",
        "Assignment._trusted(resolved if status != CONTRADICTION"
        " else {s: v for s, v in resolved.items() if v})",
    ),
    Mutant(
        "a pending elimination left as x - e",
        "fkdv/solver.py",
        "q.p if (q.norm or self.normal(q)) is _NORMAL else q.norm.p",
        "q.p",
        SOLVER_TESTS,
    ),
    Mutant(
        "a partial sum that is not rescaled when the common denominator grows",
        "fkdv/poly.py",
        "acc[k] *= grow",
        "acc[k] *= 1",
    ),
    Mutant(
        "normalize without its content division",
        "fkdv/poly.py",
        "g = gcd(*self.terms.values())",
        "g = 1",
    ),
    Mutant(
        "a result not reduced to lowest terms",
        "fkdv/poly.py",
        "g = gcd(den, *terms.values())",
        "g = 1",
        POLY_TESTS,
    ),
    Mutant(
        "a rewrite image with one lead too many, seen by tau elimination",
        "fkdv/poly.py",
        "return MPoly.var(s) ** j * rel**q * lead**k",
        "return MPoly.var(s) ** j * rel**q * lead ** (k + 1)",
        PRE_TESTS,
    ),
    Mutant(
        "a rewrite image with one lead too many, seen by reciprocal clearing",
        "fkdv/poly.py",
        "(top - e // n) * ks",
        "(top - e // n + 1) * ks",
        CLOSEDFORM_TESTS,
    ),
    Mutant(
        "a side relation rewritten with rel ** (e // n + 1) for rel ** (e // n)",
        "fkdv/poly.py",
        "rel, e // n * qs,",
        "rel, (e // n + 1) * qs,",
    ),
    Mutant(
        "rewrite images cached whatever the relation",
        "fkdv/poly.py",
        "@lru_cache(maxsize=256)\ndef _image(",
        "@lambda f: lambda s, j, rel, q, lead, k, seen={}: "
        "seen.setdefault((s, j, q, lead, k), f(s, j, rel, q, lead, k))\ndef _image(",
        CLOSEDFORM_TESTS,
    ),
    Mutant(
        "rewrite images cached whatever the lead",
        "fkdv/poly.py",
        "@lru_cache(maxsize=256)\ndef _image(",
        "@lambda f: lambda s, j, rel, q, lead, k, seen={}: "
        "seen.setdefault((s, j, rel, q, k), f(s, j, rel, q, lead, k))\ndef _image(",
        PRE_TESTS,
    ),
    Mutant(
        "the tanh method presets the paper's signs",
        "fkdv/tanh.py",
        "PAPER_SIGNS: dict[Sym, int] = {}",
        'PAPER_SIGNS: dict[Sym, int] = {Sym("e"): 1, Sym("rho"): -1}',
        CLI_TESTS,
    ),
    Mutant(
        "EquationSpec accepts omega = 0",
        "fkdv/equation.py",
        "if given.omega == 0:",
        "if given.omega == 0 and False:",
        EQUATION_TESTS,
    ),
    Mutant(
        "SolveConfig accepts presets that overlap the unknowns",
        "fkdv/solver.py",
        "overlap = [s for s in unknowns if s in presets]",
        "overlap = []",
        SOLVER_TESTS,
    ),
)


def occurrences(mutant: Mutant) -> int:
    return (SRC / mutant.path).read_text().count(mutant.old)


def run_check(check: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, list[str]]:
    """(exit code, failed reproduce stages or tests) of ``check`` on a copy
    of src/ with ``mutant`` applied, or on a plain copy for None."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = src / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, *check],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
    failed = []
    for line in proc.stdout.splitlines():
        if line.lstrip().startswith("[FAIL]"):
            failed.append(line.split("]", 1)[1].split(":", 1)[0].strip())
        elif line.startswith("FAILED "):
            failed.append(line.split()[1])
    return proc.returncode, failed


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    unmatched = [m for m in MUTANTS if occurrences(m) != 1]
    for m in unmatched:
        print(f"old text of {m.name!r} occurs {occurrences(m)} times in src/{m.path}")
    if unmatched:
        return 1
    ok = True
    for check in dict.fromkeys(m.check for m in MUTANTS):
        code, failed = run_check(check)
        print(f"control {' '.join(check)}: exit {code}"
              + (f", failed: {', '.join(failed)}" if failed else ""))
        ok = ok and code == 0
    for m in MUTANTS:
        code, failed = run_check(m.check, m)
        verdict = "killed" if code else "SURVIVED"
        print(f"{verdict}: {m.name} (exit {code}; failed: {', '.join(failed) or 'none'})")
        ok = ok and code != 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
