"""Command-line front end: balance, derive, solve, verify, reproduce.

Exit codes: 0 success, 1 failed verification verdicts, 2 usage or balance
failure, 3 fixture mismatch, 4 inconclusive sampling, 5 internal invariant
breach, 141 output pipe closed by its reader.  JSON documents embed the run
manifest and are byte-stable for a fixed manifest and seed (the timestamp
field stays null unless supplied).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, closedform, fixtures, tanh
from .equation import EquationSpec, equation_tag, ito
from .errors import BalanceError, FkdvError, InternalInvariantError
from .pre import PAPER_SIGNS
from .reproduce import (
    branch_json,
    derive,
    manifest,
    run_reproduce,
    solve_system,
    system_json,
    system_latex,
    unknowns,
)
from .symbols import E, LAM, MAX_ORDER, RHO

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_FIXTURE = 3
EXIT_INCONCLUSIVE = 4
EXIT_INVARIANT = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `| head`

# rational flags are capped so every number printed stays far below the
# interpreter's 4300-digit limit on int-to-str conversion
MAX_DIGITS = 1000
# verify keeps every accepted sample, and its time grows linearly with them
MAX_SAMPLES = 10_000


def _say(args, text: str) -> None:
    """Human-readable line; moves to stderr when the JSON goes to stdout."""
    stream = sys.stderr if getattr(args, "json", None) == "-" else sys.stdout
    print(text, file=stream)


def _spec_from_args(args) -> EquationSpec:
    if args.preset == "ito":
        return ito()
    vals = {}
    for name in ("alpha", "beta", "gamma", "omega"):
        value = getattr(args, name)
        if value is None:
            raise BalanceError(f"--{name} is required without --preset ito")
        vals[name] = value
    return EquationSpec(**vals)


def _manifest(args, command: str, method: str | None, lambdas: list[str], seed=None):
    spec = _spec_from_args(args) if hasattr(args, "preset") else ito()
    return manifest(command, spec, method, lambdas, seed, getattr(args, "timestamp", None))


def _emit(args, flag: str, content) -> None:
    """Write ``content`` where the ``--json`` or ``--latex`` flag points
    ('-' is stdout, a relative path lands under ``--out-dir``); for --json
    it is a document, written as indented JSON."""
    target = getattr(args, flag, None)
    if not target:
        return
    text = json.dumps(content, indent=2) + "\n" if flag == "json" else content
    if target == "-":
        sys.stdout.write(text)
        return
    path = Path(target)
    if args.out_dir and not path.is_absolute():
        path = Path(args.out_dir) / path
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_balance(args) -> int:
    spec = _spec_from_args(args)
    terms = tanh.balance_terms_for(spec)
    for t in terms:
        _say(args, f"  {t.label:<14} order {t.order_str()}")
    m = tanh.balance_M(terms)
    _say(args, f"balanced ansatz order M = {m}")
    doc = {"schema": 1, "manifest": _manifest(args, "balance", None, []), "M": m,
           "orders": [{"term": t.label, "order": t.order_str()} for t in terms]}
    _emit(args, "json", doc)
    return EXIT_OK


def cmd_derive(args) -> int:
    spec = _spec_from_args(args)
    order, system = derive(args.method, spec, args.order)
    _say(args, f"{args.method} system at order {order}: {len(system)} equations")
    for eq in system:
        _say(args, f"  [{equation_tag(eq.power, eq.tau_degree)}] {eq.poly.ascii()} = 0")
    doc = {
        "schema": 1,
        "manifest": _manifest(args, "derive", args.method, []),
        "order": order,
        "systems": system_json(system),
    }
    _emit(args, "latex", system_latex(system) + "\n")

    diffs = []
    if args.check_fixture:
        fixture = fixtures.load_fixture(args.method)
        if spec != ito() or order != fixture.ansatz_order:
            print("no transcription exists for this equation/order", file=sys.stderr)
            return EXIT_USAGE
        diffs = fixtures.compare_systems(system, fixture)
        doc["fixture"] = {
            "checked": True,
            "ok": not diffs,
            "diffs": [d.describe() for d in diffs],
        }
    _emit(args, "json", doc)
    if diffs:
        print("fixture mismatch:", file=sys.stderr)
        for d in diffs:
            print("  " + d.describe(), file=sys.stderr)
        return EXIT_FIXTURE
    if args.check_fixture:
        _say(args, "fixture check: derived system matches the transcription")
    return EXIT_OK


def cmd_solve(args) -> int:
    lam = args.lam
    _, system = derive(args.method)
    presets = {LAM: lam} if args.method == "tanh" else {LAM: lam, E: args.e, RHO: args.rho}
    branches = solve_system(system, presets)
    counts: dict[str, int] = {}
    for br in branches:
        counts[br.status] = counts.get(br.status, 0) + 1
    _say(
        args,
        f"{args.method} solve at lambda = {lam}: {len(branches)} branches "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
    )
    for br in branches:
        binds = ", ".join(f"{s.name}={v}" for s, v in br.assignment.items())
        extra = ""
        if br.free_symbols:
            extra = " free: " + ",".join(s.name for s in br.free_symbols)
        if br.witness is not None:
            extra += f" witness: {br.witness.ascii()}"
        _say(args, f"  [{br.status}] {{{binds}}}{extra}")
    doc = {
        "schema": 1,
        "manifest": _manifest(
            args, "solve", args.method, [str(lam)], seed=None
        ),
        "unknowns": [s.name for s in unknowns(system, presets)],
        "branches": [branch_json(br) for br in branches],
    }
    if args.method == "pre":
        doc["signs"] = {"e": args.e, "rho": args.rho}
    _emit(args, "json", doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    known = [rec.id for rec in closedform.catalog()]
    ids = known if args.all else args.ids
    if not ids:
        print("give solution ids (u1..u10) or --all", file=sys.stderr)
        return EXIT_USAGE
    bad = [sid for sid in ids if sid not in known]
    if bad:
        print(f"unknown solution ids: {', '.join(bad)} (u1..u10)", file=sys.stderr)
        return EXIT_USAGE
    if args.compare and len(ids) != 2:
        print("--compare needs exactly two solution ids", file=sys.stderr)
        return EXIT_USAGE
    lambdas = []
    for text in args.lam or ["-6"]:
        try:
            lam = float(text)
        except ValueError:
            lam = math.nan
        if not -math.inf < lam < 0:
            print(f"verification requires a finite lambda < 0, got {text!r}", file=sys.stderr)
            return EXIT_USAGE
        try:
            closedform.wave_number(lam)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return EXIT_USAGE
        lambdas.append(lam)
    plan = closedform.SamplePlan(seed=args.seed, count=args.samples)
    reports = []
    worst_exit = EXIT_OK
    for lam in lambdas:
        for sid in ids:
            rep = closedform.sample_report(sid, lam, plan)
            reports.append(rep.as_json())
            mr = "n/a" if rep.max_relative_residual is None else f"{rep.max_relative_residual:.3e}"
            _say(
                args,
                f"  {sid:>4} lambda={lam:<8g} verdict={rep.verdict:<12} "
                f"max-rel-residual={mr} rejected={rep.rejected_samples}",
            )
            if rep.verdict == "inconclusive":
                worst_exit = EXIT_INCONCLUSIVE
            elif rep.verdict == "fail" and worst_exit == EXIT_OK:
                worst_exit = EXIT_FAILED
    doc = {
        "schema": 1,
        "manifest": _manifest(args, "verify", None, [str(v) for v in lambdas], args.seed),
        "reports": reports,
    }
    if args.compare:
        comparisons = []
        for lam in lambdas:
            d, n = closedform.pointwise_compare(ids[0], ids[1], lam, plan)
            comparisons.append(
                {"pair": ids, "lambda": lam, "max_rel_diff": d, "samples": n}
            )
            note = "pointwise equal" if d <= 1e-10 else "pointwise DIFFERENT"
            _say(args, f"  {ids[0]} vs {ids[1]} at lambda={lam:g}: {note} (max diff {d:.3e})")
        doc["comparisons"] = comparisons
    _emit(args, "json", doc)
    return worst_exit


def cmd_reproduce(args) -> int:
    result = run_reproduce(seed=args.seed, timestamp=args.timestamp)
    for s in result.doc["stages"]:
        mark = "ok " if s["ok"] else "FAIL"
        _say(args, f"  [{mark}] {s['stage']}: {s['detail']}")
    _say(args, "reproduction " + ("succeeded" if result.exit_code == 0 else "FAILED"))
    _emit(args, "json", result.doc)
    _emit(args, "latex", result.latex)
    return result.exit_code


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer of at most {MAX_SAMPLES}, got {text!r}"
        )
    return value


def _rational(text: str) -> Fraction:
    """An integer, n/d or decimal whose numerator and denominator have at
    most MAX_DIGITS digits.  The exponent is checked before parsing, so a
    text like 1e99999999 is not expanded."""
    exp = text.lower().partition("e")[2]
    try:
        if abs(int(exp or 0)) > MAX_DIGITS:
            raise ValueError
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected a finite rational such as -6, 3/2 or -6e40 with at most "
            f"{MAX_DIGITS} digits, got {text!r}"
        )
    return value


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["ito"], help="named coefficient set")
    p.add_argument("--alpha", type=_rational, help="coefficient of u^2*u_x (rational)")
    p.add_argument("--beta", type=_rational, help="coefficient of u_x*u_xx (rational)")
    p.add_argument("--gamma", type=_rational, help="coefficient of u*u_xxx (rational)")
    p.add_argument("--omega", type=_rational,
                   help="coefficient of u_xxxxx (rational, nonzero)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write a JSON report ('-' = stdout)")
    p.add_argument("--out-dir", metavar="DIR", help="directory for relative output paths")
    p.add_argument("--timestamp", help="manifest timestamp (omitted = null, keeps output reproducible)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fkdv",
        description="Exact tanh / projective-Riccati traveling-wave engine "
        "for the fifth-order KdV family.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("balance", help="resolve the ansatz order M")
    _add_spec_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("derive", help="expand the residual and extract the system")
    p.add_argument("--method", choices=["tanh", "pre"], required=True)
    _add_spec_flags(p)
    p.add_argument("--order", type=int,
                   help=f"ansatz order, at most {MAX_ORDER} "
                   "(default: balanced M for tanh, 1 for pre)")
    p.add_argument("--check-fixture", action="store_true",
                   help="compare against the shipped transcription")
    p.add_argument("--latex", metavar="PATH", help="write LaTeX ('-' = stdout)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("solve", help="branch-solve a derived system at rational lambda")
    p.add_argument("--method", choices=["tanh", "pre"], required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True,
                   help="rational wave speed")
    p.add_argument("--e", type=int, choices=[-1, 1], default=PAPER_SIGNS[E])
    p.add_argument("--rho", type=int, choices=[-1, 1], default=PAPER_SIGNS[RHO])
    _add_output_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="sample PDE residuals of catalog solutions")
    p.add_argument("ids", nargs="*", help="solution ids u1..u10")
    p.add_argument("--all", action="store_true")
    p.add_argument("--lambda", dest="lam", action="append", help="negative wave speed (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_sample_count, default=20,
                   help=f"accepted samples per id and lambda, at most {MAX_SAMPLES} "
                   "(default 20)")
    p.add_argument("--compare", action="store_true",
                   help="also compare two ids pointwise")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="run the full end-to-end reproduction")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--latex", metavar="PATH", help="write the LaTeX appendix")
    _add_output_flags(p)
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BalanceError as exc:
        print(f"balance error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (FkdvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
