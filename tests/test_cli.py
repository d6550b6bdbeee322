import ast
import errno
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

from fkdv import cli, fixtures, pre, reproduce, tanh
from fkdv.poly import MPoly
from fkdv.reproduce import GRID, run_reproduce
from fkdv.symbols import MAX_ORDER


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- balance


def test_balance_ito_preset(capsys):
    code, out, _ = run(["balance", "--preset", "ito"], capsys)
    assert code == 0
    assert "M = 2" in out


def test_balance_explicit_coefficients(capsys):
    code, out, _ = run(
        ["balance", "--alpha", "2", "--beta", "0", "--gamma", "0", "--omega", "1"],
        capsys,
    )
    assert code == 0 and "M = 2" in out


def test_balance_omega_zero_is_usage_error(capsys):
    code, _, err = run(
        ["balance", "--alpha", "2", "--beta", "6", "--gamma", "3", "--omega", "0"],
        capsys,
    )
    assert code == cli.EXIT_USAGE
    assert "omega" in err


def test_balance_non_integer_order(capsys):
    # alpha=0 drops 3M+1; beta/gamma balance 2M+3 = M+5 still gives M = 2,
    # so force the failure with a first-order-only family
    code, _, err = run(
        ["balance", "--alpha", "0", "--beta", "0", "--gamma", "0", "--omega", "1"],
        capsys,
    )
    assert code == cli.EXIT_USAGE
    assert "no positive integer" in err


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["derive", "--method", "tanh"], "alpha"),
        (["balance"], "alpha"),
        (["balance", "--alpha", "2", "--beta", "6"], "gamma"),
    ],
)
def test_missing_coefficient_is_a_usage_error(argv, flag, capsys):
    # a flag left out is a usage error, not a failure of balancing
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err == f"error: --{flag} is required without --preset ito\n"


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once; a usage error leaves it fit for the next call
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--method", "tanh"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--lambda" in capsys.readouterr().err
    code, out, _ = run(["balance", "--preset", "ito"], capsys)
    assert code == cli.EXIT_OK and "M = 2" in out
    assert cli.build_parser() is parser


def test_balance_failure_is_reported_as_a_balance_error(capsys):
    code, out, err = run(
        ["balance", "--alpha", "0", "--beta", "0", "--gamma", "0", "--omega", "1"],
        capsys,
    )
    assert code == cli.EXIT_USAGE
    assert out == "  v^(1)          order M+1\n  v^(5)          order M+5\n"
    assert err == "balance error: balancing M+5 against M+1 gives no positive integer order\n"


# The exact `balance --json -` documents, labels and orders included: the
# terms with a zero coefficient are left out, the others keep the PDE's order
_BALANCE_PINS = {
    "ito": (["--preset", "ito"], ("2", "6", "3", "1"),
            [("v^(1)", "M+1"), ("v^(5)", "M+5"), ("v^2*v^(1)", "3M+1"),
             ("v^(1)*v^(2)", "2M+3"), ("v^1*v^(3)", "2M+3")]),
    "alpha-only": (["--alpha", "2", "--beta", "0", "--gamma", "0", "--omega", "1"],
                   ("2", "0", "0", "1"),
                   [("v^(1)", "M+1"), ("v^(5)", "M+5"), ("v^2*v^(1)", "3M+1")]),
    "beta-only": (["--alpha", "0", "--beta", "1", "--gamma", "0", "--omega", "1"],
                  ("0", "1", "0", "1"),
                  [("v^(1)", "M+1"), ("v^(5)", "M+5"), ("v^(1)*v^(2)", "2M+3")]),
    "no-beta": (["--alpha", "1/3", "--beta", "0", "--gamma", "5/2", "--omega", "1"],
                ("1/3", "0", "5/2", "1"),
                [("v^(1)", "M+1"), ("v^(5)", "M+5"), ("v^2*v^(1)", "3M+1"),
                 ("v^1*v^(3)", "2M+3")]),
}


@pytest.mark.parametrize("member", list(_BALANCE_PINS))
def test_balance_json_is_pinned(member, capsys):
    flags, (alpha, beta, gamma, omega), orders = _BALANCE_PINS[member]
    code, out, err = run(["balance", *flags, "--json", "-"], capsys)
    doc = {
        "schema": 1,
        "manifest": {
            "command": "balance",
            "equation": {"alpha": alpha, "beta": beta, "gamma": gamma, "omega": omega},
            "method": None,
            "lambda_values": [],
            "seed": None,
            "tool_version": "0.1.0",
            "timestamp": None,
        },
        "M": 2,
        "orders": [{"term": term, "order": order} for term, order in orders],
    }
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"
    assert err == "".join(f"  {term:<14} order {order}\n" for term, order in orders) + (
        "balanced ansatz order M = 2\n"
    )


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["balance", "--preset", "ito", "--alpha", "5"], "alpha"),
        (["derive", "--method", "tanh", "--preset", "ito", "--gamma", "3"], "gamma"),
        (["derive", "--method", "pre", "--preset", "ito", "--beta", "1", "--omega", "2"], "beta"),
    ],
)
def test_preset_with_a_coefficient_flag_is_a_usage_error(argv, flag, capsys):
    # the preset fixes every coefficient, so a flag beside it would be dropped
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err == f"error: --{flag} cannot be combined with --preset ito\n"


# ---------------------------------------------------------------- derive


def test_derive_tanh_checks_fixture(capsys):
    code, out, _ = run(["derive", "--method", "tanh", "--preset", "ito", "--check-fixture"], capsys)
    assert code == 0
    assert "8 equations" in out
    assert "matches the transcription" in out


def test_derive_pre_checks_fixture(capsys):
    code, out, _ = run(
        ["derive", "--method", "pre", "--preset", "ito", "--order", "1", "--check-fixture"],
        capsys,
    )
    assert code == 0
    assert "13 equations" in out


def test_derive_pre_order_two_generates(capsys, tmp_path):
    out_json = tmp_path / "m2.json"
    code, out, _ = run(
        ["derive", "--method", "pre", "--preset", "ito", "--order", "2", "--json", str(out_json)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["order"] == 2
    assert len(doc["systems"]) > 13


def test_derive_fixture_mismatch_exits_3(capsys, monkeypatch):
    real = fixtures.load_fixture("tanh")
    broken = fixtures.Fixture(ansatz_order=2, equations=real.equations[:-1])
    monkeypatch.setattr(cli.fixtures, "load_fixture", lambda method: broken)
    code, _, err = run(
        ["derive", "--method", "tanh", "--preset", "ito", "--check-fixture"], capsys
    )
    assert code == cli.EXIT_FIXTURE
    assert "mismatch" in err


def test_derive_fixture_out_of_scope(capsys):
    # the transcriptions are of Ito at tanh order 2 and projective depth 1
    for argv in (
        ["--method", "pre", "--preset", "ito", "--order", "2"],
        ["--method", "tanh", "--preset", "ito", "--order", "3"],
        ["--method", "tanh", "--alpha", "45", "--beta", "15", "--gamma", "15", "--omega", "1"],
        ["--method", "pre", "--alpha", "30", "--beta", "20", "--gamma", "10", "--omega", "1"],
    ):
        code, _, err = run(["derive", *argv, "--check-fixture"], capsys)
        assert code == cli.EXIT_USAGE
        assert "no transcription" in err


@pytest.mark.parametrize("spec", [
    ["--preset", "ito", "--order", "3"],
    ["--alpha", "45", "--beta", "15", "--gamma", "15", "--omega", "1"],
])
def test_derive_fixture_out_of_scope_fails_before_any_output(spec, capsys, tmp_path):
    # the check comes before the derivation: no system is printed and no
    # file is written
    tex, doc = tmp_path / "x.tex", tmp_path / "x.json"
    code, out, err = run(
        ["derive", "--method", "tanh", *spec, "--check-fixture",
         "--latex", str(tex), "--json", str(doc)],
        capsys,
    )
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: no transcription exists for this equation/order\n"
    assert not tex.exists() and not doc.exists()


def test_derive_order_zero_is_usage_error(capsys):
    code, _, err = run(["derive", "--method", "tanh", "--preset", "ito", "--order", "0"], capsys)
    assert code == cli.EXIT_USAGE
    assert "order must be >= 1" in err


@pytest.mark.parametrize(("method", "order"), [("tanh", 17), ("tanh", 5000), ("pre", 17)])
def test_derive_order_above_cap_is_usage_error(method, order, capsys):
    # the ansatz symbols a_j, b_j stop at MAX_ORDER, so a larger order ends
    # at once instead of expanding without bound
    start = time.perf_counter()
    code, out, err = run(
        ["derive", "--method", method, "--preset", "ito", "--order", str(order)], capsys
    )
    assert time.perf_counter() - start < 2
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: order {order} is above the maximum order {MAX_ORDER}\n"


@pytest.mark.parametrize(("method", "order"), [("Tanh", None), ("bogus", 2)])
def test_derive_unknown_method_is_value_error(method, order):
    # an unknown name is not taken for the projective method
    with pytest.raises(ValueError, match=f"unknown method {method!r}; the methods are tanh, pre"):
        reproduce.derive(method, order=order)


def test_derive_calls_its_method_s_stages_through_their_modules(monkeypatch):
    # perfbench/spans.py counts tanh.* and pre.* by replacing these module
    # attributes, so derive must reach each of them through its module
    stages = {
        "tanh": (tanh, ("build_ansatz", "ode_residual", "extract_system")),
        "pre": (pre, ("build_pre_ansatz", "pre_ode_residual", "extract_pre_system")),
    }
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module, names in stages.values():
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for method, (_, names) in stages.items():
        calls.clear()
        reproduce.derive(method)
        assert calls == Counter(names), method


def test_derive_latex_output(capsys, tmp_path):
    tex = tmp_path / "sys.tex"
    code, _, _ = run(
        ["derive", "--method", "tanh", "--preset", "ito", "--latex", str(tex)], capsys
    )
    assert code == 0
    assert r"\begin{align*}" in tex.read_text()


# ---------------------------------------------------------------- solve


def test_solve_tanh_contains_paper_branch(capsys, tmp_path):
    out_json = tmp_path / "branches.json"
    code, out, _ = run(
        ["solve", "--method", "tanh", "--lambda", "-6", "--json", str(out_json)], capsys
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["unknowns"] == ["a0", "a1", "a2", "k"]
    bindings = [br["bindings"] for br in doc["branches"] if br["status"] == "solved"]
    assert {"a0": "-5", "a1": "0", "a2": "-30", "k": "1/4"} in bindings
    contradictions = [br for br in doc["branches"] if br["status"] == "contradiction"]
    # a contradiction reports its bindings only
    assert contradictions and all(br.keys() == {"bindings", "status"} for br in contradictions)


def test_solve_pre_contains_paper_branch(capsys, tmp_path):
    out_json = tmp_path / "branches.json"
    code, _, _ = run(
        [
            "solve", "--method", "pre", "--lambda", "-6",
            "--e", "1", "--rho", "-1", "--json", str(out_json),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["unknowns"] == ["a0", "a1", "b1", "mu", "r"]
    bindings = [br["bindings"] for br in doc["branches"] if br["status"] == "solved"]
    assert {"a0": "5/2", "a1": "15", "b1": "0", "mu": "-1", "r": "1"} in bindings


@pytest.mark.parametrize("flag", [["--e", "-1"], ["--rho", "1"]])
def test_solve_tanh_rejects_the_projective_signs(flag, capsys):
    code, out, err = run(["solve", "--method", "tanh", "--lambda", "-6", *flag], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: --e and --rho apply only to --method pre\n"


def test_solve_pre_signs_default_to_the_paper_s(capsys):
    code, out, _ = run(["solve", "--method", "pre", "--lambda", "-6", "--json", "-"], capsys)
    assert code == 0
    assert json.loads(out)["signs"] == {"e": 1, "rho": -1}
    code, out, _ = run(
        ["solve", "--method", "pre", "--lambda", "-6", "--rho", "1", "--json", "-"], capsys
    )
    assert code == 0
    assert json.loads(out)["signs"] == {"e": 1, "rho": 1}


def test_solve_json_is_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["solve", "--method", "tanh", "--lambda", "-6", "--json", str(p1)], capsys)
    run(["solve", "--method", "tanh", "--lambda", "-6", "--json", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_tanh_at_forty_digit_grid_lambda(capsys, tmp_path):
    # lambda = -6*m^4 with m = 10^10 keeps the paper branches rational
    out_json = tmp_path / "branches.json"
    start = time.perf_counter()
    code, _, _ = run(
        ["solve", "--method", "tanh", "--lambda=-6e40", "--json", str(out_json)], capsys
    )
    assert time.perf_counter() - start < 5
    assert code == 0
    doc = json.loads(out_json.read_text())
    bindings = [br["bindings"] for br in doc["branches"] if br["status"] == "solved"]
    for sign in (1, -1):
        branch = {"a0": str(-sign * 5 * 10**20), "a1": "0", "a2": "-30", "k": str(sign * 25 * 10**18)}
        assert branch in bindings


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--method", "tanh", "--lambda", "1/0"],
        ["balance", "--alpha", "1/0", "--beta", "6", "--gamma", "3", "--omega", "1"],
        ["solve", "--method", "tanh", "--lambda", "abc"],
        ["solve", "--method", "tanh", "--lambda", "nan"],
        ["solve", "--method", "tanh", "--lambda=-inf"],
        ["solve", "--method", "tanh", "--lambda=-1e5000"],
        ["solve", "--method", "pre", "--lambda=-1e99999999"],
        ["derive", "--method", "tanh", "--alpha", "2", "--beta", "6", "--gamma", "3", "--omega", "x"],
    ],
    ids=["lambda-1/0", "alpha-1/0", "lambda-abc", "lambda-nan", "lambda-inf",
         "lambda-1e5000", "lambda-1e99999999", "omega-x"],
)
def test_bad_rational_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert "expected a finite rational" in err
    assert "Traceback" not in err and "Fraction" not in err and "limit" not in err
    assert "branches" not in out


# ---------------------------------------------------------------- verify


def test_verify_single_solution(capsys):
    code, out, _ = run(["verify", "u3", "--lambda", "-2.5"], capsys)
    assert code == 0
    assert "pass" in out


def test_verify_all_writes_reports(capsys, tmp_path):
    out_json = tmp_path / "reports.json"
    code, _, _ = run(
        ["verify", "--all", "--lambda", "-6", "--seed", "7", "--json", str(out_json)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert len(doc["reports"]) == 10
    assert all(rep["verdict"] == "pass" for rep in doc["reports"])


def test_verify_compare_pointwise_equal(capsys):
    code, out, _ = run(["verify", "u9", "u3", "--lambda", "-6", "--compare"], capsys)
    assert code == 0
    assert "pointwise equal" in out


def test_verify_compare_needs_two_ids(capsys):
    code, _, _ = run(["verify", "u9", "--lambda", "-6", "--compare"], capsys)
    assert code == cli.EXIT_USAGE


def test_verify_compare_checks_its_ids_before_sampling(capsys):
    code, out, err = run(["verify", "--all", "--compare"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: --compare needs exactly two solution ids\n"


@pytest.mark.parametrize("args", [["u1", "u1"], ["u1", "u1", "--compare"], ["u3", "u1", "u3"]])
def test_verify_repeated_id_is_a_usage_error(capsys, args):
    # a repeated id would be sampled and reported twice, and --compare
    # would compare a record with itself; rejected before any sampling
    code, out, err = run(["verify", *args], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: solution id {args[0]} is given more than once\n"


@pytest.mark.parametrize(
    ("lams", "shown"),
    [
        (["--lambda", "-6", "--lambda", "-6"], "-6"),
        (["--lambda", "-6", "--lambda=-6.0"], "-6"),
        (["--lambda=-2.5", "--lambda=-6", "--lambda=-25e-1"], "-2.5"),
    ],
)
def test_verify_repeated_wave_speed_is_a_usage_error(capsys, lams, shown, monkeypatch):
    # a wave speed repeated after parsing would be sampled and reported
    # twice; rejected before any sampling
    monkeypatch.setattr(cli.closedform, "sample_report", None)
    code, out, err = run(["verify", "u1", *lams], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: wave speed {shown} is given more than once\n"


@pytest.mark.parametrize("ids", [["u1", "u1"], ["u1"], ["u3", "u9", "--compare"]])
def test_verify_ids_next_to_all_are_a_usage_error(capsys, ids, monkeypatch):
    # --all names every id, so any id given with it is rejected before any
    # sampling, a repeated one included
    monkeypatch.setattr(cli.closedform, "sample_report", None)
    code, out, err = run(["verify", "--all", *ids], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: --all cannot be combined with solution ids\n"


def test_verify_nonnegative_lambda_rejected(capsys):
    code, _, _ = run(["verify", "u3", "--lambda", "2"], capsys)
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("lam", ["nan", "-inf", "abc", "-1e400"])
def test_verify_non_finite_or_non_numeric_lambda_rejected(capsys, lam):
    code, out, err = run(["verify", "u3", f"--lambda={lam}"], capsys)
    assert code == cli.EXIT_USAGE
    assert "finite lambda < 0" in err and "convert" not in err
    assert "verdict" not in out


def test_verify_inconclusive_exits_4(capsys):
    # w = (-lam/6)^(1/4) = 1e7 is an input, not a guarded symbol value, so
    # lam = -6e28 still verifies; at -1e200 the guard bound w^7 overflows a
    # float, and every sample is rejected instead of raising
    code, out, _ = run(["verify", "u2", "--lambda=-6e28"], capsys)
    assert code == cli.EXIT_OK
    assert "pass" in out
    code, out, err = run(["verify", "--all", "--lambda=-1e200"], capsys)
    assert code == cli.EXIT_INCONCLUSIVE
    assert out.count("verdict=inconclusive") == 10 and err == ""


def test_verify_compare_different_at_large_wave_speed(capsys):
    # the template guard scales with w like the PDE-term guard, so the
    # comparison keeps its samples and tells u7 and u2 apart
    code, out, _ = run(["verify", "u7", "u2", "--compare", "--lambda=-6e12"], capsys)
    assert code == 0
    assert "pointwise DIFFERENT" in out


def test_verify_compare_different_at_small_wave_speed(capsys):
    # the templates go like w^2, so a difference relative to 1 would read
    # about 1e-17 here; relative to the larger value it stays near 1
    code, out, _ = run(["verify", "u7", "u2", "--compare", "--lambda=-6e-40"], capsys)
    assert code == 0
    assert "pointwise DIFFERENT" in out


@pytest.mark.parametrize("lam", ["-600", "-6e4", "-6e6", "-6e12", "-6e14", "-6e16", "-7e24"])
def test_verify_all_passes_at_large_wave_speeds(capsys, tmp_path, lam):
    # the PDE terms grow like powers of w = (-lam/6)^(1/4); the sampling
    # guard grows with them, so samples of correct solutions are kept.  The
    # terms are evaluated at the drawn xi, whose digits survive any lam
    out_json = tmp_path / "reports.json"
    code, _, _ = run(["verify", "--all", f"--lambda={lam}", "--json", str(out_json)], capsys)
    assert code == 0
    reports = json.loads(out_json.read_text())["reports"]
    assert [rep["verdict"] for rep in reports] == ["pass"] * 10


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_nonpositive_samples_is_usage_error(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "u3", "--samples", samples])
    _, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert "--samples" in err and "positive integer" in err
    assert "max()" not in err


@pytest.mark.parametrize("args", [
    ["u1", "--lambda=-5e-324"],
    ["u1", "--lambda=-1e-323"],
    ["u1", "--lambda=-1.5e-323"],
    ["u1", "u7", "--compare", "--lambda=-5e-324"],
])
def test_verify_lambda_whose_wave_number_underflows_is_usage_error(capsys, args):
    # -lam/6 underflows to 0, so w = (-lam/6)^(1/4) is 0: rejected before
    # any sampling, in one line
    code, out, err = run(["verify", *args], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "underflows to 0" in err


def test_verify_samples_above_the_cap_is_usage_error(capsys):
    # every accepted sample is kept and the time is linear in the count, so
    # the count is capped like the digits and the order
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "u3", "--samples", str(cli.MAX_SAMPLES + 1)])
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert out == ""
    assert f"positive integer of at most {cli.MAX_SAMPLES}" in err
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    out, _ = capsys.readouterr()
    assert f"at most {cli.MAX_SAMPLES}" in " ".join(out.split())


def test_verify_unknown_id(capsys):
    code, _, err = run(["verify", "u11", "--lambda", "-6"], capsys)
    assert code == cli.EXIT_USAGE


# ---------------------------------------------------------------- reproduce


def test_reproduce_seed_7_twice_is_byte_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, out, _ = run(["reproduce", "--seed", "7", "--json", str(p1)], capsys)
    code2, _, _ = run(["reproduce", "--seed", "7", "--json", str(p2)], capsys)
    assert code1 == 0 and code2 == 0
    assert "reproduction succeeded" in out
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["ok"] is True
    assert doc["manifest"]["seed"] == 7
    assert doc["manifest"]["timestamp"] is None
    assert {s["stage"] for s in doc["stages"]} >= {"balance", "derive-tanh", "derive-pre"}


def test_reproduce_stages_are_exact_and_the_seed_is_only_recorded():
    doc7, doc8 = run_reproduce(seed=7).doc, run_reproduce(seed=8).doc
    assert [s["stage"] for s in doc7["stages"]] == [
        "balance", "derive-tanh", "derive-pre",
        *(f"solve@{lam}" for lam in GRID),
        *(f"substitute@{lam}" for lam in GRID),
        "phi-catalog", "sigma-tau-catalog", "pde-exact", "identities",
    ]
    assert doc7.keys() == {"schema", "manifest", "stages", "systems", "solves", "ok"}
    assert doc7["manifest"]["lambda_values"] == ["-6", "-96", "-486"]
    assert doc8["manifest"].pop("seed") == 8 and doc7["manifest"].pop("seed") == 7
    assert doc8 == doc7


def test_reproduce_latex_appendix(capsys, tmp_path):
    tex = tmp_path / "appendix.tex"
    code, _, _ = run(["reproduce", "--latex", str(tex)], capsys)
    assert code == 0
    body = tex.read_text()
    assert "Solution catalog" in body and "u10" in body


def test_reproduce_renders_latex_only_for_latex_flag(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("fkdv.reproduce.render_latex", lambda *systems: calls.append(systems))
    code, _, _ = run(["reproduce", "--json", str(tmp_path / "r.json")], capsys)
    assert code == 0 and calls == []


def test_derive_latex_block_appears_in_reproduce_appendix(capsys, tmp_path):
    appendix = tmp_path / "appendix.tex"
    run(["reproduce", "--latex", str(appendix)], capsys)
    for method in ("tanh", "pre"):
        block = tmp_path / f"{method}.tex"
        code, _, _ = run(
            ["derive", "--method", method, "--preset", "ito", "--latex", str(block)], capsys
        )
        assert code == 0
        assert block.read_text() in appendix.read_text()


# sha256 of the documents that `reproduce --seed 7` and
# `derive --preset ito --check-fixture` write.  The bytes are the output
# contract: an intended output change (for example the disjoint case splits
# of ROADMAP item 5) updates the pin here and records the new digest in
# CHANGES.md.
REPRODUCE_SEED_7_JSON = "7876117fba36345fe15f4e2a3e8dc2045a6c082b890052feee900c62585ad30e"
DERIVE_FIXTURE_DIGESTS = {
    ("tanh", "json"): "1100971ad2c172a95a8b0b9eb7915af51b39cc66623db5cbd086efde532bc2c8",
    ("tanh", "latex"): "098f7bf4c1447173497a1d94fe4df59c1cc557d607742b46c250653bb5f3937a",
    ("pre", "json"): "ee873b44b245b25170936117c4ab241f2e10dd52ae9dc9f3f7aca082bf106798",
    ("pre", "latex"): "5716cfc646dbd9689a29a69c6c840e2c8b80884ba39591b8083800628a10574e",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_reproduce_seed_7_json_matches_pinned_digest(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run(["reproduce", "--seed", "7", "--json", str(out)], capsys)
    assert code == 0
    assert _sha256(out) == REPRODUCE_SEED_7_JSON


@pytest.mark.parametrize(("method", "fmt"), list(DERIVE_FIXTURE_DIGESTS))
def test_derive_fixture_output_matches_pinned_digest(method, fmt, capsys, tmp_path):
    out = tmp_path / f"{method}.{fmt}"
    code, _, _ = run(
        ["derive", "--method", method, "--preset", "ito", "--check-fixture", f"--{fmt}", str(out)],
        capsys,
    )
    assert code == 0
    assert _sha256(out) == DERIVE_FIXTURE_DIGESTS[method, fmt]


# sha256 of `derive --json` for every system perfbench's derive-sweep builds
# (tanh M = 2..5 and projective depth 1..4 for four members of the family)
# and for Ito at projective depth 8, where the products are largest: a change
# to the polynomial kernel or to derivation must keep these bytes too.
FAMILY_FLAGS = {
    "ito": ["--preset", "ito"],
    "sk": ["--alpha", "45", "--beta", "15", "--gamma", "15", "--omega", "1"],
    "lax": ["--alpha", "30", "--beta", "20", "--gamma", "10", "--omega", "1"],
    "kk": ["--alpha", "20", "--beta", "25", "--gamma", "10", "--omega", "1"],
}
DERIVE_DEEP_DIGESTS = {
    ("ito", "tanh", 2): "fc2ec244f5f3d80b93180841b8f17966a8727221a2d471c3d2868bcf097b6652",
    ("ito", "tanh", 3): "12f480bc2d5606610bc7e1025c6d6d15fb36214953f8c2aac285f7b351805fc4",
    ("ito", "tanh", 4): "9c052475a7c4998c94ccfba6cf60b4e311544b4fb7c22779121c2028b93e568a",
    ("ito", "tanh", 5): "6ff251785c2f40e8ab01371939e38f5ba819d115159a7c470e7ac247ebdaf29b",
    ("sk", "tanh", 2): "0af763b72b7fd34bb662b497404a83a20c2a3396534fc82d4904a415e2d1f1bc",
    ("sk", "tanh", 3): "64221c38c68f798b0bd3dcc82774903514f90bf9c19ee10871d28ffeb655a86c",
    ("sk", "tanh", 4): "b9179b27e247726e8295b868d18295e2494396214e4f58c737cf8d9804f92d76",
    ("sk", "tanh", 5): "9e207c64bb59cb5955aa58e214e13e2cdbf1c8b70c26fc90a989f160f1efaa36",
    ("lax", "tanh", 2): "9d82c117b2815d70acf2d3c0f0cb08910a0c4db1334698c53d71204a5e4776a6",
    ("lax", "tanh", 3): "a7bd4fcca3b9ca1e55557879e2a3b5aa732f47264133509e0e0cbe42ebbd0fe9",
    ("lax", "tanh", 4): "31432085da43f0c7de30c3e9066aa2491e06ee2b6d048937c18ef9a458504f4b",
    ("lax", "tanh", 5): "99fbd32f58095095ec36cc72d4b9676e596aaf3875f9ed3c4f71d8561c346e07",
    ("kk", "tanh", 2): "27b2af018c048711f359a703e7d5fca1bffa31cb256f3872a6f46034f528eb95",
    ("kk", "tanh", 3): "e92f364d310ca279bcce4c09bb960827f1d62fd20d71077d9ce86ae75ca1e4f3",
    ("kk", "tanh", 4): "03e37c4af31ec76ec843c48baaf3c74022a7d55d6d67c499376256950d35ef6d",
    ("kk", "tanh", 5): "7b3f1963d83f2312b3896b392d44766bde1c04ebf92817e3926a4628c2dcee3c",
    ("ito", "pre", 1): "fb0bdb4ce5ee3b9841144ced5ac67fa5c1ecd01344a32ed070c26d117826af48",
    ("ito", "pre", 2): "52037a9cdf8198833a57af253d18b9b90b022b8dd7f62841161e08fa3d2a5701",
    ("ito", "pre", 3): "5ddf572b532a183db2636dec70c1dfbf71f12e03b241c045a55c9b3d170002bd",
    ("ito", "pre", 4): "45bb4968ec4f5e1d996f24daac753171b552bfb03f88c3653682a582c24ad313",
    ("sk", "pre", 1): "3e4e209f9139739c97f64f3c0ba7dcf6f28dc26cf927a235f2c957c4cdcfe724",
    ("sk", "pre", 2): "98bc4137cd4bdee6a847e4ed82fbd58d3b1cbb5b760e9982e77e0c09aeaf506a",
    ("sk", "pre", 3): "32db8c54d19fcd6b39e9d2fe8c497750e666ff5b32253422e5e67199fe2c14f5",
    ("sk", "pre", 4): "2392f089b1caf77e95f4ea8f46815544f0a9a5cf6cea271e346dd9946bb5d2d8",
    ("lax", "pre", 1): "fc0e90efd9a9ce530d1661c3dbc951a14a5d9ac66345184c5e58bfd2bb2d03cc",
    ("lax", "pre", 2): "651901677fd32ba5a2a6bc4df5e4fe7af48d7d58e8c69efdc1851c8ff4a56c20",
    ("lax", "pre", 3): "258b9fd9cc1c6bd73431eab88dc7a2c5e7a3e66fdfdb9d3b6aeaa6f7ce014ee8",
    ("lax", "pre", 4): "130e535f91df53833dca8fb77eb024e90b158d379085c3441bcfa370e52ab9a3",
    ("kk", "pre", 1): "17cf85dbc828ef3f8846b3c0ab186be4af6e61d9c920ad4cfc1585ce433a84df",
    ("kk", "pre", 2): "10f625954c173e18dd4eaeea4baabd5f27ef166e906337503db7f87ff2f4e71e",
    ("kk", "pre", 3): "6f8750166c36f6849cfc626c647c9b2927efe0c62a98b8c6140114cf073def79",
    ("kk", "pre", 4): "f29fe5395a5c974bc28ae32b2ec7d9b1eb76996c1e37524738001e57dd091c28",
    ("ito", "pre", 8): "2534fd611d9516be0354d1ca72f9e85cf42dd0846cf721b808661f7059f3d65e",
}


@pytest.mark.parametrize(("family", "method", "order"), list(DERIVE_DEEP_DIGESTS))
def test_derive_beyond_paper_order_matches_pinned_digest(family, method, order, capsys, tmp_path):
    flags = FAMILY_FLAGS[family]
    out = tmp_path / "d.json"
    code, _, _ = run(
        ["derive", "--method", method, *flags, "--order", str(order), "--json", str(out)],
        capsys,
    )
    assert code == 0
    assert _sha256(out) == DERIVE_DEEP_DIGESTS[family, method, order]


def test_out_dir_redirects_relative_paths(capsys, tmp_path):
    code, _, _ = run(
        ["solve", "--method", "tanh", "--lambda", "-6",
         "--json", "runs/out.json", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "runs" / "out.json").exists()


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize(
    ("argv", "target", "err_no"),
    [
        (["balance", "--preset", "ito", "--json", "{tmp}/missing/x.json"],
         "{tmp}/missing/x.json", errno.ENOENT),
        (["reproduce", "--latex", "{tmp}/missing/a.tex"], "{tmp}/missing/a.tex", errno.ENOENT),
        (["verify", "--all", "--json", "{tmp}"], "{tmp}", errno.EISDIR),
        (["solve", "--method", "tanh", "--lambda", "-6", "--json", "out.json",
          "--out-dir", "{tmp}/file/sub"], "{tmp}/file/sub", errno.ENOTDIR),
        (["balance", "--preset", "ito", "--json", "out.json", "--out-dir", "{tmp}/file"],
         "{tmp}/file", errno.EEXIST),
        # the open succeeds and the write fails, which names no file
        pytest.param(["reproduce", "--json", "/dev/full"], "/dev/full", errno.ENOSPC,
                     marks=_NEEDS_DEV_FULL),
        pytest.param(["verify", "u1", "--json", "/dev/full"], "/dev/full", errno.ENOSPC,
                     marks=_NEEDS_DEV_FULL),
        # an empty path names no file, rather than being an absent flag
        (["reproduce", "--json=", "--latex="], "''", errno.ENOENT),
        (["reproduce", "--latex="], "''", errno.ENOENT),
        (["balance", "--preset", "ito", "--json="], "''", errno.ENOENT),
        (["verify", "u1", "--json="], "''", errno.ENOENT),
        (["derive", "--method", "tanh", "--preset", "ito", "--latex="], "''", errno.ENOENT),
    ],
    ids=["json", "latex", "json-directory", "out-dir-under-a-file", "out-dir-is-a-file",
         "reproduce-full-device", "verify-full-device", "reproduce-empty-paths",
         "reproduce-empty-latex", "balance-empty-json", "verify-empty-json",
         "derive-empty-latex"],
)
def test_unwritable_output_path_exits_2_with_one_line(argv, target, err_no, capsys, tmp_path):
    (tmp_path / "file").write_text("")
    code, _, err = run([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert code == cli.EXIT_USAGE
    target = target.replace("{tmp}", str(tmp_path))
    assert err == f"error: cannot write {target}: {os.strerror(err_no)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--json", "-", "--latex", "-"],
        ["derive", "--method", "tanh", "--preset", "ito", "--json", "-", "--latex", "-"],
    ],
)
def test_json_and_latex_both_on_stdout_is_a_usage_error(argv, capsys, monkeypatch):
    # two documents on one stream could not be read back; nothing runs
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_reproduce", no_work)
    monkeypatch.setattr(cli, "derive", no_work)
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == "" and err == "error: --json and --latex cannot both write to stdout\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--lambda-grid-depth", "3"],
        ["reproduce", "--budget", "5"],
        ["solve", "--method", "tanh", "--lambda", "-6", "--budget", "5"],
        ["derive", "--method", "tanh", "--M", "2"],
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert out == "" and "unrecognized arguments" in err


def _readme_commands():
    """The `fkdv ...` lines of README's "Command line" block, without their
    trailing comments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("fkdv ")
    ]


def test_readme_command_examples_run(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/spans.py wraps fkdv functions and MPoly methods by name; it
    # is read and run here without importing it as a package or writing
    # bytecode next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    for module, attr, _, _ in spans._FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert set(spans._MPOLY_METHODS) <= MPoly.__dict__.keys()


# ---------------------------------------------------------------- script


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fkdv.cli", "balance", "--preset", "ito"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "M = 2" in proc.stdout


def _outside_imports():
    """The top-level import statements of fkdv's modules that name no fkdv
    module, as source lines."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__"
            ):
                yield ast.unparse(node)


def test_import_leaves_out_dataclasses_and_inspect():
    # every command, and perfbench's setup_s, pays for a fresh `import
    # fkdv.cli`; dataclasses alone pulled in inspect, ast, dis and tokenize.
    # The check covers what fkdv controls: what its standard-library imports
    # load on their own is subtracted (on Python 3.12 and later
    # importlib.resources imports inspect)
    statements = sorted(set(_outside_imports()))
    assert [s for s in statements if {"dataclasses", "inspect"} & set(s.replace(",", " ").split())] == []
    code = "; ".join(
        ["import sys", *statements, "base = set(sys.modules)", "import fkdv.cli"]
        + ["print(*sorted(set(sys.modules) - base))"]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "fkdv.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect"}) == []


def test_closed_output_pipe_exits_141_without_traceback():
    # the reader has gone before anything is written, as with `| head` on
    # a long output
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fkdv.cli", "solve", "--method", "pre", "--lambda", "-6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""
