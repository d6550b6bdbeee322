import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fkdv import cli, fixtures
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
    broken = fixtures.Fixture(
        method="tanh", ansatz_order=2, equations=real.equations[:-1]
    )
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
    assert any(br["status"] == "contradiction" for br in doc["branches"])


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
    assert err == "--compare needs exactly two solution ids\n"


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


def test_reproduce_latex_appendix(capsys, tmp_path):
    tex = tmp_path / "appendix.tex"
    code, _, _ = run(["reproduce", "--latex", str(tex)], capsys)
    assert code == 0
    body = tex.read_text()
    assert "Solution catalog" in body and "u10" in body


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
REPRODUCE_SEED_7_JSON = "cac9605beb9c572413d04d7b42ab57b60fba2c1bfe5c5b1a6fb6772d1cd8f86e"
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


# sha256 of `derive --json` past the paper orders, where the products are
# largest: a change to the polynomial kernel must keep these bytes too.
LAX_FLAGS = ["--alpha", "30", "--beta", "20", "--gamma", "10", "--omega", "1"]
DERIVE_DEEP_DIGESTS = {
    ("ito", "tanh", 5): "6ff251785c2f40e8ab01371939e38f5ba819d115159a7c470e7ac247ebdaf29b",
    ("ito", "pre", 4): "45bb4968ec4f5e1d996f24daac753171b552bfb03f88c3653682a582c24ad313",
    ("lax", "pre", 3): "258b9fd9cc1c6bd73431eab88dc7a2c5e7a3e66fdfdb9d3b6aeaa6f7ce014ee8",
}


@pytest.mark.parametrize(("family", "method", "order"), list(DERIVE_DEEP_DIGESTS))
def test_derive_beyond_paper_order_matches_pinned_digest(family, method, order, capsys, tmp_path):
    flags = ["--preset", "ito"] if family == "ito" else LAX_FLAGS
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


# ---------------------------------------------------------------- script


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fkdv.cli", "balance", "--preset", "ito"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "M = 2" in proc.stdout


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
