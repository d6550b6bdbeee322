"""Mutation gate for `fkdv reproduce`: every listed mutant must make it fail.

A mutant is one exact text replacement in a file under src/.  For each,
src/ is copied to a temporary directory, the replacement is applied there
and ``python -m fkdv.cli reproduce`` runs on the copy; the mutant is killed
when that run exits nonzero.  An unmutated control run comes first and must
exit 0.  Run it from anywhere, with the standard library only:

    python tools/mutants.py

It prints one line per run, naming the stages that failed, and exits 1
when an old text does not occur exactly once in its file, when the control
run fails or when a mutant survives.  A new gate of the form "a mutated X
fails" adds its mutant to MUTANTS.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str  # must occur exactly once in the file
    new: str


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
)


def occurrences(mutant: Mutant) -> int:
    return (SRC / mutant.path).read_text().count(mutant.old)


def run_reproduce(mutant: Mutant | None) -> tuple[int, list[str]]:
    """(exit code, failed stage names) of ``fkdv reproduce`` on a copy of
    src/ with ``mutant`` applied, or on a plain copy for None."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = src / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "fkdv.cli", "reproduce"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
    failed = [
        line.split("]", 1)[1].split(":", 1)[0].strip()
        for line in proc.stdout.splitlines()
        if line.lstrip().startswith("[FAIL]")
    ]
    return proc.returncode, failed


def main() -> int:
    unmatched = [m for m in MUTANTS if occurrences(m) != 1]
    for m in unmatched:
        print(f"old text of {m.name!r} occurs {occurrences(m)} times in src/{m.path}")
    if unmatched:
        return 1
    code, failed = run_reproduce(None)
    print(f"control: exit {code}" + (f", failed: {', '.join(failed)}" if failed else ""))
    ok = code == 0
    for m in MUTANTS:
        code, failed = run_reproduce(m)
        verdict = "killed" if code else "SURVIVED"
        print(f"{verdict}: {m.name} (exit {code}; failed: {', '.join(failed) or 'none'})")
        ok = ok and code != 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
