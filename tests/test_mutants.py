"""The mutation gate's list stays in step with the sources: each mutant's
old text occurs exactly once, so an edit that moves it fails here and not
only in the gate's CI step."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _load():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_matches_its_file_exactly_once():
    mutants = _load()
    assert len(mutants.MUTANTS) >= 4
    assert {m.name: mutants.occurrences(m) for m in mutants.MUTANTS} == {
        m.name: 1 for m in mutants.MUTANTS
    }
    assert all(m.old != m.new for m in mutants.MUTANTS)


def test_every_pytest_check_names_an_existing_test_file():
    mutants = _load()
    targets = [arg for m in mutants.MUTANTS for arg in m.check if arg.startswith("tests/")]
    # reproduce does not run the float evaluator, so some mutant needs a test
    assert targets and all((mutants.ROOT / t).is_file() for t in targets)
