"""Transcribed reference systems shipped as data files.

The derive pipeline never reads these; ``derive --check-fixture``,
``reproduce``'s derive stages and the tests compare against them.  Each file
carries a checksum over its equations payload so accidental edits are
caught, and is read, checked and parsed once per process.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from importlib import resources
from typing import NamedTuple

from .equation import SystemEq, equation_tag
from .errors import InternalInvariantError
from .poly import MPoly, parse_poly
from .pre import split_r

_FILES = {"tanh": "tanh_ito_m2.json", "pre": "pre_ito_m1.json"}


class FixtureEq(NamedTuple):
    label: int
    key: tuple[int, int | None]  # (power, tau_degree)
    poly: MPoly


class Fixture(NamedTuple):
    ansatz_order: int
    equations: tuple[FixtureEq, ...]


def canonical_form(p: MPoly) -> MPoly:
    """Comparison form: r-powers stripped, then content-normalized."""
    return split_r(p)[1].normalize()


def _checksum(equations: list[dict]) -> str:
    payload = json.dumps(equations, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(payload).hexdigest()


@cache
def load_fixture(method: str) -> Fixture:
    if method not in _FILES:
        raise ValueError(f"no fixture for method {method!r}")
    path = resources.files("fkdv").joinpath("fixtures", _FILES[method])
    doc = json.loads(path.read_text())
    if _checksum(doc["equations"]) != doc["checksum"]:
        raise InternalInvariantError(f"fixture {_FILES[method]} failed its checksum")
    eqs = []
    for entry in doc["equations"]:
        key = (entry.get("power", entry.get("sigma_power")), entry.get("tau_degree"))
        eqs.append(FixtureEq(label=entry["label"], key=key, poly=parse_poly(entry["expr"])))
    return Fixture(ansatz_order=doc["ansatz_order"], equations=tuple(eqs))


def _only_in(p: MPoly, q: MPoly) -> list[str]:
    """The terms of p that q lacks or carries with another coefficient."""
    return [MPoly({k: c}).ascii() for k, c in sorted(p.terms.items(), reverse=True)
            if q.terms.get(k) != c]


class FixtureDiff(NamedTuple):
    key: tuple[int, int | None]
    label: int | None
    generated: MPoly | None  # canonical form, None when missing
    expected: MPoly | None

    def describe(self) -> str:
        where = equation_tag(*self.key)
        if self.generated is None:
            return f"{where}: missing from generated system (expected eq. {self.label})"
        if self.expected is None:
            return f"{where}: generated but absent from the transcription"
        return (
            f"{where} (eq. {self.label}): generated != transcribed;"
            f" only-generated terms: {_only_in(self.generated, self.expected)};"
            f" only-expected terms: {_only_in(self.expected, self.generated)}"
        )


def compare_systems(system: list[SystemEq], fixture: Fixture) -> list[FixtureDiff]:
    """Key-by-key comparison in canonical form; empty list means equal."""
    gen = {(eq.power, eq.tau_degree): canonical_form(eq.poly) for eq in system}
    exp = {fe.key: (fe.label, canonical_form(fe.poly)) for fe in fixture.equations}
    diffs: list[FixtureDiff] = []
    for key in sorted(set(gen) | set(exp), key=lambda k: (k[1] or 0, k[0])):
        g = gen.get(key)
        label, e = exp.get(key, (None, None))
        if g != e:
            diffs.append(FixtureDiff(key, label, g, e))
    return diffs
