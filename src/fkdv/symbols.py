"""Interned parameter symbols with a fixed global ordering.

The symbol alphabet is closed: the two indexed families ``a0, a1, ...`` and
``b1, b2, ...`` (ansatz coefficients), followed by the fixed tail
``k, lam, mu, r, e, rho, alpha, beta, gamma, omega`` of parameters and the
auxiliary functions ``phi, sigma, tau`` of the two ansatz methods.  The total
order used everywhere (canonical monomial order, solver tie-breaking) is
exactly that listing: a-family by index, then b-family by index, then the
tail.
"""

from __future__ import annotations

import re

_TAIL = (
    "k", "lam", "mu", "r", "e", "rho", "alpha", "beta", "gamma", "omega",
    "phi", "sigma", "tau",
)
_TAIL_RANK = {name: i for i, name in enumerate(_TAIL)}

_NAME_RE = re.compile(r"^(?:a(?:0|[1-9]\d*)|b[1-9]\d*|%s)$" % "|".join(_TAIL))

LATEX = {
    "lam": r"\lambda",
    "mu": r"\mu",
    "rho": r"\rho",
    "alpha": r"\alpha",
    "beta": r"\beta",
    "gamma": r"\gamma",
    "omega": r"\omega",
    "phi": r"\varphi",
    "sigma": r"\sigma",
    "tau": r"\tau",
}


class Sym:
    """An interned symbol; equal names are the same object."""

    __slots__ = ("name", "key")
    _registry: dict[str, "Sym"] = {}

    def __new__(cls, name: str) -> "Sym":
        try:
            return cls._registry[name]
        except KeyError:
            pass
        if not _NAME_RE.match(name):
            raise ValueError(f"{name!r} is not in the symbol alphabet")
        self = object.__new__(cls)
        self.name = name
        if name in _TAIL_RANK:
            self.key = (2, _TAIL_RANK[name])
        elif name[0] == "a":
            self.key = (0, int(name[1:]))
        else:
            self.key = (1, int(name[1:]))
        cls._registry[name] = self
        return self

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: "Sym") -> bool:
        return self.key < other.key

    def __le__(self, other: "Sym") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Sym") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Sym") -> bool:
        return self.key >= other.key

    # identity equality/hash from object is correct for interned instances

    def latex(self) -> str:
        if self.name in LATEX:
            return LATEX[self.name]
        if self.name[0] in "ab" and self.name[1:].isdigit():
            return f"{self.name[0]}_{{{self.name[1:]}}}"
        return self.name


def sym(name: str) -> Sym:
    return Sym(name)


def a(j: int) -> Sym:
    return Sym(f"a{j}")


def b(j: int) -> Sym:
    return Sym(f"b{j}")


K = Sym("k")
LAM = Sym("lam")
MU = Sym("mu")
R = Sym("r")
E = Sym("e")
RHO = Sym("rho")
ALPHA = Sym("alpha")
BETA = Sym("beta")
GAMMA = Sym("gamma")
OMEGA = Sym("omega")
PHI = Sym("phi")
SIGMA = Sym("sigma")
TAU = Sym("tau")
