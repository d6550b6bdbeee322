"""Interned parameter symbols with a fixed global ordering.

The symbol alphabet is closed: the two indexed families ``a0, a1, ...`` and
``b1, b2, ...`` (ansatz coefficients), followed by the fixed tail
``k, lam, mu, r, e, rho`` of parameters, the auxiliary functions ``phi,
sigma, tau`` of the two ansatz methods, and the symbols of the closed-form
catalog: ``w`` = (-lam/6)^(1/4), the trig and
hyperbolic functions ``tan, sec, cot, csc, tanh, sech, coth, csch`` at the
angle w*xi/2, ``cscw, cotw`` = csc(w*xi), cot(w*xi), and the reciprocals
``ym, yp`` = 1/(1 -+ csc(w*xi)); then, for the closed forms of the
auxiliary equations, ``xinv`` = 1/xi and the reciprocals ``ysec, ycsc,
ysech, ycsch`` = 1/(1 + mu*sec), ... at the angle w*xi/2.  The total order
used everywhere (canonical monomial order, solver tie-breaking) is exactly
that listing: a-family by index, then b-family by index, then the tail.

The indices run to ``MAX_ORDER``, the highest ansatz order.  In that order
each symbol owns a ``FIELD_BITS``-wide exponent field of the packed monomial
code of :mod:`fkdv.poly`, at bit offset ``Sym.shift``, a0 most significant;
the total degree sits above them at ``DEGREE_SHIFT``, capped at ``MAX_DEGREE``.
"""

from __future__ import annotations

_TAIL = (
    "k", "lam", "mu", "r", "e", "rho",
    "phi", "sigma", "tau",
    "w", "tan", "sec", "cot", "csc", "tanh", "sech", "coth", "csch",
    "cscw", "cotw", "ym", "yp",
    "xinv", "ysec", "ycsc", "ysech", "ycsch",
)

MAX_ORDER = 16
FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1

_NAMES = (
    *(f"a{j}" for j in range(MAX_ORDER + 1)),
    *(f"b{j}" for j in range(1, MAX_ORDER + 1)),
    *_TAIL,
)
_RANK = {name: i for i, name in enumerate(_NAMES)}
DEGREE_SHIFT = FIELD_BITS * len(_NAMES)

LATEX = {
    "lam": r"\lambda",
    "mu": r"\mu",
    "rho": r"\rho",
    "phi": r"\varphi",
    "sigma": r"\sigma",
    "tau": r"\tau",
    "tan": r"\tan\left(\tfrac{w\xi}{2}\right)",
    "sec": r"\sec\left(\tfrac{w\xi}{2}\right)",
    "cot": r"\cot\left(\tfrac{w\xi}{2}\right)",
    "csc": r"\csc\left(\tfrac{w\xi}{2}\right)",
    "tanh": r"\tanh\left(\tfrac{w\xi}{2}\right)",
    "sech": r"\operatorname{sech}\left(\tfrac{w\xi}{2}\right)",
    "coth": r"\coth\left(\tfrac{w\xi}{2}\right)",
    "csch": r"\operatorname{csch}\left(\tfrac{w\xi}{2}\right)",
    "cscw": r"\csc(w\xi)",
    "cotw": r"\cot(w\xi)",
    "ym": r"{\left(1 - \csc(w\xi)\right)^{-1}}",
    "yp": r"{\left(1 + \csc(w\xi)\right)^{-1}}",
}


class Sym:
    """An interned symbol; equal names are the same object.  ``key`` is its
    rank in the symbol order and ``shift`` the offset of its exponent field."""

    __slots__ = ("name", "key", "shift")
    _registry: dict[str, "Sym"] = {}

    def __new__(cls, name: str) -> "Sym":
        try:
            return cls._registry[name]
        except KeyError:
            pass
        if name not in _RANK:
            raise ValueError(f"{name!r} is not in the symbol alphabet")
        self = object.__new__(cls)
        self.name = name
        self.key = _RANK[name]
        self.shift = DEGREE_SHIFT - FIELD_BITS * (self.key + 1)
        cls._registry[name] = self
        return self

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: "Sym") -> bool:
        return self.key < other.key

    # identity equality/hash from object is correct for interned instances

    def latex(self) -> str:
        if self.name in LATEX:
            return LATEX[self.name]
        if self.name[0] in "ab" and self.name[1:].isdigit():
            return f"{self.name[0]}_{{{self.name[1:]}}}"
        return self.name


# every symbol in symbol order
ALPHABET = tuple(Sym(name) for name in _NAMES)


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
PHI = Sym("phi")
SIGMA = Sym("sigma")
TAU = Sym("tau")
W = Sym("w")
TAN = Sym("tan")
SEC = Sym("sec")
COT = Sym("cot")
CSC = Sym("csc")
TANH = Sym("tanh")
SECH = Sym("sech")
COTH = Sym("coth")
CSCH = Sym("csch")
CSCW = Sym("cscw")
COTW = Sym("cotw")
YM = Sym("ym")
YP = Sym("yp")
XINV = Sym("xinv")
YSEC = Sym("ysec")
YCSC = Sym("ycsc")
YSECH = Sym("ysech")
YCSCH = Sym("ycsch")
