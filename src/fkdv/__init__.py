"""Exact-arithmetic tanh and projective Riccati traveling-wave engine for
the fifth-order KdV family."""

__version__ = "0.1.0"

from .equation import EquationSpec, SystemEq, ito
from .poly import MPoly, parse_poly, rational_roots
from .symbols import Sym, sym

__all__ = [
    "EquationSpec",
    "MPoly",
    "Sym",
    "SystemEq",
    "__version__",
    "ito",
    "parse_poly",
    "rational_roots",
    "sym",
]
