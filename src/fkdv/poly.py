"""Sparse exact multivariate polynomials over the rationals.

A polynomial is its int coefficients ``terms`` over one positive int
denominator ``den``, in lowest terms: ``gcd(den, *terms.values()) == 1``, so
equal values have equal ``terms`` and ``den`` (Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2).  Every operation runs in
ints.  A product, a sum of products, a derivation and the parser's sums,
whose terms are mostly products of numbers and symbols folded into one int
term, add int products into one term map over a common denominator, which
grows to the lcm when a product's denominator does not divide it, the
partial sum rescaled once; a sum of two polynomials brings both to the lcm
of their denominators.  Each result is divided once by the gcd of its
denominator and coefficients.  A substitution of polynomials for symbols
and a rewrite by a side relation are both one sum of products:
:meth:`MPoly.split` groups the terms by the exponents of the symbols, and
each group is multiplied by the image of its exponents.  Rationals enter
through :func:`_as_rat`, which takes an int or a ``Fraction`` and rejects
anything else.  Values handed out of the kernel are ``Fraction``
(``constant_value``, ``eval_rat``, ``content``, ``rational_roots``), or for
a coefficient (``linear_pivots``, ``as_univariate``) an ``int`` when
integral.  :meth:`MPoly.normalize` gives denominator 1 and coprime
coefficients, the form the solver works in.

A monomial is one int code, built by :func:`monomial` and decoded by
:func:`exps_of`; a polynomial's ``terms`` maps codes to nonzero
coefficients, so the kernel hashes only ints.

The canonical term order is graded lexicographic with the fixed symbol order
from :mod:`fkdv.symbols`: higher total degree first, ties broken by the
exponent of the earliest symbol.  The int order of the codes is that order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, isqrt, lcm
from operator import attrgetter, mul, or_
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .symbols import ALPHABET, DEGREE_SHIFT, FIELD_BITS, MAX_DEGREE, Sym

Coef = Union[int, Fraction]  # a coefficient handed out: int when integral
Coeffable = Union["MPoly", Fraction, int]

_FIELD = (1 << FIELD_BITS) - 1  # one exponent field
_DEG1 = 1 << DEGREE_SHIFT  # one unit of total degree
_EXPS = _DEG1 - 1  # every exponent field
_DEG_LIMIT = (MAX_DEGREE + 1) << DEGREE_SHIFT
_BY_FIELD = ALPHABET[::-1]  # field number (offset // FIELD_BITS) -> symbol


def _checked(code: int) -> int:
    if code >= _DEG_LIMIT:
        raise ValueError(f"total degree {code >> DEGREE_SHIFT} exceeds {MAX_DEGREE}")
    return code


def _decode(fields: int) -> list[tuple[Sym, int]]:
    """The nonzero exponent fields of ``fields`` as (symbol, exponent), in
    symbol order."""
    out = []
    while fields:
        shift = (fields.bit_length() - 1) // FIELD_BITS * FIELD_BITS
        e = fields >> shift
        out.append((_BY_FIELD[shift // FIELD_BITS], e))
        fields -= e << shift
    return out


@lru_cache(maxsize=1 << 12)
def exps_of(code: int) -> tuple[tuple[Sym, int], ...]:
    """The (symbol, exponent) pairs of a monomial code, in symbol order.
    Memoized for evaluation, which decodes the same codes at every point."""
    return tuple(_decode(code & _EXPS))


@lru_cache(maxsize=1 << 12)
def _symbols_of(fields: int) -> frozenset[Sym]:
    """The symbols with a nonzero field in ``fields``; memoized like exps_of."""
    return frozenset(s for s, _ in _decode(fields))


def monomial(exps: Mapping[Sym, int] | Iterable[tuple[Sym, int]] = ()) -> int:
    """The code of the product of s**e over ``exps``; 0 is the unit.

    The code is the total degree times ``2**DEGREE_SHIFT`` plus each
    exponent shifted to its symbol's field (``Sym.shift``).  So the int
    order of codes is the graded-lex order, a product is the sum of the
    codes, and removing exponents is a subtraction.  A negative exponent or
    a total degree above ``MAX_DEGREE`` raises ValueError, so no field
    overflows into the next.
    """
    items = exps.items() if isinstance(exps, Mapping) else exps
    code = 0
    for s, e in items:
        if e < 0:
            raise ValueError(f"negative exponent on {s}")
        code += e * ((1 << s.shift) + _DEG1)
    return _checked(code)


def _as_rat(v) -> Coef:
    """The canonical rational: an int when ``v`` is integral, else the
    Fraction itself; floats and other types raise TypeError."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"expected rational, got {type(v).__name__}")


def _handed(c: int, den: int) -> Coef:
    # the coefficient c / den as handed out: an int when integral
    return c // den if not c % den else Fraction(c, den)


def _accumulate(acc: dict[int, int], den: int, left: Iterable, right: Collection, d: int) -> int:
    """Add left * right / d to acc, which holds den times a sum, in ints,
    and return the new den.  ``left`` and ``right`` are (code, int) pairs.
    When d does not divide den, den grows to lcm(den, d) and acc is
    rescaled; the product is then scaled by den / d."""
    if den % d:
        grow = d // gcd(den, d)
        for k in acc:
            acc[k] *= grow
        den *= grow
    if den != d:
        scale = den // d
        left = [(k, c * scale) for k, c in left]
    get = acc.get
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return den


class MPoly:
    """Immutable sparse polynomial ``terms`` over ``den``; do not mutate
    ``terms`` after creation."""

    # _syms caches symbols()
    __slots__ = ("terms", "den", "_hash", "_ascii", "_syms")

    def __init__(self, terms: Mapping[int, Coeffable] | None = None):
        # keys are codes from monomial(), values rationals: each is scaled
        # to the lcm of their denominators, which leaves them coprime to it
        rats = {k: _as_rat(c) for k, c in terms.items()} if terms else {}
        self.den = lcm(*[c.denominator for c in rats.values()])
        self.terms: dict[int, int] = {
            k: c.numerator * (self.den // c.denominator) for k, c in rats.items() if c
        }
        self._hash = self._ascii = self._syms = None

    @classmethod
    def _raw(cls, terms: dict[int, int], den: int = 1) -> "MPoly":
        # internal: takes ownership, trusts no zero coefficients and lowest
        # terms
        self = object.__new__(cls)
        self.terms = terms
        self.den = den
        self._hash = self._ascii = self._syms = None
        return self

    @classmethod
    def _lowest(cls, terms: dict[int, int], den: int) -> "MPoly":
        # internal: nonzero terms over den, divided by their common factor
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        return cls._raw(terms, den)

    @classmethod
    def _from_codes(cls, acc: dict[int, int], den: int = 1) -> "MPoly":
        # internal: the nonzero terms of a code-keyed sum over den.  The
        # largest code is checked: in a product it is a term of top degree,
        # which never cancels
        _checked(max(acc, default=0))
        return cls._lowest({k: c for k, c in acc.items() if c}, den)

    @classmethod
    def zero(cls) -> "MPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "MPoly":
        c = _as_rat(c)
        return cls._raw({0: c.numerator}, c.denominator) if c else cls._raw({})

    @classmethod
    def var(cls, s: Sym) -> "MPoly":
        return cls._raw({_DEG1 + (1 << s.shift): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # each operator tests isinstance with MPoly first: with Fraction, an
    # ABC, it costs a Python-level __instancecheck__ call
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return False
            other = MPoly.const(other)
        return self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other: Coeffable) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        # both over den, the lcm of the two denominators
        den = lcm(self.den, other.den)
        grow, scale = den // self.den, den // other.den
        out = dict(self.terms) if grow == 1 else {k: c * grow for k, c in self.terms.items()}
        get = out.get
        for k, c in other.terms.items():
            c = get(k, 0) + c * scale
            if c:
                out[k] = c
            else:
                del out[k]
        return MPoly._lowest(out, den)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._raw({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other: Coeffable) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: Coeffable) -> "MPoly":
        return (-self) + other

    def __mul__(self, other: Coeffable) -> "MPoly":
        if not isinstance(other, MPoly):
            v = _as_rat(other)
            out = {k: c * v.numerator for k, c in self.terms.items()} if v else {}
            return MPoly._lowest(out, self.den * v.denominator)
        acc: dict[int, int] = {}
        den = _accumulate(acc, 1, self.terms.items(), list(other.terms.items()), self.den * other.den)
        return MPoly._from_codes(acc, den)

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, products: Iterable[Sequence["MPoly"]]) -> "MPoly":
        """The sum of the products of the nonempty factor sequences; each
        product's last multiplication goes straight into one term map."""
        acc: dict[int, int] = {}
        den = 1  # acc holds den times the sum
        for *head, last in products:
            left = reduce(mul, head) if head else _ONE
            den = _accumulate(acc, den, left.terms.items(), list(last.terms.items()), left.den * last.den)
        return cls._from_codes(acc, den)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        _checked(self.degree() * n << DEGREE_SHIFT)
        if not n:
            return MPoly.const(1)
        # left-to-right binary powering: square per bit, times self per 1 bit
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self.terms, default=-_DEG1) >> DEGREE_SHIFT

    def symbols(self) -> frozenset[Sym]:
        """The symbols that occur; computed once."""
        if self._syms is None:
            # a field of the OR of the codes is nonzero where some exponent is
            self._syms = _symbols_of(reduce(or_, self.terms, 0) & _EXPS)
        return self._syms

    def linear_pivots(self) -> dict[Sym, Coef]:
        """{x: c} for each symbol x that occurs only in one term c*x, that
        is, linearly with a constant coefficient."""
        candidates: dict[int, int] = {}
        others = 0
        for k, c in self.terms.items():
            if k >> DEGREE_SHIFT == 1:
                candidates[k & _EXPS] = c
            else:
                others |= k
        return {
            _BY_FIELD[(bit.bit_length() - 1) // FIELD_BITS]: _handed(c, self.den)
            for bit, c in candidates.items()
            if not others & bit * _FIELD
        }

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms[0], self.den)

    def coefficient_of(self, s: Sym, power: int) -> "MPoly":
        """Polynomial coefficient of s**power (s removed from the monomials)."""
        return self.split((s,)).get((power,)) or MPoly.zero()

    def split(self, syms: Sequence[Sym]) -> dict[tuple[int, ...], "MPoly"]:
        """Coefficients by the exponents of ``syms``: self is the sum over
        the keys of coefficient * prod(s**e for s, e in zip(syms, key))."""
        shifts = [s.shift for s in syms]
        mask = sum([_FIELD << shift for shift in shifts])
        # group the terms by their fields of syms, taking off each term's
        # fields and their degree as it is grouped: picked -> (exponents,
        # the code taken off, terms)
        groups: dict[int, tuple[tuple[int, ...], int, dict[int, int]]] = {}
        for k, c in self.terms.items():
            picked = k & mask
            group = groups.get(picked)
            if group is None:
                exps = tuple([picked >> shift & _FIELD for shift in shifts])
                group = groups[picked] = (exps, picked + sum(exps) * _DEG1, {})
            group[2][k - group[1]] = c
        return {exps: MPoly._lowest(terms, self.den) for exps, _, terms in groups.values()}

    def max_exponent(self, s: Sym) -> int:
        return max(((k >> s.shift) & _FIELD for k in self.terms), default=0)

    def content(self) -> Fraction:
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        return Fraction(gcd(*self.terms.values()), self.den)

    def normalize(self) -> "MPoly":
        """Divide by the positive content and make the leading coefficient
        positive, giving den 1 and coprime coefficients.  Idempotent: a
        normal polynomial is returned itself; preserves the zero set
        exactly."""
        if not self.terms:
            return self
        g = gcd(*self.terms.values())
        if self.terms[max(self.terms)] < 0:
            g = -g
        if g == self.den == 1:
            return self
        out = MPoly._raw({k: c // g for k, c in self.terms.items()})
        out._syms = self._syms  # same monomials
        return out

    def substitute(self, bind: Mapping[Sym, Coeffable]) -> "MPoly":
        """Homomorphic substitution; unbound symbols remain.  The symbols
        bound to rationals are bound one at a time.  Those bound to
        polynomials are bound together, as :func:`reduce_power` rewrites:
        the part at each exponent tuple of theirs is multiplied by the
        values' powers, all into one term map."""
        syms = self.symbols()
        out, polys = self, {}
        for s, v in bind.items():
            if s not in syms:
                continue
            if isinstance(v, MPoly):
                polys[s] = v
            else:
                out = out._bind_rat(s, _as_rat(v))
        if not polys:
            return out
        values = list(polys.values())
        return MPoly.sum_of_products(
            (*(v**e for v, e in zip(values, es) if e), part)
            for es, part in out.split(list(polys)).items()
        )

    def _bind_rat(self, s: Sym, v: Coef) -> "MPoly":
        # self with s bound to the rational v = n/m, in one int loop: s**e
        # becomes n**e * m**(top - e) over m**top, top the largest exponent
        # of s, and each power is computed once per call
        shift, touched = s.shift, _FIELD << s.shift
        if not v:
            return MPoly._lowest({k: c for k, c in self.terms.items() if not k & touched}, self.den)
        n, m = v.numerator, v.denominator
        top = self.max_exponent(s) if m != 1 else 0
        lifts = [1]  # lifts[j] = m**j
        for _ in range(top):
            lifts.append(lifts[-1] * m)
        step, powers = (1 << shift) + _DEG1, [1, n]
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in self.terms.items():
            e = k >> shift & _FIELD
            if e:
                while len(powers) <= e:
                    powers.append(powers[-1] * n)
                k -= e * step
                c *= powers[e]
            if top:
                c *= lifts[top - e]
            acc[k] = get(k, 0) + c
        return MPoly._from_codes(acc, self.den * lifts[top])

    def derive(self, rules: Mapping[Sym, "MPoly"]) -> "MPoly":
        """The derivation sending each symbol in ``rules`` to its rule and
        every other symbol to 0: the sum over s of (d/ds self) * rules[s]."""
        acc: dict[int, int] = {}
        den = 1  # as in sum_of_products
        for s, rule in rules.items():
            shift = s.shift
            step = (1 << shift) + _DEG1
            partial = []
            for k, c in self.terms.items():
                e = (k >> shift) & _FIELD
                if e:
                    partial.append((k - step, c * e))
            den = _accumulate(acc, den, partial, list(rule.terms.items()), self.den * rule.den)
        return MPoly._from_codes(acc, den)

    def eval_rat(self, point: Mapping[Sym, Coeffable]) -> Fraction:
        """Exact evaluation; every symbol must be bound to a rational (see
        :class:`Point`)."""
        at = Point(point, self.symbols())
        return Fraction(at.scaled(self), at.denominator(self))

    def as_univariate(self, x: Sym) -> Optional[list[Coef]]:
        """Dense coefficient list in ``x`` (ascending), or None if any other
        symbol occurs.  Constants give a single-entry list."""
        shift = x.shift
        step = (1 << shift) + _DEG1
        coeffs: dict[int, Coef] = {}
        for k, c in self.terms.items():
            e = (k >> shift) & _FIELD
            if k != e * step:
                return None
            coeffs[e] = _handed(c, self.den)
        n = max(coeffs, default=0)
        return [coeffs.get(i, 0) for i in range(n + 1)]

    def monomial_gcd(self) -> int:
        """The code of the componentwise-minimum monomial dividing every
        term; 0 (the unit) for the zero polynomial."""
        if not self.terms or 0 in self.terms:
            return 0
        first, *rest = self.terms
        g = 0
        for s, e in exps_of(first):
            for k in rest:
                e = min(e, (k >> s.shift) & _FIELD)
                if not e:
                    break
            g += e * ((1 << s.shift) + _DEG1)
        return g

    def divide_mono(self, g: int) -> "MPoly":
        """Exact division by the monomial of code ``g``, which must divide
        every term."""
        fields = [(s.shift, e) for s, e in exps_of(g)]
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            for shift, e in fields:
                if (k >> shift) & _FIELD < e:
                    raise ValueError(f"{_ascii_mono(g)} does not divide {_ascii_mono(k)}")
            out[k - g] = c
        return MPoly._raw(out, self.den)

    def ascii(self) -> str:
        """Canonical ASCII form: graded-lex descending, ``^`` powers,
        ``*`` products.  Bit-stable for equal polynomials; computed once."""
        if self._ascii is None:
            self._ascii = self._render(_ascii_coef, _ascii_mono, "*")
        return self._ascii

    __str__ = ascii

    def __repr__(self) -> str:
        return f"MPoly({self.ascii()})"

    def latex(self) -> str:
        return self._render(_latex_coef, _latex_mono, " ")

    def _render(self, coef, mono, times: str) -> str:
        # the terms in graded-lex descending order, each as its sign and
        # coef(n, d) times mono(code), n/d the magnitude in lowest terms; a
        # unit factor is left out
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items(), reverse=True):
            n, d = -c if c < 0 else c, self.den
            if d != 1:
                g = gcd(n, d)
                n, d = n // g, d // g
            if not k:
                body = coef(n, d)
            elif n == d == 1:
                body = mono(k)
            else:
                body = f"{coef(n, d)}{times}{mono(k)}"
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        text = "".join(parts)
        # the first term's sign takes no spaces, and a plus sign none at all
        return text[3:] if text[1] == "+" else "-" + text[3:]


_ONE = MPoly.const(1)  # the unit head of sum_of_products' one-factor products


class Point:
    """A rational point at which many polynomials are evaluated exactly.

    With D the common denominator of the bound values, each value is N/D,
    and a term of degree k of a polynomial of total degree d is scaled by
    D**(d - k), so the value of ``terms`` over ``den`` is an int sum over
    den * D**d.  The point fixes D and each N once; the tables N**e and D**j
    grow when a term first needs them, and a term with a symbol bound to 0
    is skipped.  Only the values of ``syms`` are read, so an entry for
    another symbol is ignored; a missing one raises KeyError naming the
    least such symbol."""

    __slots__ = ("powers", "zero", "scale")

    def __init__(self, values: Mapping[Sym, Coeffable], syms: Collection[Sym]):
        try:
            rats = {s: _as_rat(values[s]) for s in syms}
        except KeyError:
            missing = min((s for s in syms if s not in values), key=attrgetter("key"))
            raise KeyError(f"unbound symbol {missing}") from None
        den = lcm(*[v.denominator for v in rats.values()])
        self.powers: dict[Sym, list[int]] = {}  # powers[s][e] = N**e, N != 0
        self.zero = 0  # the fields of the symbols bound to 0
        for s, v in rats.items():
            n = v.numerator * (den // v.denominator)
            if n:
                self.powers[s] = [1, n]
            else:
                self.zero |= _FIELD << s.shift
        self.scale = [1, den]  # scale[j] = D**j

    def scaled(self, p: MPoly) -> int:
        """The integer den * D**d * p(point): 0 exactly where p vanishes."""
        d = max(p.degree(), 0)
        powers, zero, scale = self.powers, self.zero, self.scale
        while len(scale) <= d:
            scale.append(scale[-1] * scale[1])
        total = 0
        for k, v in p.terms.items():
            if k & zero:
                continue
            for s, e in exps_of(k):
                row = powers[s]
                while len(row) <= e:
                    row.append(row[-1] * row[1])
                v *= row[e]
            total += v * scale[d - (k >> DEGREE_SHIFT)]
        return total

    def denominator(self, p: MPoly) -> int:
        """den * D**d, so p(point) is ``scaled(p)`` over it."""
        return p.den * self.scale[1] ** max(p.degree(), 0)


@lru_cache(maxsize=256)
def _image(s: Sym, j: int, rel: Coeffable, q: int, lead: Coeffable, k: int) -> MPoly:
    # s**j * rel**q * lead**k, built once per process and shared by every
    # caller, so no caller may mutate it
    return MPoly.var(s) ** j * rel**q * lead**k


def reduce_power(p: MPoly, s: Sym, rel: Coeffable, lead: Coeffable = 1, n: int = 2) -> tuple[MPoly, int]:
    """(lead**top * p with each s**e rewritten by lead * s**n = rel, top),
    where top = max exponent of s // n; (p itself, 0) when top is 0.

    The part of p at each s**e is multiplied once by the image
    s**(e % n) * rel**(e // n) * lead**(top - e // n), into one term map.
    The images are cached by what they are products of, a unit relation or
    lead at power 0, so each is built once per process.  When rel is free
    of s, the representative of lead**top * p modulo lead * s**n - rel with
    s-degree < n is unique, so any order of rewriting gives this polynomial.
    """
    top = p.max_exponent(s) // n
    if not top:
        return p, 0
    qs, ks = rel != 1, lead != 1
    return MPoly.sum_of_products(
        (part, _image(s, e % n, rel, e // n * qs, lead, (top - e // n) * ks))
        for (e,), part in p.split((s,)).items()
    ), top


@lru_cache(maxsize=1 << 12)
def _ascii_mono(k: int) -> str:
    """The text of a monomial code; memoized like exps_of, as equal terms
    recur across the polynomials a solve renders."""
    text = "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in _decode(k & _EXPS))
    return text or "1"


def _latex_mono(k: int) -> str:
    return " ".join(s.latex() if e == 1 else f"{s.latex()}^{{{e}}}" for s, e in _decode(k & _EXPS))


def _ascii_coef(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _latex_coef(n: int, d: int) -> str:
    return str(n) if d == 1 else rf"\frac{{{n}}}{{{d}}}"


def _primitive(cs: Sequence[Fraction | int]) -> list[int]:
    """The coprime integer list that is a positive multiple of ``cs``."""
    den = lcm(*[c.denominator for c in cs])
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints)
    return [v // g for v in ints]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of ascending coefficient lists: q, r and k
    with |lc(b)|**k * a == q*b + r and deg r < deg b.  A step scales by
    |lc(b)| only when lc(b) does not divide the leading coefficient, and the
    positive scale keeps the sign of the remainder."""
    lb = b[-1]
    sb = abs(lb)
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    k = 0
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        f, rem = divmod(c, lb)
        if rem:
            r = [sb * v for v in r]
            q = [sb * v for v in q]
            f = c if lb > 0 else -c
            k += 1
        q[shift] += f
        for i, bc in enumerate(b):
            r[shift + i] -= f * bc
        while r and r[-1] == 0:
            r.pop()
    return q, r, k


def _horner(cs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def rational_roots(coeffs: Iterable[Fraction | int]) -> set[Fraction]:
    """All rational roots of the dense coefficient list (ascending powers).

    The primitive integer form f, zero roots removed, is solved in closed
    form at degree 1 or 2 (``isqrt`` tests the discriminant).  Above that,
    with a_n its leading coefficient, x = y/a_n turns f into the monic
    integer polynomial g(y) = a_n**(n-1) * f(y/a_n), whose rational roots
    are integers.  The integer roots of the square-free part of g are
    isolated by bisecting integer intervals (lo, hi] inside a Fujiwara
    bound with a Sturm sequence, so the cost follows the bound's bit length,
    not the size of the coefficients.  Multiplicities are not reported.
    Rejects the identically zero list: the caller must treat that case as a
    branch, not a root-finding problem.
    """
    cs = [_as_rat(c) for c in coeffs]
    if all(c == 0 for c in cs):
        raise ValueError("identically zero polynomial has every value as a root")
    while cs[-1] == 0:
        cs.pop()
    roots: set[Fraction] = set()
    while len(cs) > 1 and cs[0] == 0:
        roots.add(Fraction(0))
        cs.pop(0)
    f = _primitive(cs)
    n, an = len(f) - 1, f[-1]
    if n == 0:
        return roots
    if n == 1:
        return roots | {Fraction(-f[0], an)}
    if n == 2:
        disc = f[1] * f[1] - 4 * an * f[0]
        s = isqrt(max(disc, 0))
        if s * s == disc:
            roots |= {Fraction(-f[1] + s, 2 * an), Fraction(-f[1] - s, 2 * an)}
        return roots
    g = [c * an ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    # pseudo-remainders are positive multiples of the remainders over Q, so
    # their primitive parts, and the chains below, are those of Q division
    d, e = g, _derivative(g)
    while e:
        r = _pseudo_divmod(d, e)[1]
        d, e = e, (_primitive(r) if r else [])
    h = _primitive(_pseudo_divmod(g, d)[0])
    # h is square-free, so its Sturm sequence ends in a nonzero constant
    sturm = [h, _derivative(h)]
    while len(sturm[-1]) > 1:
        sturm.append([-c for c in _primitive(_pseudo_divmod(sturm[-2], sturm[-1])[1])])

    def variations(x: int) -> int:
        signs = [v > 0 for v in (_horner(p, x) for p in sturm) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # Fujiwara: every root has |z| <= 2 * max_i |h_(m-i) / h_m|**(1/i), and
    # |h_m| >= 1, |c| < 2**bits(c) make 2 * max_i 2**ceil(bits(h_(m-i)) / i)
    # at least that; variations(lo) - variations(hi) counts the distinct
    # roots in (lo, hi]
    bound = 2 << max(-(-abs(c).bit_length() // i) for i, c in enumerate(reversed(h[:-1]), 1))
    work = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while work:
        lo, hi, vlo, vhi = work.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _horner(h, hi) == 0:
                roots.add(Fraction(hi, an))
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        work += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return roots


# a token: ASCII digits, a name of ASCII letters, digits and "_" that
# starts with a letter, or any other one character but ASCII whitespace
# (what str.isspace accepts below 128); a token whose first character is
# not in _GOOD_FIRST is that one bad character
_TOKENS = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^\t-\r\x1c-\x20]")
_GOOD_FIRST = frozenset("-+*^()/0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_SYMBOL_CODES = {s.name: _DEG1 + (1 << s.shift) for s in ALPHABET}  # name -> code
_END = "unexpected end of polynomial text"
# the most terms a power of a sum may expand to, C(t + n - 1, n) for t terms
# to the n, and the most term pairs a product of two sums may make: the
# slowest power of a sum of symbols and 1 within it, (a0 + a1 + 1)^116,
# parses in about 1 s (Python 3.11, 2 CPUs)
_EXPANSION_CAP = 7000
# each term of a power counts 1 + n*(b - 1)/_BITS_PER_TERM, b the bits of the
# sum's largest int coefficient: the slowest power within the cap with b > 1
# found, (c*a0 + c)^197 for c = 10^27 - 1, parses in 0.7-0.9 s
_BITS_PER_TERM = 512


def _int_term(code: int, num: int, den: int) -> MPoly:
    # num/den times the monomial of code
    return MPoly._lowest({code: num}, den) if num else MPoly.zero()


class _Parser:
    """Recursive-descent parser for the canonical ASCII polynomial form.

    A product of numbers and symbols, each with an optional power, is one
    int term num/den times a monomial, whose code is the sum of the
    factors' codes as in :func:`monomial`.  The term becomes an MPoly only
    when it is multiplied by a parenthesized sum, and from there on the
    product is the kernel's own ``*``.  Every step keeps the degree checks
    of the kernel's ``*`` and ``**``.  A sum adds its terms into one
    code-keyed dict.  A power of a sum, or a product of two sums, whose
    expansion exceeds _EXPANSION_CAP raises ValueError before it is
    expanded; a text over the degree cap as well reports the degree cap.
    ``expr`` and ``term`` take the position of their first token and
    return the position after their last."""

    def __init__(self, text: str):
        self.tokens: list[str | None] = self._tokenize(text) + [None]  # None ends the text

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        out = _TOKENS.findall(text)
        bad = {tok for tok in set(out) if tok[0] not in _GOOD_FIRST}
        if bad:
            tok = next(tok for tok in out if tok in bad)
            raise ValueError(f"bad character {tok!r} in polynomial text")
        return out

    def parse(self) -> MPoly:
        p, pos = self.expr(0)
        if self.tokens[pos] is not None:
            raise ValueError(f"trailing tokens at {self.tokens[pos]!r}")
        return p

    def expr(self, pos: int) -> tuple[MPoly, int]:
        tokens = self.tokens
        acc: dict[int, int] = {}
        den = 1  # acc holds den times the sum
        while True:
            sign = 1
            while tokens[pos] in ("+", "-"):
                if tokens[pos] == "-":
                    sign = -sign
                pos += 1
            pairs, d, pos = self.term(pos)
            den = _accumulate(acc, den, [(0, sign)], pairs, d)
            if tokens[pos] not in ("+", "-"):
                return MPoly._from_codes(acc, den), pos

    def term(self, pos: int) -> tuple[Collection[tuple[int, int]], int, int]:
        """A product, as its (code, coefficient) pairs over a denominator.

        A factor is a number, ``n/d``, a symbol or a parenthesized sum, with
        an optional power; a unary minus inside the product binds before
        ``^``."""
        tokens = self.tokens
        code, num, den = 0, 1, 1  # the product of the int factors
        p = None  # the product, from the first parenthesized sum on
        while True:
            sign = 1
            while tokens[pos] == "-":
                pos += 1
                sign = -sign
            tok = tokens[pos]
            pos += 1
            f = None  # the factor when it is a parenthesized sum
            if tok in _SYMBOL_CODES:
                fcode, fnum, fden = _SYMBOL_CODES[tok], 1, 1
            elif tok is None:
                raise ValueError(_END)
            elif tok.isdigit():
                fcode, fnum, fden = 0, int(tok), 1
                if tokens[pos] == "/":
                    d = tokens[pos + 1]
                    if d is None or not d.isdigit() or int(d) == 0:
                        raise ValueError(_END if d is None else
                                         f"expected nonzero integer denominator, got {d!r}")
                    fden, pos = int(d), pos + 2
            elif tok == "(":
                f, pos = self.expr(pos)
                if tokens[pos] != ")":
                    raise ValueError(_END if tokens[pos] is None else "unbalanced parenthesis")
                pos += 1
                if sign < 0:
                    f = -f
            else:
                Sym(tok)  # raises: not in the symbol alphabet
            if tokens[pos] == "^":
                n = tokens[pos + 1]
                if n is None or not n.isdigit():
                    raise ValueError(_END if n is None else f"expected integer exponent, got {n!r}")
                n, pos = int(n), pos + 2
                if f is not None:
                    _checked(f.degree() * n << DEGREE_SHIFT)  # the degree cap first, as in **
                    count = comb(len(f.terms) + n - 1, n) if n > 1 else 0
                    bits = max(map(abs, f.terms.values()), default=1).bit_length()
                    if (cost := count + count * n * (bits - 1) // _BITS_PER_TERM) > _EXPANSION_CAP:
                        heavy = f", with its {bits}-bit coefficients as costly as {cost} terms" * (bits > 1)
                        raise ValueError(f"a sum of {len(f.terms)} terms to the power {n} expands to up "
                                         f"to {count} terms{heavy}, above {_EXPANSION_CAP}")
                    f = f**n
                else:
                    if fcode:  # a symbol, of degree 1
                        _checked(n << DEGREE_SHIFT)
                    fcode, fnum, fden, sign = fcode * n, fnum**n, fden**n, sign**n
            if f is None and p is None:
                code, num, den = code + fcode, num * sign * fnum, den * fden
                if num and code >= _DEG_LIMIT:  # a zero product has no degree
                    _checked(code)
            else:
                if f is None:
                    f = _int_term(fcode, sign * fnum, fden)
                left = _int_term(code, num, den) if p is None else p
                sizes = len(left.terms), len(f.terms)
                if min(sizes) > 1 and sizes[0] * sizes[1] > _EXPANSION_CAP:
                    _checked(left.degree() + f.degree() << DEGREE_SHIFT)  # the degree cap first
                    raise ValueError(f"a product of sums of {sizes[0]} and {sizes[1]} terms makes "
                                     f"{sizes[0] * sizes[1]} term pairs, above {_EXPANSION_CAP}")
                p = left * f
            if tokens[pos] != "*":
                if p is not None:
                    return p.terms.items(), p.den, pos
                return ((code, num),) if num else (), den, pos
            pos += 1


def parse_poly(text: str) -> MPoly:
    """Parse the ASCII polynomial grammar (integers, rationals ``n/d``,
    symbols, ``+ - * ^`` and parentheses).

    A minus sign at the start of a term negates the whole term, so ``-a1^2``
    is ``-(a1^2)``; a unary minus inside a product binds before ``^``, so
    ``a0*-a1^2`` is ``a0*(-a1)^2``, that is ``a0*a1^2``.  A total degree
    above 255 raises ValueError, as in the kernel, and so does a power or a
    product of sums that would expand to more than 7,000 terms or term
    pairs, a power's terms weighted by its coefficients' bits."""
    return _Parser(text).parse()

