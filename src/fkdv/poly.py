"""Sparse exact multivariate polynomials over the rationals.

A coefficient is an ``int`` when it is integral and a
:class:`fractions.Fraction` (aliased ``Rat``) otherwise, so integer
arithmetic, the common case after :meth:`MPoly.normalize`, never builds a big
rational.  Every value entering the kernel goes through :func:`_as_rat`, which
turns an integral ``Fraction`` into its ``int``.  Products (``*`` of two
polynomials, ``**`` to a power other than 1, :meth:`MPoly.sum_of_products` and
:meth:`MPoly.derive`) are fraction-free: each operand that holds a
``Fraction`` is scaled once by the lcm of its denominators, the products are
summed in ints over one common denominator, and each result coefficient is
divided by it once, so every integral coefficient they return is an ``int``.
``+``, ``*`` by a scalar and ``substitute`` use ``Fraction`` arithmetic, which
may still yield an integral ``Fraction``; it equals and hashes like the
``int``, and ``normalize()`` always returns coprime ``int`` coefficients.  No
``/`` runs between two ints: an exact quotient is ``//`` by a known divisor,
any other is ``Fraction`` division.  Values handed out of the kernel
(``constant_value``, ``eval_rat``, ``content``, ``rational_roots``) are
``Fraction``.

A monomial is one int code, built by :func:`monomial` and decoded by
:func:`exps_of`; a polynomial's ``terms`` maps codes to nonzero coefficients,
so equal values have equal term maps and the kernel hashes only ints.

The canonical term order is graded lexicographic with the fixed symbol order
from :mod:`fkdv.symbols`: higher total degree first, ties broken by the
exponent of the earliest symbol.  The int order of the codes is that order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm
from operator import attrgetter, mul, or_
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .symbols import ALPHABET, DEGREE_SHIFT, FIELD_BITS, MAX_DEGREE, Sym

Rat = Fraction

Coef = Union[int, Fraction]  # int when integral, see the module docstring
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
    """The canonical coefficient: an int when ``v`` is integral, else the
    Fraction itself; floats and other types raise TypeError."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"expected rational, got {type(v).__name__}")


def _accumulate(acc: dict[int, Coef], left: Iterable, right: list[tuple[int, Coef]]) -> None:
    """acc += left * right over (code, coefficient) pairs."""
    get = acc.get
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _cleared(terms: Mapping[int, Coef]) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(code, L * c)]) over the terms, L the lcm of their denominators."""
    clear = lcm(*[c.denominator for c in terms.values()])
    return clear, [(k, c.numerator * (clear // c.denominator)) for k, c in terms.items()]


def _accumulate_cleared(
    acc: dict[int, int], den: int, clear: int, left: list[tuple[int, int]],
    right: Mapping[int, Coef],
) -> int:
    """Add den * (left / clear) * right to acc, which holds den times a sum,
    in ints; returns the new den.  ``left`` is ints over ``clear`` (see
    _cleared) and right is cleared here, so the product's denominator d is
    clear times the lcm of right's.  When d does not divide den, den grows
    to lcm(den, d) and acc is rescaled."""
    lr, right = _cleared(right)
    d = clear * lr
    if den % d:
        grow = d // gcd(den, d)
        for k in acc:
            acc[k] *= grow
        den *= grow
    if den != d:
        scale = den // d
        left = [(k, c * scale) for k, c in left]
    _accumulate(acc, left, right)
    return den


class MPoly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    # _syms caches symbols() and _exact the form Point evaluates
    __slots__ = ("terms", "_hash", "_ascii", "_syms", "_exact")

    def __init__(self, terms: Mapping[int, Coef] | None = None):
        # keys are codes from monomial()
        self.terms: dict[int, Coef] = {}
        if terms:
            for k, c in terms.items():
                c = _as_rat(c)
                if c != 0:
                    self.terms[k] = c
        self._hash = self._ascii = self._syms = self._exact = None

    @classmethod
    def _raw(cls, terms: dict[int, Coef]) -> "MPoly":
        # internal: takes ownership, trusts no zero coefficients
        self = object.__new__(cls)
        self.terms = terms
        self._hash = self._ascii = self._syms = self._exact = None
        return self

    @classmethod
    def _from_codes(cls, acc: dict[int, Coef], den: int = 1) -> "MPoly":
        # internal: the nonzero terms of a code-keyed sum, each divided by
        # den.  The largest code is checked: in a product it is a term of
        # top degree, which never cancels
        _checked(max(acc, default=0))
        if den == 1:
            return cls._raw({k: c for k, c in acc.items() if c})
        return cls._raw(
            {k: c // den if not c % den else Fraction(c, den) for k, c in acc.items() if c}
        )

    @classmethod
    def zero(cls) -> "MPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "MPoly":
        c = _as_rat(c)
        return cls._raw({} if c == 0 else {0: c})

    @classmethod
    def var(cls, s: Sym) -> "MPoly":
        return cls._raw({_DEG1 + (1 << s.shift): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: Coeffable) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return MPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Coeffable) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: Coeffable) -> "MPoly":
        return (-self) + other

    def __mul__(self, other: Coeffable) -> "MPoly":
        # isinstance with MPoly first: with Fraction, an ABC, it costs a
        # Python-level __instancecheck__ call on every polynomial product
        if not isinstance(other, MPoly):
            other = _as_rat(other)
            if other == 0:
                return MPoly.zero()
            return MPoly._raw({k: c * other for k, c in self.terms.items()})
        acc: dict[int, Coef] = {}
        try:
            # gcd rejects a Fraction; the leading 1 spares it any arithmetic
            gcd(1, *self.terms.values(), *other.terms.values())
        except TypeError:
            den = _accumulate_cleared(acc, 1, *_cleared(self.terms), other.terms)
            return MPoly._from_codes(acc, den)
        _accumulate(acc, self.terms.items(), list(other.terms.items()))
        return MPoly._from_codes(acc)

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, products: Iterable[Sequence["MPoly"]]) -> "MPoly":
        """The sum of the products of the nonempty factor sequences; each
        product's last multiplication goes straight into one term map, in
        ints over a common denominator once a Fraction occurs."""
        acc: dict[int, Coef] = {}
        den = 1  # acc holds den times the sum
        for *head, last in products:
            left = reduce(mul, head).terms if head else {0: 1}
            try:  # gcd(1, ...) is 1, or rejects a Fraction: see __mul__
                ints = den == 1 and gcd(1, *left.values(), *last.terms.values())
            except TypeError:
                ints = False
            if ints:
                _accumulate(acc, left.items(), list(last.terms.items()))
            else:
                den = _accumulate_cleared(acc, den, *_cleared(left), last.terms)
        return cls._from_codes(acc, den)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        _checked(self.degree() * n << DEGREE_SHIFT)
        if not n:
            return MPoly.const(1)
        if n > 1 and len(self.terms) == 1:
            # a monomial: its code times n, its coefficient to the n
            ((k, c),) = self.terms.items()
            return MPoly._raw({k * n: _as_rat(c**n)})
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
        candidates: dict[int, Coef] = {}
        others = 0
        for k, c in self.terms.items():
            if k >> DEGREE_SHIFT == 1:
                candidates[k & _EXPS] = c
            else:
                others |= k
        return {
            _BY_FIELD[(bit.bit_length() - 1) // FIELD_BITS]: c
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
        return Fraction(self.terms[0])

    def coefficient_of(self, s: Sym, power: int) -> "MPoly":
        """Polynomial coefficient of s**power (s removed from the monomials)."""
        drop = power * ((1 << s.shift) + _DEG1)
        out = {k - drop: c for k, c in self.terms.items() if (k >> s.shift) & _FIELD == power}
        return MPoly._raw(out)

    def split(self, syms: Sequence[Sym]) -> dict[tuple[int, ...], "MPoly"]:
        """Coefficients by the exponents of ``syms``: self is the sum over
        the keys of coefficient * prod(s**e for s, e in zip(syms, key))."""
        mask = sum(_FIELD << s.shift for s in syms)
        # group the terms by their fields of syms, taking off each term's
        # fields and their degree as it is grouped
        groups: dict[int, tuple[int, dict[int, Coef]]] = {}
        for k, c in self.terms.items():
            picked = k & mask
            try:
                drop, terms = groups[picked]
            except KeyError:
                degree = sum((picked >> s.shift) & _FIELD for s in syms)
                drop, terms = groups[picked] = (picked + degree * _DEG1, {})
            terms[k - drop] = c
        return {
            tuple((picked >> s.shift) & _FIELD for s in syms): MPoly._raw(terms)
            for picked, (_, terms) in groups.items()
        }

    def max_exponent(self, s: Sym) -> int:
        return max(((k >> s.shift) & _FIELD for k in self.terms), default=0)

    def _content(self) -> tuple[int, int | None]:
        # (gcd of the numerators, lcm of the denominators) is the content in
        # lowest terms, as every coefficient is in lowest terms; the lcm is
        # None when every coefficient is an int
        try:
            return gcd(*self.terms.values()), None
        except TypeError:  # gcd rejects a Fraction
            num, den = 0, 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return num, den

    def content(self) -> Fraction:
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        num, den = self._content()
        return Fraction(num, den or 1)

    def normalize(self) -> "MPoly":
        """Divide by the positive content and make the leading coefficient
        positive, giving coprime int coefficients.  Idempotent: a normal
        polynomial is returned itself; preserves the zero set exactly."""
        if not self.terms:
            return self
        num, den = self._content()
        if self.terms[max(self.terms)] < 0:
            num = -num
        if den is None:
            if num == 1:
                return self
            out = MPoly._raw({k: c // num for k, c in self.terms.items()})
        else:
            # c * den / num is an integer: num divides every numerator
            out = MPoly._raw(
                {k: c.numerator * (den // c.denominator) // num for k, c in self.terms.items()}
            )
        out._syms = self._syms  # same monomials
        return out

    def substitute(self, bind: Mapping[Sym, Coeffable]) -> "MPoly":
        """Homomorphic substitution; unbound symbols remain."""
        syms = self.symbols()
        if len(bind) == 1:
            # one symbol bound to a rational, the solver's every call: each
            # power of the value is computed once, each term rewritten once
            ((s, v),) = bind.items()
            if s not in syms:
                return self
            if not isinstance(v, MPoly):
                v, shift, touched = _as_rat(v), s.shift, _FIELD << s.shift
                if not v:
                    return MPoly._raw({k: c for k, c in self.terms.items() if not k & touched})
                step, powers = (1 << shift) + _DEG1, [1, v]
                acc = {}
                get = acc.get
                for k, c in self.terms.items():
                    if k & touched:
                        e = k >> shift & _FIELD
                        while len(powers) <= e:
                            powers.append(powers[-1] * v)
                        k -= e * step
                        c *= powers[e]
                    acc[k] = get(k, 0) + c
                return MPoly._from_codes(acc)
        bind = {
            s: v if isinstance(v, MPoly) else _as_rat(v)
            for s, v in bind.items()
            if s in syms
        }
        if not bind:
            return self
        touched = 0
        for s in bind:
            touched |= _FIELD << s.shift
        # a polynomial value keeps its powers in one row per call: e -> v**e
        bound = [(s.shift, (1 << s.shift) + _DEG1, v, {}) for s, v in bind.items()]
        acc: dict[int, Coef] = {}
        get = acc.get
        for k, c in self.terms.items():
            if not k & touched:
                acc[k] = get(k, 0) + c
                continue
            factors: list[MPoly] = []
            for shift, step, v, powers in bound:
                e = (k >> shift) & _FIELD
                if not e:
                    continue
                k -= e * step
                if isinstance(v, MPoly):
                    if e not in powers:
                        powers[e] = v**e
                    factors.append(powers[e])
                else:
                    c = c * v**e
            if not c:
                continue
            if factors:
                _accumulate(acc, [(k, c)], list(reduce(mul, factors).terms.items()))
            else:
                acc[k] = get(k, 0) + c
        return MPoly._from_codes(acc)

    def derive(self, rules: Mapping[Sym, "MPoly"]) -> "MPoly":
        """The derivation sending each symbol in ``rules`` to its rule and
        every other symbol to 0: the sum over s of (d/ds self) * rules[s]."""
        acc: dict[int, Coef] = {}
        den = 1  # as in sum_of_products
        try:
            gcd(1, *self.terms.values())  # see __mul__
            clear, terms = 1, self.terms.items()
        except TypeError:
            clear, terms = _cleared(self.terms)
        for s, rule in rules.items():
            shift = s.shift
            step = (1 << shift) + _DEG1
            partial = []
            for k, c in terms:
                e = (k >> shift) & _FIELD
                if e:
                    partial.append((k - step, c * e))
            try:  # as in sum_of_products
                ints = den == clear == 1 and gcd(1, *rule.terms.values())
            except TypeError:
                ints = False
            if ints:
                _accumulate(acc, partial, list(rule.terms.items()))
            else:
                den = _accumulate_cleared(acc, den, clear, partial, rule.terms)
        return MPoly._from_codes(acc, den)

    def eval_rat(self, point: Mapping[Sym, Coeffable]) -> Fraction:
        """Exact evaluation; every symbol must be bound to a rational (see
        :class:`Point`)."""
        at = Point(point, self.symbols())
        return Fraction(at.scaled(self), at.denominator(self))

    def _exact_form(self) -> tuple[int, int, Mapping[int, Coef]]:
        # (L, d, {code: L * c}): L the lcm of the coefficient denominators
        # and d the total degree; the map is terms itself when L is 1.
        # Computed once.  A term's exponents are decoded when it is
        # evaluated, through exps_of: decoding every term here would also
        # decode those the zero skip never reaches
        if self._exact is None:
            clear = lcm(*[c.denominator for c in self.terms.values()])
            d = max(self.degree(), 0)
            self._exact = (clear, d, self.terms if clear == 1 else {
                k: c.numerator * (clear // c.denominator) for k, c in self.terms.items()
            })
        return self._exact

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
            coeffs[e] = coeffs.get(e, 0) + c
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
        out: dict[int, Coef] = {}
        for k, c in self.terms.items():
            for shift, e in fields:
                if (k >> shift) & _FIELD < e:
                    raise ValueError(f"{_ascii_mono(g)} does not divide {_ascii_mono(k)}")
            out[k - g] = c
        return MPoly._raw(out)

    def ascii(self) -> str:
        """Canonical ASCII form: graded-lex descending, ``^`` powers,
        ``*`` products.  Bit-stable for equal polynomials; computed once."""
        if self._ascii is None:
            self._ascii = self._render(str, _ascii_mono, "*")
        return self._ascii

    __str__ = ascii

    def __repr__(self) -> str:
        return f"MPoly({self.ascii()})"

    def latex(self) -> str:
        return self._render(_latex_coef, _latex_mono, " ")

    def _render(self, coef, mono, times: str) -> str:
        # the terms in graded-lex descending order, each as its sign and
        # coef(|c|) times mono(code); a unit factor is left out
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items(), reverse=True):
            mag = -c if c < 0 else c
            if not k:
                body = coef(mag)
            elif mag == 1:
                body = mono(k)
            else:
                body = f"{coef(mag)}{times}{mono(k)}"
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        text = "".join(parts)
        # the first term's sign takes no spaces, and a plus sign none at all
        return text[3:] if text[1] == "+" else "-" + text[3:]


class Point:
    """A rational point at which many polynomials are evaluated exactly.

    With D the common denominator of the bound values, each value is N/D,
    and a term of degree k of a polynomial of total degree d is scaled by
    D**(d - k); L clears the polynomial's coefficient denominators, so its
    value is an int sum over L * D**d.  The point fixes D and each N once;
    the tables N**e and D**j grow when a term first needs them, and a term
    with a symbol bound to 0 is skipped.  Only the values of ``syms`` are
    read, so an entry for another symbol is ignored; a missing one raises
    KeyError naming the least such symbol."""

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
        """The integer L * D**d * p(point): 0 exactly where p vanishes."""
        _, d, terms = p._exact_form()
        powers, zero, scale = self.powers, self.zero, self.scale
        while len(scale) <= d:
            scale.append(scale[-1] * scale[1])
        total = 0
        for k, v in terms.items():
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
        """L * D**d, so p(point) is ``scaled(p)`` over it."""
        clear, d, _ = p._exact_form()
        return clear * self.scale[1] ** d


@lru_cache(maxsize=1 << 12)
def _ascii_mono(k: int) -> str:
    """The text of a monomial code; memoized like exps_of, as equal terms
    recur across the polynomials a solve renders."""
    text = "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in _decode(k & _EXPS))
    return text or "1"


def _latex_mono(k: int) -> str:
    return " ".join(s.latex() if e == 1 else f"{s.latex()}^{{{e}}}" for s, e in _decode(k & _EXPS))


def _latex_coef(c: Coef) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


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


# a token (ASCII digits, a name of ASCII letters, digits and "_" that starts
# with a letter, or an operator), else a run of ASCII whitespace (what
# str.isspace accepts below 128), else any other character, which is bad
_TOKENS = re.compile(r"([0-9]+|[A-Za-z][A-Za-z0-9_]*|[-+*^()/])|[\t-\r\x1c-\x20]+|(.)")


class _Parser:
    """Recursive-descent parser for the canonical ASCII polynomial form.

    Every factor is an MPoly, so products and powers are the kernel's own
    ``*`` and ``**`` with their degree checks; a sum adds its terms into
    one code-keyed dict."""

    def __init__(self, text: str):
        self.tokens: list[str | None] = self._tokenize(text) + [None]  # None ends the text
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        out: list[str] = []
        for tok, bad in _TOKENS.findall(text):
            if bad:
                raise ValueError(f"bad character {bad!r} in polynomial text")
            if tok:
                out.append(tok)
        return out

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse(self) -> MPoly:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens at {self.peek()!r}")
        return p

    def signs(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign

    def expr(self) -> MPoly:
        acc: dict[int, Coef] = {}
        while True:
            sign = self.signs()
            for k, c in self.term().terms.items():
                acc[k] = acc.get(k, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return MPoly(acc)

    def term(self) -> MPoly:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> MPoly:
        f = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"expected integer exponent, got {tok!r}")
            f = f ** int(tok)
        return f

    def atom(self) -> MPoly:
        """A number, a symbol or a parenthesized sum; a unary minus binds
        here, before ``^``."""
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return p
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            if self.peek() != "/":
                return MPoly.const(int(tok))
            self.take()
            den = self.take()
            if not den.isdigit() or int(den) == 0:
                raise ValueError(f"expected nonzero integer denominator, got {den!r}")
            return MPoly.const(Fraction(int(tok), int(den)))
        return MPoly.var(Sym(tok))


def parse_poly(text: str) -> MPoly:
    """Parse the ASCII polynomial grammar (integers, rationals ``n/d``,
    symbols, ``+ - * ^`` and parentheses)."""
    return _Parser(text).parse()

