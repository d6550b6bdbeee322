"""Sparse exact multivariate polynomials over the rationals.

A coefficient is an ``int`` when it is integral and a
:class:`fractions.Fraction` (aliased ``Rat``) otherwise, so integer
arithmetic, the common case after :meth:`MPoly.normalize`, never builds a big
rational.  Every value entering the kernel goes through :func:`_as_rat`, which
turns an integral ``Fraction`` into its ``int``; Fraction arithmetic may still
yield an integral ``Fraction``, which equals and hashes like the ``int``, and
``normalize()`` always returns coprime ``int`` coefficients.  No ``/`` runs
between two ints: an exact quotient is ``//`` by a known divisor, any other
is ``Fraction`` division.  Values handed out of the kernel
(``constant_value``, ``eval_rat``, ``content``, ``rational_roots``) are
``Fraction``.

Monomials map symbols to positive exponents; polynomials map monomials to
nonzero coefficients, so equal values always have equal term maps.

The canonical term order is graded lexicographic with the fixed symbol order
from :mod:`fkdv.symbols`: higher total degree first, ties broken by the
exponent of the earliest symbol.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .symbols import Sym

Rat = Fraction

Coef = Union[int, Fraction]  # int when integral, see the module docstring
Coeffable = Union["MPoly", Fraction, int]


class Mono:
    """A product of symbols with positive integer exponents; unit is empty."""

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps: Mapping[Sym, int] | Iterable[tuple[Sym, int]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = [(s, e) for s, e in items if e != 0]
        for s, e in cleaned:
            if e < 0:
                raise ValueError(f"negative exponent on {s}")
        cleaned.sort(key=lambda se: se[0].key)
        self.exps = tuple(cleaned)
        self.degree = sum(e for _, e in cleaned)
        self._hash = hash(self.exps)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mono) and self.exps == other.exps

    def __mul__(self, other: "Mono") -> "Mono":
        # linear merge of the two sorted exponent tuples
        a, b = self.exps, other.exps
        out: list[tuple[Sym, int]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            (sa, ea), (sb, eb) = a[i], b[j]
            if sa is sb:
                out.append((sa, ea + eb))
                i, j = i + 1, j + 1
            elif sa.key < sb.key:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return Mono._raw((*out, *a[i:], *b[j:]), self.degree + other.degree)

    @classmethod
    def _raw(cls, exps: tuple[tuple[Sym, int], ...], degree: int) -> "Mono":
        # internal: trusts sorted, positive exponents and their sum
        m = object.__new__(cls)
        m.exps = exps
        m.degree = degree
        m._hash = hash(exps)
        return m

    def __pow__(self, n: int) -> "Mono":
        if n < 0:
            raise ValueError("negative power")
        return Mono([(s, e * n) for s, e in self.exps])

    def exponent(self, s: Sym) -> int:
        for t, e in self.exps:
            if t is s:
                return e
        return 0

    def symbols(self) -> set[Sym]:
        return {s for s, _ in self.exps}

    def is_unit(self) -> bool:
        return not self.exps

    def _cmp(self, other: "Mono") -> int:
        if self.degree != other.degree:
            return -1 if self.degree < other.degree else 1
        i = j = 0
        a, b = self.exps, other.exps
        while i < len(a) and j < len(b):
            sa, ea = a[i]
            sb, eb = b[j]
            if sa is sb:
                if ea != eb:
                    return 1 if ea > eb else -1
                i += 1
                j += 1
            elif sa < sb:
                return 1  # earlier symbol with positive exponent wins
            else:
                return -1
        if i < len(a):
            return 1
        if j < len(b):
            return -1
        return 0

    def __lt__(self, other: "Mono") -> bool:
        return self._cmp(other) < 0

    def __gt__(self, other: "Mono") -> bool:
        return self._cmp(other) > 0

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in self.exps)

    __repr__ = __str__


_UNIT = Mono()


def _as_rat(v) -> Coef:
    """The canonical coefficient: an int when ``v`` is integral, else the
    Fraction itself; floats and other types raise TypeError."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"expected rational, got {type(v).__name__}")


class MPoly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    # _syms caches symbols(); _normal marks a result of normalize()
    __slots__ = ("terms", "_hash", "_ascii", "_syms", "_normal")

    def __init__(self, terms: Mapping[Mono, Coef] | None = None):
        self.terms: dict[Mono, Coef] = {}
        if terms:
            for m, c in terms.items():
                c = _as_rat(c)
                if c != 0:
                    self.terms[m] = c
        self._hash = None
        self._ascii = None
        self._syms = None
        self._normal = False

    @classmethod
    def _raw(cls, terms: dict[Mono, Coef]) -> "MPoly":
        # internal: takes ownership, trusts no zero coefficients
        self = object.__new__(cls)
        self.terms = terms
        self._hash = None
        self._ascii = None
        self._syms = None
        self._normal = False
        return self

    @classmethod
    def zero(cls) -> "MPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "MPoly":
        c = _as_rat(c)
        return cls._raw({} if c == 0 else {_UNIT: c})

    @classmethod
    def var(cls, s: Sym) -> "MPoly":
        return cls._raw({Mono([(s, 1)]): 1})

    @classmethod
    def monomial(cls, m: Mono, c=1) -> "MPoly":
        c = _as_rat(c)
        return cls._raw({} if c == 0 else {m: c})

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
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return MPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Coeffable) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: Coeffable) -> "MPoly":
        return (-self) + other

    def __mul__(self, other: Coeffable) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = _as_rat(other)
            if other == 0:
                return MPoly.zero()
            return MPoly._raw({m: c * other for m, c in self.terms.items()})
        out: dict[Mono, Coef] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = out.get(m, 0) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return MPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(1)
        for _ in range(n):
            result = result * self
        return result

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def symbols(self) -> frozenset[Sym]:
        """The symbols that occur; computed once."""
        if self._syms is None:
            self._syms = frozenset(s for m in self.terms for s, _ in m.exps)
        return self._syms

    def leading(self) -> tuple[Mono, Coef]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def sorted_terms(self) -> list[tuple[Mono, Coef]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0], reverse=True)

    def is_constant(self) -> bool:
        return all(m.is_unit() for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms[_UNIT])

    def coefficient_of(self, s: Sym, power: int) -> "MPoly":
        """Polynomial coefficient of s**power (s removed from the monomials)."""
        out: dict[Mono, Coef] = {}
        for m, c in self.terms.items():
            if m.exponent(s) == power:
                rest = Mono([(t, e) for t, e in m.exps if t is not s])
                out[rest] = out.get(rest, 0) + c
        return MPoly(out)

    def split(self, syms: Sequence[Sym]) -> dict[tuple[int, ...], "MPoly"]:
        """Coefficients by the exponents of ``syms``: self is the sum over
        the keys of coefficient * prod(s**e for s, e in zip(syms, key))."""
        parts: dict[tuple[int, ...], dict[Mono, Coef]] = {}
        for m, c in self.terms.items():
            key = tuple(m.exponent(s) for s in syms)
            # dropping symbols keeps the exponents sorted and positive
            exps = tuple((t, e) for t, e in m.exps if t not in syms)
            rest = Mono._raw(exps, m.degree - sum(key))
            parts.setdefault(key, {})[rest] = c
        return {key: MPoly._raw(terms) for key, terms in parts.items()}

    def max_exponent(self, s: Sym) -> int:
        return max((m.exponent(s) for m in self.terms), default=0)

    def _content(self) -> tuple[int, int]:
        # (gcd of the numerators, lcm of the denominators) is the content in
        # lowest terms, as every coefficient is in lowest terms
        num, den = 0, 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return num, den

    def content(self) -> Fraction:
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        return Fraction(*self._content())

    def normalize(self) -> "MPoly":
        """Divide by the positive content and make the leading coefficient
        positive, giving coprime int coefficients.  Idempotent; preserves
        the zero set exactly."""
        if self._normal or not self.terms:
            return self
        num, den = self._content()
        if self.leading()[1] < 0:
            num = -num
        if num == den == 1 and all(type(c) is int for c in self.terms.values()):
            out = self
        else:
            # c * den / num is an integer: num divides every numerator
            out = MPoly._raw(
                {m: c.numerator * (den // c.denominator) // num for m, c in self.terms.items()}
            )
            out._syms = self._syms  # same monomials
        out._normal = True
        return out

    def substitute(self, bind: Mapping[Sym, Coeffable]) -> "MPoly":
        """Homomorphic substitution; unbound symbols remain."""
        syms = self.symbols()
        bind = {
            s: v if isinstance(v, MPoly) else _as_rat(v)
            for s, v in bind.items()
            if s in syms
        }
        if not bind:
            return self
        # a binding to 0 drops every term it touches, so the terms are filtered
        zero = not any(bind.values())
        out: dict[Mono, Coef] = {}
        for m, c in self.terms.items():
            for s, _ in m.exps:
                if s in bind:
                    break
            else:
                # no binding touches the term: keep its monomial
                out[m] = out.get(m, 0) + c
                continue
            if zero:
                continue
            # dropping the bound symbols leaves the exponents sorted and
            # positive, so the residual monomial is built directly
            residual: list[tuple[Sym, int]] = []
            degree = m.degree
            factors: list[MPoly] = []
            for s, e in m.exps:
                if s not in bind:
                    residual.append((s, e))
                    continue
                degree -= e
                v = bind[s]
                if isinstance(v, MPoly):
                    factors.append(v**e)
                else:
                    c = c * v**e
            if not c:
                continue
            rm = Mono._raw(tuple(residual), degree)
            if not factors:
                out[rm] = out.get(rm, 0) + c
                continue
            term = MPoly.monomial(rm, c)
            for f in factors:
                term = term * f
            for tm, tc in term.terms.items():
                out[tm] = out.get(tm, 0) + tc
        if zero:
            return MPoly._raw(out)
        return MPoly._raw({m: c for m, c in out.items() if c != 0})

    def derive(self, rules: Mapping[Sym, "MPoly"]) -> "MPoly":
        """The derivation sending each symbol in ``rules`` to its rule and
        every other symbol to 0: the sum over s of (d/ds self) * rules[s]."""
        out = MPoly.zero()
        for s, rule in rules.items():
            partial: dict[Mono, Coef] = {}
            for m, c in self.terms.items():
                for i, (t, e) in enumerate(m.exps):
                    if t is s:
                        # lowering one exponent keeps the tuple sorted
                        lowered = ((s, e - 1),) if e > 1 else ()
                        exps = m.exps[:i] + lowered + m.exps[i + 1 :]
                        partial[Mono._raw(exps, m.degree - 1)] = c * e
                        break
            out = out + MPoly._raw(partial) * rule
        return out

    def eval_rat(self, point: Mapping[Sym, Coeffable]) -> Fraction:
        """Exact evaluation; every symbol must be bound to a rational."""
        point = {s: _as_rat(v) for s, v in point.items()}
        total: Coef = 0
        for m, c in self.terms.items():
            v = c
            for s, e in m.exps:
                if s not in point:
                    raise KeyError(f"unbound symbol {s}")
                v *= point[s] ** e
            total += v
        return Fraction(total)

    def as_univariate(self, x: Sym) -> Optional[list[Coef]]:
        """Dense coefficient list in ``x`` (ascending), or None if any other
        symbol occurs.  Constants give a single-entry list."""
        coeffs: dict[int, Coef] = {}
        for m, c in self.terms.items():
            e = m.exponent(x)
            if any(s is not x for s, _ in m.exps):
                return None
            coeffs[e] = coeffs.get(e, 0) + c
        n = max(coeffs, default=0)
        return [coeffs.get(i, 0) for i in range(n + 1)]

    def monomial_gcd(self) -> Mono:
        """Componentwise-minimum monomial dividing every term."""
        if not self.terms or _UNIT in self.terms:
            return _UNIT
        common: dict[Sym, int] | None = None
        for m in self.terms:
            exps = dict(m.exps)
            if common is None:
                common = exps
            else:
                common = {s: min(e, exps[s]) for s, e in common.items() if s in exps}
            if not common:
                return _UNIT
        return Mono(common or {})

    def divide_mono(self, g: Mono) -> "MPoly":
        """Exact division by a monomial dividing every term."""
        out: dict[Mono, Coef] = {}
        shift = dict(g.exps)
        for m, c in self.terms.items():
            exps = dict(m.exps)
            for s, e in shift.items():
                if exps.get(s, 0) < e:
                    raise ValueError(f"{g} does not divide {m}")
                exps[s] -= e
            out[Mono(exps)] = c
        return MPoly._raw(out)

    def ascii(self) -> str:
        """Canonical ASCII form: graded-lex descending, ``^`` powers,
        ``*`` products.  Bit-stable for equal polynomials; computed once."""
        if self._ascii is None:
            self._ascii = self._render_ascii()
        return self._ascii

    def _render_ascii(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            if m.is_unit():
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    __str__ = ascii

    def __repr__(self) -> str:
        return f"MPoly({self.ascii()})"

    def latex(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            if mag.denominator == 1:
                coef = str(mag.numerator)
            else:
                coef = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            mono = " ".join(
                s.latex() if e == 1 else f"{s.latex()}^{{{e}}}" for s, e in m.exps
            )
            if m.is_unit():
                body = coef
            elif mag == 1:
                body = mono
            else:
                body = f"{coef} {mono}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)


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

    With a_n the leading coefficient of the primitive integer form f of
    degree n, x = y/a_n turns f into the monic integer polynomial
    g(y) = a_n**(n-1) * f(y/a_n), whose rational roots are integers.  The
    integer roots of the square-free part of g are isolated by bisecting
    integer intervals (lo, hi] inside the Cauchy bound with a Sturm
    sequence, so the cost depends on the degree and the digit count, not
    on the size of the coefficients.  Multiplicities are not reported.
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

    # Cauchy bound (|h_n| >= 1); variations(lo) - variations(hi) counts the
    # distinct roots in (lo, hi]
    bound = 1 + max(abs(c) for c in h)
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


class _Parser:
    """Recursive-descent parser for the canonical ASCII polynomial form."""

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        out: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()/":
                out.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                out.append(text[i:j])
                i = j
            elif ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(text[i:j])
                i = j
            else:
                raise ValueError(f"bad character {ch!r} in polynomial text")
        return out

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse(self) -> MPoly:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens at {self.peek()!r}")
        return p

    def expr(self) -> MPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.term() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            p = p + self.term() * sign
        return p

    def term(self) -> MPoly:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> MPoly:
        p = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"expected integer exponent, got {tok!r}")
            p = p ** int(tok)
        return p

    def atom(self) -> MPoly:
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return p
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise ValueError(f"expected integer denominator, got {den!r}")
                return MPoly.const(Fraction(num, int(den)))
            return MPoly.const(num)
        return MPoly.var(Sym(tok))


def parse_poly(text: str) -> MPoly:
    """Parse the ASCII polynomial grammar (integers, rationals ``n/d``,
    symbols, ``+ - * ^`` and parentheses)."""
    return _Parser(text).parse()

