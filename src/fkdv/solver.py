"""Rational branch solver for the extracted polynomial systems.

The solver explores a case tree over exact rational assignments.  At each
node it substitutes what is known, drops vanished equations, and flags any
surviving nonzero constant as a contradiction, which reports its bindings
only.  Otherwise it applies the first available move:

1. branch on the rational roots of the best univariate equation
   (lowest degree, then fewest terms, then symbol order); the factor left
   after dividing the roots out, if any, ends in a stuck leaf;
2. eliminate a symbol that occurs linearly with a constant coefficient
   (fewest terms, lowest degree, symbol order, then working order), and
   resolve it to a rational once the remaining symbols are pinned;
3. split on a common monomial factor: each variable in the factor to zero,
   plus the cofactor branch.

Every symbol in a node's equations and recorded eliminations is still
open, neither bound nor eliminated: the presets are substituted at the root, and
each binding and each elimination into every equation and every recorded
elimination.  So the moves take any symbol they find, and an elimination
is resolved exactly when its expression is constant.

Every discarded case surfaces as a contradiction or stuck leaf; nothing is
dropped silently.  Each distinct leaf is reported once: a leaf equal to one
already found is not added again, and a node equal to one already explored
is skipped when the budget allows its subtree to finish again, as that
subtree's leaves are already found.  Output order is canonical regardless of
exploration order, and every solved point is re-verified against the
original system, once, before it is returned.

Within one solve the tree runs on records.  Each polynomial is interned by
value into one ``_Eq`` record, whose identity, hashed in C, stands for the
value, so a node's equations, eliminations and memo key are records,
symbols and the bindings as (symbol, numerator, denominator).  What the
moves read off a polynomial sits on its record, computed once per solve:
zero, constant or normal form; a normal form's working-order key and its
univariate coefficients or best linear pivot; and, when a move first needs
them, move 1's roots and leftover factor, the monomial gcd and its
cofactor.  Each substitution of a record under one binding is computed
once too.  All of it sits on one ``_Tree`` per solve, and no record refers
to itself, so reference counting frees the lot when solve returns or
raises.  As a solve makes no reference cycles, it pauses the cyclic garbage
collector, which could only scan what it builds, and restores the caller's
setting when it returns or raises.  The pause is process-wide; fkdv is
single-threaded.

A solve's leaves also give those at scaled presets: ``scale_leaves`` maps
them to every scale it is given, polynomial by polynomial, by the scaling
symmetry of a weighted-homogeneous system.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from .errors import InternalInvariantError, UnboundSymbolError
from .poly import MPoly, Point, _pseudo_divmod, exps_of, monomial, rational_roots
from .symbols import Sym

SOLVED = "solved"
FREE = "solved_with_free_symbols"
CONTRADICTION = "contradiction"
STUCK = "stuck"


class Assignment:
    """Immutable map from symbols to exact rationals."""

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[Sym, Fraction | int] | None = None):
        self._map = {s: Fraction(v) for s, v in (bindings or {}).items()}

    @classmethod
    def _trusted(cls, values: dict[Sym, Fraction]) -> "Assignment":
        # internal: takes ownership of a map whose values are all Fractions
        out = object.__new__(cls)
        out._map = values
        return out

    def merged(self, other: "Assignment") -> "Assignment":
        out = Assignment._trusted(dict(self._map))
        for s, v in other._map.items():
            if s in out._map:
                raise ValueError(f"{s} bound twice")
            out._map[s] = v
        return out

    def __contains__(self, s: Sym) -> bool:
        return s in self._map

    def __getitem__(self, s: Sym) -> Fraction:
        return self._map[s]

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Assignment) and self._map == other._map

    def items(self) -> list[tuple[Sym, Fraction]]:
        return sorted(self._map.items(), key=lambda sv: sv[0].key)

    def as_dict(self) -> dict[Sym, Fraction]:
        return dict(self._map)

    def __repr__(self) -> str:
        body = ", ".join(f"{s}={v}" for s, v in self.items())
        return f"Assignment({body})"


class Branch(NamedTuple):
    """One leaf of the case tree.  Its witness and its remaining
    polynomials, the equations and then the pending eliminations x - e, are
    normal forms; a contradiction has neither."""

    assignment: Assignment
    remaining: tuple[MPoly, ...]
    status: str
    free_symbols: tuple[Sym, ...] = ()
    witness: MPoly | None = None

    def sort_key(self):
        """The canonical output order."""
        rank = (SOLVED, FREE, CONTRADICTION, STUCK).index(self.status)
        binds = tuple((s.name, str(v)) for s, v in self.assignment.items())
        wit = self.witness.ascii() if self.witness is not None else ""
        rem = tuple(p.ascii() for p in self.remaining)
        return (rank, binds, wit, rem)


class _SolveFields(NamedTuple):
    unknowns: tuple[Sym, ...]
    presets: Assignment
    branch_budget: int


class SolveConfig(_SolveFields):
    __slots__ = ()

    # an Assignment is immutable, so the default presets are shared
    def __new__(cls, unknowns, presets=Assignment(), branch_budget=10000):
        unknowns = tuple(unknowns)
        overlap = [s for s in unknowns if s in presets]
        if overlap:
            raise ValueError(f"presets and unknowns overlap: {overlap}")
        if branch_budget < 1:
            raise ValueError("branch budget must be positive")
        return super().__new__(cls, unknowns, presets, branch_budget)

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, and _replace through it, would skip the checks
        return cls(*iterable)


def verify_assignment(
    system: Sequence[MPoly], asg: Assignment | Mapping[Sym, Fraction | int]
) -> tuple[bool, MPoly | None]:
    """True iff every polynomial vanishes exactly under the assignment.

    The assignment must bind every symbol of the system; its values are
    converted once, to one :class:`Point` shared by every polynomial, and
    each polynomial's int sum is tested against 0.  The first failing
    polynomial is returned as the witness on False.
    """
    point = asg.as_dict() if isinstance(asg, Assignment) else asg
    for p in system:
        missing = [s for s in p.symbols() if s not in point]
        if missing:
            raise UnboundSymbolError(min(missing, key=lambda t: t.key))
    at = Point(point, frozenset().union(*[p.symbols() for p in system]))
    for p in system:
        if at.scaled(p):
            return False, p
    return True, None


class _Node:
    # bkey holds the bindings as (symbol, numerator, denominator); esyms and
    # eexprs the eliminations x -> expr in insertion order; eexprs and eqs
    # are records
    __slots__ = ("bkey", "esyms", "eexprs", "eqs")

    def __init__(self, bkey, esyms, eexprs, eqs):
        self.bkey: frozenset[tuple[Sym, int, int]] = bkey
        self.esyms: tuple[Sym, ...] = esyms
        self.eexprs: tuple[_Eq, ...] = eexprs
        self.eqs: list[_Eq] = eqs


_ZERO = Fraction(0)
# a record's norm when it is not another record: the polynomial is zero, a
# nonzero constant or its own normal form
_VANISHED, _CONSTANT, _NORMAL = object(), object(), object()


class _Text:
    """A polynomial that sorts by its canonical text, rendered only when a
    comparison reaches it; distinct records never share a text."""

    __slots__ = ("p",)

    def __init__(self, p: MPoly):
        self.p = p

    def __lt__(self, other: "_Text") -> bool:
        return self.p.ascii() < other.p.ascii()


def _poly_key(p: MPoly):
    return (p.degree(), len(p.terms), _Text(p))


def _common_factor(eqs: Sequence) -> tuple | None:
    """The first of ``eqs``, polynomials or records, with a non-unit
    monomial gcd, and that gcd's code.  On a list sorted by _poly_key and
    deduplicated it has the least key."""
    for p in eqs:
        g = p.monomial_gcd()
        if g:
            return p, g
    return None


class _Eq:
    """One interned polynomial ``p`` of a solve and the facts the moves read
    off it.  ``norm``, None until explore first needs it, is the record of
    the normal form, _VANISHED, _CONSTANT or _NORMAL.  A normal form gets its
    working-order ``key`` and move 1's ``uni`` (key, symbol, coefficients)
    or move 2's ``pivot`` (key, symbol, coefficient; a tie falls to the
    working order) at once.  Move 1's ``roots``, the factor ``left`` after
    them, the monomial ``gcd`` code and the ``cofactor`` record of p divided
    by it come when a move first needs them."""

    __slots__ = ("p", "norm", "key", "uni", "pivot", "roots", "left", "gcd", "cofactor")

    def __init__(self, p: MPoly):
        self.p = p
        self.norm = self.key = self.uni = self.pivot = None
        self.roots = self.left = self.gcd = self.cofactor = None

    def make_normal(self) -> None:
        p = self.p
        self.norm = _NORMAL
        self.key = _poly_key(p)
        if len(p.symbols()) == 1:
            (x,) = p.symbols()
            self.uni = (p.degree(), len(p.terms), x.key), x, p.as_univariate(x)
        elif pivots := p.linear_pivots():
            # move 1 wins over move 2 wherever a univariate equation is
            x = min(pivots, key=lambda s: s.key)
            self.pivot = (len(p.terms), p.degree(), x.key), x, pivots[x]

    def monomial_gcd(self) -> int:
        if self.gcd is None:
            self.gcd = self.p.monomial_gcd()
        return self.gcd


_working_order = attrgetter("key")


class _Tree:
    """One solve: the budget, the distinct leaves, the memo and the tables
    eqs and images.  Nothing refers back to it, so it is freed when solve
    returns or raises."""

    def __init__(self, cfg: SolveConfig):
        self.cfg = cfg
        self.budget = cfg.branch_budget
        # sort key -> leaf; equal keys are equal leaves, kept once
        self.leaves: dict[tuple, Branch] = {}
        # node state -> nodes used by its finished subtree
        self.memo: dict[tuple, int] = {}
        # eqs maps a polynomial to its record; images a binding, (symbol,
        # numerator, denominator) or (symbol, record), to {record: record of
        # its image}
        self.eqs: dict[MPoly, _Eq] = {}
        self.images: dict[tuple, dict[_Eq, _Eq]] = {}

    def intern(self, p: MPoly) -> _Eq:
        q = self.eqs.get(p)
        if q is None:
            q = self.eqs[p] = _Eq(p)
        return q

    def mapped(self, key: tuple, s: Sym, v: Fraction | MPoly, qs: list[_Eq]) -> list[_Eq]:
        """The records of qs with s bound to v; key names the binding."""
        cache = self.images.setdefault(key, {})
        out = list(map(cache.get, qs))
        if None in out:
            bind = {s: v}
            for i, r in enumerate(out):
                if r is None:
                    q = qs[i]
                    out[i] = cache[q] = self.intern(q.p.substitute(bind))
        return out

    def normal(self, q: _Eq):
        """Set and return q's norm."""
        p = q.p
        if not p:
            q.norm = _VANISHED
        elif p.is_constant():
            q.norm = _CONSTANT
        else:
            n = self.intern(p.normalize())
            if n.norm is None:
                n.make_normal()
            if n is not q:
                q.norm = n
        return q.norm

    def branch_on(self, q: _Eq) -> None:
        """Set move 1's roots of q and the normal factor left after them."""
        _, x, coeffs = q.uni
        q.roots = roots = sorted(rational_roots(coeffs))
        for root in roots:
            # divide d*x - n out while it divides: by Gauss's lemma an empty
            # remainder leaves the exact, integral quotient
            while not (div := _pseudo_divmod(coeffs, [-root.numerator, root.denominator]))[1]:
                coeffs = div[0]
        if not roots:
            q.left = q.p
        elif len(coeffs) > 1:
            q.left = MPoly({monomial([(x, i)]): c for i, c in enumerate(coeffs)}).normalize()

    def finish(self, node: _Node, status: str, witness: MPoly | None = None) -> None:
        # eliminations hold only open symbols (module docstring); most
        # bindings are 0, which share one Fraction
        resolved = {s: Fraction(n, d) if n else _ZERO for s, n, d in node.bkey}
        pending = []
        for x, e in zip(reversed(node.esyms), reversed(node.eexprs)):
            if e.p.is_constant():
                resolved[x] = e.p.constant_value()
            elif status != CONTRADICTION:
                # x - e as a record, so each is normalized once per solve
                q = self.intern(MPoly.var(x) - e.p)
                pending.append(q.p if (q.norm or self.normal(q)) is _NORMAL else q.norm.p)
        # a contradiction reports its bindings only, a solved or stuck leaf
        # also what it still depends on
        remaining = () if status == CONTRADICTION else (*[q.p for q in node.eqs], *pending)
        free: tuple[Sym, ...] = ()
        if status == SOLVED:
            # a pending symbol is unresolved, so it is among the free ones
            free = tuple(s for s in self.cfg.unknowns if s not in resolved)
            if free:
                status = FREE
        leaf = Branch(Assignment._trusted(resolved), remaining, status, free, witness)
        self.leaves.setdefault(leaf.sort_key(), leaf)

    def substituted(self, node: _Node, s: Sym, v: Fraction, eqs: list[_Eq]) -> _Node:
        key = (s, v.numerator, v.denominator)
        out = self.mapped(key, s, v, [*node.eexprs, *eqs])
        k = len(node.eexprs)
        return _Node(node.bkey.union((key,)), node.esyms, tuple(out[:k]), out[k:])

    def explore(self, node: _Node) -> None:
        self.budget -= 1
        found = []
        for q in node.eqs:
            n = q.norm or self.normal(q)
            if n is _NORMAL:
                found.append(q)
            elif n is _CONSTANT:
                self.finish(node, CONTRADICTION)
                return
            elif n is not _VANISHED:
                found.append(n)
        # deterministic working order, and deduplicate repeated equations in
        # insertion order, so the sort's comparisons do not follow addresses
        eqs = sorted(dict.fromkeys(found), key=_working_order)
        node.eqs = eqs

        # The redundant splits of move 3 reach equal nodes along several
        # paths.  A finished subtree is skipped, with its nodes charged to
        # the budget, when exploring it again could not run out of budget:
        # its k-th node would see the entry budget minus k, so an entry
        # budget above the nodes it used finds the same leaves, which are
        # already found.  A subtree that did run out is explored again, as
        # the budget stays spent.
        key = (node.bkey, node.esyms, node.eexprs, tuple(eqs))
        used = self.memo.get(key)
        if used is not None and self.budget >= used:
            self.budget -= used - 1
            return
        entry = self.budget + 1
        self.expand(node, eqs)
        self.memo[key] = entry - self.budget

    def expand(self, node: _Node, eqs: list[_Eq]) -> None:
        if not eqs:
            self.finish(node, SOLVED)
            return
        if self.budget <= 0:
            self.finish(node, STUCK, witness=eqs[0].p)
            return

        # move 1: univariate root branching
        found = [q for q in eqs if q.uni is not None]
        if found:
            q = min(found, key=lambda q: q.uni[0])
            if q.roots is None:
                self.branch_on(q)
            for root in q.roots:
                self.explore(self.substituted(node, q.uni[1], root, eqs))
            if q.left is not None:
                self.finish(node, STUCK, witness=q.left)
            return

        # move 2: linear elimination with a constant coefficient
        found = [q for q in eqs if q.pivot is not None]
        if found:
            q = min(found, key=lambda q: q.pivot[0])
            _, x, c = q.pivot
            # p = c*x + rest, so x = x - p/c; c is usually an int: divide as a Fraction
            e = self.intern(MPoly.var(x) - q.p * (Fraction(1) / c))
            out = self.mapped((x, e), x, e.p, [*node.eexprs, *eqs])
            k = len(node.eexprs)
            node.esyms += (x,)
            node.eexprs = (*out[:k], e)
            node.eqs = out[k:]
            self.explore(node)
            return

        # move 3: common monomial case split
        split = _common_factor(eqs)
        if split is not None:
            q, g = split
            rest = [r for r in eqs if r is not q]
            for s, _ in exps_of(g):
                self.explore(self.substituted(node, s, _ZERO, rest + [q]))
            if q.cofactor is None:
                q.cofactor = self.intern(q.p.divide_mono(g))
            self.explore(_Node(node.bkey, node.esyms, node.eexprs, rest + [q.cofactor]))
            return

        self.finish(node, STUCK, witness=eqs[0].p)


def solve(system: Sequence[MPoly], cfg: SolveConfig) -> list[Branch]:
    """Explore the case tree; returns its distinct leaves, sorted."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    presets = cfg.presets.as_dict()
    allowed = set(cfg.unknowns) | set(presets)
    outside = sorted(
        {s for p in system for s in p.symbols()} - allowed, key=lambda s: s.key
    )
    if outside:
        raise ValueError(f"system symbols outside unknowns and presets: {outside}")

    collecting = gc.isenabled()
    gc.disable()
    try:
        tree = _Tree(cfg)
        root = [tree.intern(p.substitute(presets)) for p in system]
        tree.explore(_Node(frozenset(), (), (), root))
        return _verified(system, [tree.leaves[k] for k in sorted(tree.leaves)], cfg.presets)
    finally:
        if collecting:
            gc.enable()


def _verified(system: list[MPoly], leaves: list[Branch], presets: Assignment) -> list[Branch]:
    """``leaves`` once each solved one is re-verified against ``system``."""
    for br in leaves:
        # distinct solved leaves are distinct points, each verified once
        if br.status == SOLVED:
            ok, bad = verify_assignment(system, br.assignment.merged(presets))
            if not ok:
                raise InternalInvariantError(f"solved branch fails re-verification on {bad}")
    return leaves


def scale_leaves(system: Sequence[MPoly], presets: Mapping[Sym, Fraction | int],
                 leaves: Sequence[Branch], weights: Mapping[Sym, int],
                 scales: Sequence[int]) -> list[list[Branch]]:
    """For each s of ``scales``, the leaves ``leaves`` of ``system`` solved
    at ``presets``, x = v, mapped to x = s**w_x * v, sorted, each solved one
    re-verified there.

    ``system`` must be weighted-homogeneous under ``weights``, checked
    exactly and once for all scales (else InternalInvariantError).  Then
    tau_s: x -> s**-w_x * x maps the case tree node by node, so each leaf
    maps polynomial by polynomial: a binding x = v becomes s**w_x * v, and
    a normal form N, witness or remaining, becomes normalize(tau_s(N)).
    The moves choose by degree, term count and symbol, which tau_s keeps,
    and break the ties left by rendered text, which it may not keep: the
    mapped leaves are those of a direct solve wherever those ties break
    alike, which the tests pin for every system reproduce solves.
    """
    system = list(system)
    if missing := set().union(*(p.symbols() for p in system)) - weights.keys():
        raise InternalInvariantError(f"no weight for {sorted(missing, key=lambda t: t.key)}")

    degrees: dict[int, int] = {}  # monomial code -> weighted degree, for the check and every scale

    def degree(code: int) -> int:
        if code not in degrees:
            degrees[code] = sum(weights[x] * e for x, e in exps_of(code))
        return degrees[code]

    for p in system:
        if len({degree(k) for k in p.terms}) > 1:
            raise InternalInvariantError(f"{p} is not weighted-homogeneous")

    lifts: dict[MPoly, list[int]] = {}  # p -> hi - degree per term, hi the highest degree
    normal: dict[tuple[MPoly, int], MPoly] = {}  # leaves share their normal forms

    def image(p: MPoly, s: int) -> MPoly:
        """normalize(tau_s(p)): the terms times the ints s**(hi - degree)."""
        if (p, s) not in normal:
            if p not in lifts:
                ds = list(map(degree, p.terms))
                lifts[p] = [max(ds) - d for d in ds]
            terms = {k: c * s**e for (k, c), e in zip(p.terms.items(), lifts[p])}
            normal[p, s] = MPoly._raw(terms).normalize()
        return normal[p, s]

    out = []
    for s in scales:
        factor = {x: Fraction(s) ** w for x, w in weights.items()}
        mapped = []
        for br in leaves:
            witness = None if br.witness is None else image(br.witness, s)
            remaining = tuple(image(p, s) for p in br.remaining)
            # x = 0 maps to itself, and most leaf bindings of the derived systems are 0
            bound = {x: v * factor[x] if v else v for x, v in br.assignment._map.items()}
            mapped.append(Branch(Assignment._trusted(bound), remaining, br.status, br.free_symbols, witness))
        scaled = Assignment._trusted({x: v * factor[x] for x, v in presets.items()})
        out.append(_verified(system, sorted(mapped, key=Branch.sort_key), scaled))
    return out
