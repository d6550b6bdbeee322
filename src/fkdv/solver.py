"""Rational branch solver for the extracted polynomial systems.

The solver explores a case tree over exact rational assignments.  At each
node it substitutes what is known, drops vanished equations, and flags any
surviving nonzero constant as a contradiction.  Otherwise it applies the
first available move:

1. branch on the rational roots of the best univariate equation
   (lowest degree, then fewest terms, then symbol order); the factor left
   after dividing the roots out, if any, ends in a stuck leaf;
2. eliminate a symbol that occurs linearly with a constant coefficient,
   recording the dependency and resolving it to a rational once the
   remaining symbols are pinned;
3. split on a common monomial factor: each variable in the factor to zero,
   plus the cofactor branch.

Every symbol in a node's equations and recorded eliminations is still
open, neither bound nor eliminated: the presets are substituted at the root, and
each binding and each elimination into every equation and every recorded
elimination.  So the moves take any symbol they find, and an elimination
is resolved exactly when its expression is constant.

Every discarded case surfaces as a contradiction or stuck leaf; nothing is
dropped silently.  A node equal to one already explored replays that
subtree's leaves when the budget allows it to finish again.  Output order is
canonical regardless of exploration order, and every solved point is
re-verified against the original system, once, before it is returned.

Within one solve the tree runs on records.  Each polynomial is interned by
value into one ``_Eq`` record, whose identity, hashed in C, stands for the
value, so a node's equations, eliminations and memo key are records,
symbols and the bindings as (symbol, numerator, denominator).  What the
moves read off a polynomial sits on its record, computed once per solve:
zero, constant or normal form; a normal form's working-order key and its
univariate coefficients or best linear pivot; and, when a move first needs
them, move 1's roots and leftover factor, the monomial gcd and its
cofactor.  Each substitution of a record under one binding is computed
once too, and each move-1 root set once per coefficient list.  All of it
sits on one ``_Tree`` per solve, and no record refers to itself, so
reference counting frees the lot when solve returns or raises.  As a solve
makes no reference cycles, it pauses the cyclic garbage collector, which
could only scan what it builds, and restores the caller's setting when it
returns or raises.  The pause is process-wide; fkdv is single-threaded.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import InternalInvariantError, UnboundSymbolError
from .poly import MPoly, Point, exps_of, monomial, rational_roots
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


@dataclass(frozen=True)
class Branch:
    """One leaf of the case tree."""

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


@dataclass(frozen=True)
class SolveConfig:
    unknowns: tuple[Sym, ...]
    presets: Assignment = field(default_factory=Assignment)
    branch_budget: int = 10000

    def __post_init__(self):
        object.__setattr__(self, "unknowns", tuple(self.unknowns))
        overlap = [s for s in self.unknowns if s in self.presets]
        if overlap:
            raise ValueError(f"presets and unknowns overlap: {overlap}")
        if self.branch_budget < 1:
            raise ValueError("branch budget must be positive")


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
    __slots__ = ("bindings", "bkey", "esyms", "eexprs", "eqs")

    def __init__(self, bindings, bkey, esyms, eexprs, eqs):
        self.bindings: dict[Sym, Fraction] = bindings
        self.bkey: frozenset[tuple[Sym, int, int]] = bkey
        self.esyms: tuple[Sym, ...] = esyms
        self.eexprs: tuple[_Eq, ...] = eexprs
        self.eqs: list[_Eq] = eqs


_ZERO = Fraction(0)
# a record's norm when it is not another record: the polynomial is zero, a
# nonzero constant or its own normal form
_VANISHED, _CONSTANT, _NORMAL = object(), object(), object()


def _deflate(coeffs: list[int], root: Fraction) -> list[int]:
    """Ascending integer coefficients divided by (d*x - n), root = n/d, as
    often as it divides.  By Gauss's lemma the quotient of an integer
    polynomial by a primitive integer factor is integral, so the first
    inexact step proves that the factor does not divide."""
    n, d = root.numerator, root.denominator
    while True:
        quotient, carry = [], 0
        for c in reversed(coeffs[1:]):
            carry, rem = divmod(c + n * carry, d)
            if rem:
                return coeffs
            quotient.append(carry)
        if coeffs[0] + n * carry:
            return coeffs
        coeffs = quotient[::-1]


class _Text:
    """A polynomial that compares by its canonical text, rendered only when
    a comparison reaches it."""

    __slots__ = ("p",)

    def __init__(self, p: MPoly):
        self.p = p

    def __eq__(self, other: "_Text") -> bool:
        return self.p.ascii() == other.p.ascii()

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
    or move 2's ``pivot`` (key, symbol, coefficient) at once.  Move 1's
    ``roots`` and the factor ``left`` after them, the monomial ``gcd`` code
    and the ``cofactor`` record of p divided by it come when a move first
    needs them."""

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
            self.pivot = (len(p.terms), p.degree(), x.key, _Text(p)), x, pivots[x]

    def monomial_gcd(self) -> int:
        if self.gcd is None:
            self.gcd = self.p.monomial_gcd()
        return self.gcd


_working_order = attrgetter("key")


class _Tree:
    """One solve: the budget, the leaves, the memo, the verified points and
    the tables eqs, images and root_sets.  Nothing refers back to it, so it
    is freed when solve returns or raises."""

    def __init__(self, system: list[MPoly], cfg: SolveConfig):
        self.system = system
        self.cfg = cfg
        self.budget = cfg.branch_budget
        self.leaves: list[Branch] = []
        # node state -> (first leaf, end leaf, nodes used) of a finished subtree
        self.memo: dict[tuple, tuple[int, int, int]] = {}
        self.verified: set[frozenset] = set()
        # eqs maps a polynomial to its record; images a binding, (symbol,
        # numerator, denominator) or (symbol, record), to {record: record of
        # its image}; root_sets a coefficient list to its sorted rational roots
        self.eqs: dict[MPoly, _Eq] = {}
        self.images: dict[tuple, dict[_Eq, _Eq]] = {}
        self.root_sets: dict[tuple, list[Fraction]] = {}

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
        key = tuple(coeffs)
        roots = self.root_sets.get(key)
        if roots is None:
            roots = self.root_sets[key] = sorted(rational_roots(coeffs))
        q.roots = roots
        for root in roots:
            coeffs = _deflate(coeffs, root)
        if not roots:
            q.left = q.p
        elif len(coeffs) > 1:
            q.left = MPoly({monomial([(x, i)]): c for i, c in enumerate(coeffs)}).normalize()

    def finish(self, node: _Node, status: str, witness: MPoly | None = None) -> None:
        # eliminations hold only open symbols (module docstring)
        resolved = dict(node.bindings)
        pending: list[tuple[Sym, MPoly]] = []
        for x, e in zip(reversed(node.esyms), reversed(node.eexprs)):
            if e.p.is_constant():
                resolved[x] = e.p.constant_value()
            else:
                pending.append((x, e.p))
        remaining = [q.p for q in node.eqs]
        if status != CONTRADICTION:
            # a solved or stuck leaf reports what it still depends on
            remaining += [MPoly.var(x) - expr for x, expr in pending]
        free: tuple[Sym, ...] = ()
        assignment = Assignment._trusted(resolved)
        if status == SOLVED:
            # a pending symbol is unresolved, so it is among the free ones
            free = tuple(s for s in self.cfg.unknowns if s not in resolved)
            if free:
                status = FREE
            elif (point := frozenset(resolved.items())) not in self.verified:
                # each distinct solved point is verified once per solve()
                ok, bad = verify_assignment(self.system, assignment.merged(self.cfg.presets))
                if not ok:
                    raise InternalInvariantError(
                        f"solved branch fails re-verification on {bad}"
                    )
                self.verified.add(point)
        self.leaves.append(Branch(assignment, tuple(remaining), status, free, witness))

    def substituted(self, node: _Node, s: Sym, v: Fraction, eqs: list[_Eq]) -> _Node:
        key = (s, v.numerator, v.denominator)
        out = self.mapped(key, s, v, [*node.eexprs, *eqs])
        k = len(node.eexprs)
        return _Node(
            {**node.bindings, s: v},
            node.bkey.union((key,)),
            node.esyms,
            tuple(out[:k]),
            out[k:],
        )

    def explore(self, node: _Node) -> None:
        self.budget -= 1
        found = set()
        for q in node.eqs:
            n = q.norm or self.normal(q)
            if n is _NORMAL:
                found.add(q)
            elif n is _CONSTANT:
                node.eqs = [r for r in node.eqs if r.p]
                self.finish(node, CONTRADICTION, witness=q.p)
                return
            elif n is not _VANISHED:
                found.add(n)
        # deterministic working order, and deduplicate repeated equations
        eqs = sorted(found, key=_working_order)
        node.eqs = eqs

        # The redundant splits of move 3 reach equal nodes along several
        # paths.  A finished subtree is replayed when exploring it again
        # could not run out of budget: its k-th node would see the entry
        # budget minus k, so an entry budget above the nodes it used keeps
        # every leaf the same.  A subtree that did run out is never replayed,
        # as the budget stays spent.
        key = (node.bkey, node.esyms, node.eexprs, tuple(eqs))
        seen = self.memo.get(key)
        if seen is not None and self.budget >= seen[2]:
            first, end, used = seen
            self.leaves.extend(self.leaves[first:end])
            self.budget -= used - 1
            return
        first, entry = len(self.leaves), self.budget + 1
        self.expand(node, eqs)
        self.memo[key] = (first, len(self.leaves), entry - self.budget)

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
            # the pivot is usually an int: divide as a Fraction to stay exact
            e = self.intern(q.p.coefficient_of(x, 0) * (Fraction(-1) / c))
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
            self.explore(_Node(node.bindings, node.bkey, node.esyms, node.eexprs, rest + [q.cofactor]))
            return

        self.finish(node, STUCK, witness=eqs[0].p)


def solve(system: Sequence[MPoly], cfg: SolveConfig) -> list[Branch]:
    """Explore the case tree; returns canonically sorted leaves."""
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
        tree = _Tree(system, cfg)
        tree.explore(_Node({}, frozenset(), (), (), [tree.intern(p.substitute(presets)) for p in system]))
        # replays append the same Branch objects again: sort each object
        # once and repeat it; equal keys are equal leaves, so ties need no order
        counts = Counter(map(id, tree.leaves))
        distinct = {id(br): br for br in tree.leaves}.values()
        return [br for br in sorted(distinct, key=Branch.sort_key) for _ in range(counts[id(br)])]
    finally:
        if collecting:
            gc.enable()
