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

Within one solve the tree runs on small int handles.  Each polynomial is
interned by value and gets a handle, so equal ones reached along different
paths share one.  A node's equations and eliminations are handles, and its
memo key is a tuple of ints, symbols and the bindings as (symbol,
numerator, denominator), all hashed in C.  What the moves read off a
polynomial is a fact of its handle, computed once per solve when a move
first needs it: zero, constant or normal form, the working-order key, the
univariate coefficients with move 1's roots and leftover factor, the best
linear pivot, the monomial gcd and its cofactor.  Each substitution of a
handle under one binding is likewise computed once, so a node's images are
one dict lookup per handle, and each move-1 root set once per coefficient
list.  The tables are dropped when solve returns or raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import InternalInvariantError, UnboundSymbolError
from .poly import MPoly, exps_of, monomial, rational_roots
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

    def sort_key(self, text: Callable[[Fraction], str] = str):
        """The canonical output order; ``text`` renders a bound value."""
        rank = (SOLVED, FREE, CONTRADICTION, STUCK).index(self.status)
        binds = tuple((s.name, text(v)) for s, v in self.assignment.items())
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

    The assignment must bind every symbol of the system; the first failing
    polynomial is returned as the witness on False.
    """
    point = asg.as_dict() if isinstance(asg, Assignment) else dict(asg)
    for p in system:
        missing = [s for s in p.symbols() if s not in point]
        if missing:
            raise UnboundSymbolError(min(missing, key=lambda t: t.key))
    for p in system:
        if p.eval_rat(point) != 0:
            return False, p
    return True, None


class _Node:
    # bkey holds the bindings as (symbol, numerator, denominator); esyms and
    # eexprs the eliminations x -> expr in insertion order; eexprs and polys
    # are handles
    __slots__ = ("bindings", "bkey", "esyms", "eexprs", "polys")

    def __init__(self, bindings, bkey, esyms, eexprs, polys):
        self.bindings: dict[Sym, Fraction] = bindings
        self.bkey: frozenset[tuple[Sym, int, int]] = bkey
        self.esyms: tuple[Sym, ...] = esyms
        self.eexprs: tuple[int, ...] = eexprs
        self.polys: list[int] = polys


_ZERO = Fraction(0)
# normal-form facts of the zero and of a nonzero constant polynomial
_VANISHED, _CONSTANT = -1, -2


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


def _common_factor(polys: Sequence, gcd=MPoly.monomial_gcd) -> tuple | None:
    """The first equation with a non-unit monomial gcd, and that gcd's
    code, ``gcd`` giving the code of one equation.  On a list sorted by
    _poly_key and deduplicated it has the least key."""
    for p in polys:
        g = gcd(p)
        if g:
            return p, g
    return None


def solve(system: Sequence[MPoly], cfg: SolveConfig) -> list[Branch]:
    """Explore the case tree; returns canonically sorted leaves."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    allowed = set(cfg.unknowns) | set(cfg.presets.as_dict())
    outside = sorted(
        {s for p in system for s in p.symbols()} - allowed, key=lambda s: s.key
    )
    if outside:
        raise ValueError(f"system symbols outside unknowns and presets: {outside}")

    budget = [cfg.branch_budget]
    leaves: list[Branch] = []
    # node state -> (first leaf, end leaf, nodes used) of a finished subtree
    memo: dict[tuple, tuple[int, int, int]] = {}
    verified: set[frozenset] = set()
    # the handle tables of the module docstring: poly maps a handle to its
    # polynomial and handle_of a polynomial value to its handle; images maps
    # a binding, (symbol, numerator, denominator) or (symbol, handle), to
    # {handle: handle of its image}; root_sets maps a coefficient list to
    # its sorted rational roots
    poly: list[MPoly] = []
    handle_of: dict[MPoly, int] = {}
    images: dict[tuple, dict[int, int]] = {}
    root_sets: dict[tuple, list[Fraction]] = {}
    # the facts, each keyed by handle: normal is _VANISHED, _CONSTANT or the
    # handle of normalize(); order the working-order key _poly_key; pivot
    # move 2's (key, handle, symbol, coefficient) or None; univariate move
    # 1's (key, handle, symbol, coefficients) or None; branching move 1's
    # (roots, factor left or None); common the monomial gcd code and
    # cofactor the handle of the equation divided by it
    normal: dict[int, int] = {}
    order: dict[int, tuple] = {}
    pivot: dict[int, tuple | None] = {}
    univariate: dict[int, tuple | None] = {}
    branching: dict[int, tuple[list[Fraction], MPoly | None]] = {}
    common: dict[int, int] = {}
    cofactor: dict[int, int] = {}

    def intern(p: MPoly) -> int:
        h = handle_of.get(p)
        if h is None:
            h = handle_of[p] = len(poly)
            poly.append(p)
        return h

    def mapped(key: tuple, s: Sym, v: Fraction | MPoly, hs: list[int]) -> list[int]:
        """The handles of hs with s bound to v; key names the binding."""
        cache = images.get(key)
        if cache is None:
            cache = images[key] = {}
        out = list(map(cache.get, hs))
        if None in out:
            bind = {s: v}
            for i, q in enumerate(out):
                if q is None:
                    h = hs[i]
                    out[i] = cache[h] = intern(poly[h].substitute(bind))
        return out

    def normal_fact(h: int) -> int:
        p = poly[h]
        if p.is_zero():
            n = _VANISHED
        elif p.is_constant():
            n = _CONSTANT
        else:
            n = intern(p.normalize())
            normal.setdefault(n, n)
            if n not in order:
                order[n] = _poly_key(poly[n])
        normal[h] = n
        return n

    def pivot_fact(h: int) -> tuple | None:
        p = poly[h]
        pivots = p.linear_pivots()
        if not pivots:
            return None
        x = min(pivots, key=lambda s: s.key)
        return (len(p.terms), p.degree(), x.key, _Text(p)), h, x, pivots[x]

    def univariate_fact(h: int) -> tuple | None:
        p = poly[h]
        if len(p.symbols()) != 1:
            return None
        (x,) = p.symbols()
        return (p.degree(), len(p.terms), x.key), h, x, p.as_univariate(x)

    def branching_fact(h: int) -> tuple[list[Fraction], MPoly | None]:
        _, _, x, coeffs = univariate[h]
        key = tuple(coeffs)
        roots = root_sets.get(key)
        if roots is None:
            roots = root_sets[key] = sorted(rational_roots(coeffs))
        if not roots:
            # an equation of the working list is already normal
            return roots, poly[h]
        for root in roots:
            coeffs = _deflate(coeffs, root)
        if len(coeffs) == 1:
            return roots, None
        return roots, MPoly({monomial([(x, i)]): c for i, c in enumerate(coeffs)}).normalize()

    def facts(table: dict, fact, hs: list[int]) -> list:
        """The non-None facts of hs, each computed once per solve."""
        for h in hs:
            if h not in table:
                table[h] = fact(h)
        return [f for f in map(table.__getitem__, hs) if f is not None]

    def monomial_gcd(h: int) -> int:
        if h not in common:
            common[h] = poly[h].monomial_gcd()
        return common[h]

    preset_map = cfg.presets.as_dict()
    start = [intern(p.substitute(preset_map)) for p in system]

    def finish(node: _Node, status: str, witness: MPoly | None = None) -> None:
        # eliminations hold only open symbols (module docstring)
        resolved = dict(node.bindings)
        pending: list[tuple[Sym, MPoly]] = []
        for x, e in zip(reversed(node.esyms), reversed(node.eexprs)):
            expr = poly[e]
            if expr.is_constant():
                resolved[x] = expr.constant_value()
            else:
                pending.append((x, expr))
        remaining = [poly[h] for h in node.polys]
        if status != CONTRADICTION:
            # a solved or stuck leaf reports what it still depends on
            remaining += [MPoly.var(x) - expr for x, expr in pending]
        free: tuple[Sym, ...] = ()
        assignment = Assignment._trusted(resolved)
        if status == SOLVED:
            # a pending symbol is unresolved, so it is among the free ones
            free = tuple(s for s in cfg.unknowns if s not in resolved)
            if free:
                status = FREE
            elif (point := frozenset(resolved.items())) not in verified:
                # each distinct solved point is verified once per solve()
                ok, bad = verify_assignment(system, assignment.merged(cfg.presets))
                if not ok:
                    raise InternalInvariantError(
                        f"solved branch fails re-verification on {bad}"
                    )
                verified.add(point)
        leaves.append(
            Branch(
                assignment=assignment,
                remaining=tuple(remaining),
                status=status,
                free_symbols=free,
                witness=witness,
            )
        )

    def substituted(node: _Node, s: Sym, v: Fraction, polys: list[int]) -> _Node:
        key = (s, v.numerator, v.denominator)
        out = mapped(key, s, v, [*node.eexprs, *polys])
        k = len(node.eexprs)
        return _Node(
            {**node.bindings, s: v},
            node.bkey.union((key,)),
            node.esyms,
            tuple(out[:k]),
            out[k:],
        )

    def explore(node: _Node) -> None:
        budget[0] -= 1
        hs = set()
        for h in node.polys:
            n = normal.get(h)
            if n is None:
                n = normal_fact(h)
            if n == _VANISHED:
                continue
            if n == _CONSTANT:
                node.polys = [q for q in node.polys if poly[q]]
                finish(node, CONTRADICTION, witness=poly[h])
                return
            hs.add(n)
        # deterministic working order, and deduplicate repeated equations
        polys = sorted(hs, key=order.__getitem__)
        node.polys = polys

        # The redundant splits of move 3 reach equal nodes along several
        # paths.  A finished subtree is replayed when exploring it again
        # could not run out of budget: its k-th node would see the entry
        # budget minus k, so an entry budget above the nodes it used keeps
        # every leaf the same.  A subtree that did run out is never replayed,
        # as the budget stays spent.
        key = (node.bkey, node.esyms, node.eexprs, tuple(polys))
        seen = memo.get(key)
        if seen is not None and budget[0] >= seen[2]:
            first, end, used = seen
            leaves.extend(leaves[first:end])
            budget[0] -= used - 1
            return
        first, entry = len(leaves), budget[0] + 1
        expand(node, polys)
        memo[key] = (first, len(leaves), entry - budget[0])

    def expand(node: _Node, polys: list[int]) -> None:
        if not polys:
            finish(node, SOLVED)
            return
        if budget[0] <= 0:
            finish(node, STUCK, witness=poly[polys[0]])
            return

        # move 1: univariate root branching
        found = facts(univariate, univariate_fact, polys)
        if found:
            _, h, x, _ = min(found, key=lambda f: f[0])
            if h not in branching:
                branching[h] = branching_fact(h)
            roots, left = branching[h]
            for root in roots:
                explore(substituted(node, x, root, polys))
            if left is not None:
                finish(node, STUCK, witness=left)
            return

        # move 2: linear elimination with a constant coefficient
        found = facts(pivot, pivot_fact, polys)
        if found:
            _, h, x, c = min(found, key=lambda f: f[0])
            # the pivot is usually an int: divide as a Fraction to stay exact
            e = intern(poly[h].coefficient_of(x, 0) * (Fraction(-1) / c))
            out = mapped((x, e), x, poly[e], [*node.eexprs, *polys])
            k = len(node.eexprs)
            node.esyms += (x,)
            node.eexprs = (*out[:k], e)
            node.polys = out[k:]
            explore(node)
            return

        # move 3: common monomial case split
        split = _common_factor(polys, monomial_gcd)
        if split is not None:
            h, g = split
            rest = [q for q in polys if q != h]
            for s, _ in exps_of(g):
                explore(substituted(node, s, _ZERO, rest + [h]))
            if h not in cofactor:
                cofactor[h] = intern(poly[h].divide_mono(g))
            explore(_Node(node.bindings, node.bkey, node.esyms, node.eexprs, rest + [cofactor[h]]))
            return

        finish(node, STUCK, witness=poly[polys[0]])

    try:
        explore(_Node({}, frozenset(), (), (), start))
    finally:
        # explore and expand refer to each other, so this frame outlives the
        # call until the cycle collector runs; drop the tables now
        for table in (memo, poly, handle_of, images, root_sets, normal, order,
                      pivot, univariate, branching, common, cofactor):
            table.clear()
    # replays append the same Branch objects again: key each object once,
    # and render each bound value once
    texts: dict[int, str] = {}

    def text(v: Fraction) -> str:
        t = texts.get(id(v))
        if t is None:
            t = texts[id(v)] = str(v)
        return t

    distinct = {id(br): br for br in leaves}
    keys = {i: br.sort_key(text) for i, br in distinct.items()}
    leaves.sort(key=lambda br: keys[id(br)])
    return leaves
