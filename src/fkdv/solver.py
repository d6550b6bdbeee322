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

Within one solve the polynomials of the tree are hash-consed: interned by
value, so equal ones reached along different paths are one object, whose
hash, text, symbols and pivots are computed once.  Each substitution of a
polynomial under one binding, each normalize() result and each move-1 root
set (keyed by its coefficient list) is likewise computed once per solve.
The caches are dropped when solve returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

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

    def merged(self, other: "Assignment") -> "Assignment":
        out = Assignment()
        out._map = dict(self._map)
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
    __slots__ = ("bindings", "elims", "polys")

    def __init__(self, bindings, elims, polys):
        self.bindings: dict[Sym, Fraction] = bindings
        self.elims: list[tuple[Sym, MPoly]] = elims  # x -> expr, insertion order
        self.polys: list[MPoly] = polys


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


def _common_factor(polys: list[MPoly]) -> tuple[MPoly, int] | None:
    """The first equation with a non-unit monomial gcd, and that gcd's
    code.  On a list sorted by _poly_key and deduplicated it has the least
    key."""
    for p in polys:
        g = p.monomial_gcd()
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
    # the hash-consing caches of the module docstring: interned maps each
    # polynomial value to its one object, images (symbol, value) to
    # {p: p under that binding}, normal p to p.normalize(), and root_sets a
    # coefficient list to its sorted rational roots
    interned: dict[MPoly, MPoly] = {}
    images: dict[tuple, dict[MPoly, MPoly]] = {}
    normal: dict[MPoly, MPoly] = {}
    root_sets: dict[tuple, list[Fraction]] = {}

    def intern(p: MPoly) -> MPoly:
        return interned.setdefault(p, p)

    def substituter(s: Sym, v: Fraction | MPoly):
        """p -> p with s bound to v, computed once per solve."""
        cache = images.setdefault((s, v), {})
        bind = {s: v}

        def image(p: MPoly) -> MPoly:
            q = cache.get(p)
            if q is None:
                q = cache[p] = intern(p.substitute(bind))
            return q

        return image

    def normalized(p: MPoly) -> MPoly:
        q = normal.get(p)
        if q is None:
            q = normal[p] = intern(p.normalize())
        return q

    def sorted_roots(coeffs: list[int]) -> list[Fraction]:
        key = tuple(coeffs)
        roots = root_sets.get(key)
        if roots is None:
            roots = root_sets[key] = sorted(rational_roots(coeffs))
        return roots

    preset_map = cfg.presets.as_dict()
    start = [intern(p.substitute(preset_map)) for p in system]

    def finish(node: _Node, status: str, witness: MPoly | None = None) -> None:
        # eliminations hold only open symbols (module docstring)
        resolved = dict(node.bindings)
        pending: list[tuple[Sym, MPoly]] = []
        for x, expr in reversed(node.elims):
            if expr.is_constant():
                resolved[x] = expr.constant_value()
            else:
                pending.append((x, expr))
        remaining = list(node.polys)
        if status != CONTRADICTION:
            # a solved or stuck leaf reports what it still depends on
            remaining += [MPoly.var(x) - expr for x, expr in pending]
        free: tuple[Sym, ...] = ()
        if status == SOLVED:
            # a pending symbol is unresolved, so it is among the free ones
            free = tuple(s for s in cfg.unknowns if s not in resolved)
            if free:
                status = FREE
            elif (point := frozenset(resolved.items())) not in verified:
                # each distinct solved point is verified once per solve()
                ok, bad = verify_assignment(
                    system, Assignment(resolved).merged(cfg.presets)
                )
                if not ok:
                    raise InternalInvariantError(
                        f"solved branch fails re-verification on {bad}"
                    )
                verified.add(point)
        leaves.append(
            Branch(
                assignment=Assignment(resolved),
                remaining=tuple(remaining),
                status=status,
                free_symbols=free,
                witness=witness,
            )
        )

    def substituted(node: _Node, s: Sym, v: Fraction) -> _Node:
        image = substituter(s, v)
        return _Node(
            {**node.bindings, s: v},
            [(x, image(expr)) for x, expr in node.elims],
            [image(p) for p in node.polys],
        )

    def explore(node: _Node) -> None:
        budget[0] -= 1
        polys: list[MPoly] = []
        for p in node.polys:
            if p.is_zero():
                continue
            if p.is_constant():
                node.polys = [q for q in node.polys if not q.is_zero()]
                finish(node, CONTRADICTION, witness=p)
                return
            polys.append(normalized(p))
        # deterministic working order, and deduplicate repeated equations
        polys = sorted(set(polys), key=_poly_key)
        node.polys = polys

        # The redundant splits of move 3 reach equal nodes along several
        # paths.  A finished subtree is replayed when exploring it again
        # could not run out of budget: its k-th node would see the entry
        # budget minus k, so an entry budget above the nodes it used keeps
        # every leaf the same.  A subtree that did run out is never replayed,
        # as the budget stays spent.
        # (numerator, denominator) hash as ints, unlike Fraction.__hash__
        binds = frozenset((s, v.numerator, v.denominator) for s, v in node.bindings.items())
        key = (binds, tuple(node.elims), tuple(polys))
        seen = memo.get(key)
        if seen is not None and budget[0] >= seen[2]:
            first, end, used = seen
            leaves.extend(leaves[first:end])
            budget[0] -= used - 1
            return
        first, entry = len(leaves), budget[0] + 1
        expand(node, polys)
        memo[key] = (first, len(leaves), entry - budget[0])

    def expand(node: _Node, polys: list[MPoly]) -> None:
        if not polys:
            finish(node, SOLVED)
            return
        if budget[0] <= 0:
            finish(node, STUCK, witness=polys[0])
            return

        # move 1: univariate root branching
        univariate = [p for p in polys if len(p.symbols()) == 1]
        if univariate:
            p = min(
                univariate,
                key=lambda q: (q.degree(), len(q.terms), next(iter(q.symbols())).key),
            )
            x = next(iter(p.symbols()))
            coeffs = p.as_univariate(x)
            roots = sorted_roots(coeffs)
            for root in roots:
                explore(substituted(node, x, root))
                coeffs = _deflate(coeffs, root)
            if len(coeffs) > 1:
                rest = MPoly({monomial([(x, i)]): c for i, c in enumerate(coeffs)}) if roots else p
                finish(node, STUCK, witness=rest.normalize())
            return

        # move 2: linear elimination with a constant coefficient
        best = None
        for p in polys:
            for x, c in p.linear_pivots().items():
                key = (len(p.terms), p.degree(), x.key, _Text(p))
                if best is None or key < best[0]:
                    best = (key, p, x, c)
        if best is not None:
            _, p, x, c = best
            # the pivot is usually an int: divide as a Fraction to stay exact
            expr = intern(p.coefficient_of(x, 0) * (Fraction(-1) / c))
            image = substituter(x, expr)
            node.elims = [(y, image(q)) for y, q in node.elims]
            node.elims.append((x, expr))
            node.polys = [image(q) for q in polys]
            explore(node)
            return

        # move 3: common monomial case split
        split = _common_factor(polys)
        if split is not None:
            p, g = split
            rest = [q for q in polys if q is not p]
            for s, _ in exps_of(g):
                explore(substituted(_Node(node.bindings, node.elims, rest + [p]), s, Fraction(0)))
            explore(_Node(node.bindings, list(node.elims), rest + [intern(p.divide_mono(g))]))
            return

        finish(node, STUCK, witness=polys[0])

    try:
        explore(_Node({}, [], start))
    finally:
        # explore and expand refer to each other, so this frame outlives the
        # call until the cycle collector runs; drop the caches now
        for cache in (memo, interned, images, normal, root_sets):
            cache.clear()
    # replays append the same Branch objects again: key each object once
    distinct = {id(br): br for br in leaves}
    keys = {i: br.sort_key() for i, br in distinct.items()}
    leaves.sort(key=lambda br: keys[id(br)])
    return leaves
