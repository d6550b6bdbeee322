"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the ``fkdv`` modules from outside: it
replaces a module attribute (and every other ``fkdv`` module attribute that
holds the same function, so names imported under an alias are covered too)
and the heavier ``MPoly`` methods with a wrapper that records one span per
call.  A span is (name, start, end, parent); spans are appended to flat
arrays kept in memory and written out by :meth:`Tracer.write` at exit.

Cheap accessors of ``MPoly`` (``degree``, ``symbols``, ``is_zero``, ...) are
deliberately left unwrapped: a wrapper costs about a microsecond, which is
more than those calls do, so their time counts toward the caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, counter)
_FUNCTIONS = [
    ("fkdv.poly", "rational_roots", "poly.rational_roots", None),
    ("fkdv.poly", "parse_poly", "poly.parse", None),
    ("fkdv.tanh", "balance_terms_for", "tanh.balance_terms", None),
    ("fkdv.tanh", "balance_M", "tanh.balance_M", None),
    ("fkdv.tanh", "build_ansatz", "tanh.build_ansatz", None),
    ("fkdv.tanh", "ode_residual", "tanh.ode_residual", None),
    ("fkdv.tanh", "extract_system", "tanh.extract_system", "tanh"),
    ("fkdv.pre", "build_pre_ansatz", "pre.build_ansatz", None),
    ("fkdv.pre", "pre_ode_residual", "pre.ode_residual", None),
    ("fkdv.pre", "extract_pre_system", "pre.extract_system", "pre"),
    ("fkdv.fixtures", "load_fixture", "fixtures.load", None),
    ("fkdv.fixtures", "compare_systems", "fixtures.compare", "fixtures"),
    ("fkdv.solver", "solve", "solver.solve", "solver"),
    ("fkdv.solver", "verify_assignment", "solver.verify", None),
    ("fkdv.closedform", "sample_report", "closedform.sample", "closedform"),
    ("fkdv.closedform", "pointwise_compare", "closedform.compare", None),
    ("fkdv.closedform", "residual_terms_for", "closedform.residual_terms", None),
    ("fkdv.reproduce", "run_reproduce", "reproduce.run", None),
    ("fkdv.reproduce", "check_exact_substitution", "reproduce.substitute", None),
    ("fkdv.reproduce", "check_phi_catalog", "reproduce.catalog", None),
    ("fkdv.reproduce", "check_st_catalog", "reproduce.catalog", None),
    ("fkdv.reproduce", "render_latex", "reproduce.latex", None),
    ("fkdv.cli", "main", "cli.main", None),
]

# MPoly methods that build polynomials or do real arithmetic.
_MPOLY_METHODS = (
    "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__",
    "substitute", "normalize", "eval_rat", "ascii", "latex",
    "coefficient_of", "monomial_gcd", "divide_mono", "as_univariate",
)

LAYERS = ("poly", "tanh", "pre", "fixtures", "solver", "closedform", "reproduce", "cli")

_STATUS_KEY = {
    "solved": "solved",
    "solved_with_free_symbols": "free",
    "contradiction": "contradiction",
    "stuck": "stuck",
}


def _count_system(layer):
    def count(counters, system):
        counters[f"{layer}.equations"] += len(system)
        counters[f"{layer}.terms"] += sum(len(eq.poly.terms) for eq in system)
    return count


def _count_solver(counters, leaves):
    counters["solver.leaves"] += len(leaves)
    counters["solver.distinct_leaves"] += len(
        {(br.status, tuple(br.assignment.items())) for br in leaves}
    )
    for br in leaves:
        counters[f"solver.leaves.{_STATUS_KEY[br.status]}"] += 1


def _count_fixtures(counters, diffs):
    counters["fixtures.diffs"] += len(diffs)


def _count_closedform(counters, report):
    counters["closedform.samples_accepted"] += len(report.samples)
    counters["closedform.samples_rejected"] += report.rejected_samples


_COUNTERS = {
    "tanh": _count_system("tanh"),
    "pre": _count_system("pre"),
    "fixtures": _count_fixtures,
    "solver": _count_solver,
    "closedform": _count_closedform,
}


class Tracer:
    """Records spans while installed; holds every span until written."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span: str, count):
        name_id = self._name_id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if count is not None:
                count(counters, result)
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = fn.__doc__
        return traced

    def _build_patches(self) -> None:
        from fkdv.poly import MPoly

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fkdv" or n.startswith("fkdv."))]
        for mod_name, attr, span, counter in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, span, _COUNTERS.get(counter))
            for mod in modules:
                for alias, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, alias, original, wrapped))
        for meth in _MPOLY_METHODS:
            original = MPoly.__dict__[meth]
            wrapped = self._wrap(original, "poly." + meth.strip("_"), None)
            for alias, value in list(MPoly.__dict__.items()):
                if value is original:
                    self._patches.append((MPoly, alias, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span; passes are delimited by marks."""
        return len(self.start)

    def summarize(self, lo: int, hi: int, pass_s: float) -> dict[str, float]:
        """Per-layer figures of the spans recorded in [lo, hi).

        ``<name>_s`` sums the spans of that name not nested in a span of the
        same name; a layer's ``self_s`` is its spans' time minus the time of
        their child spans; ``<layer>.wall_s`` sums the spans of the layer not
        nested in another span of the same layer.
        """
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        layer_of = [LAYERS.index(n.split(".", 1)[0]) for n in self.names]
        n = hi - lo
        child = [0.0] * n
        name_mask = [0] * n
        layer_mask = [0] * n
        out: Counter = Counter()
        calls: Counter = Counter()
        layer_self = [0.0] * len(LAYERS)
        layer_wall = [0.0] * len(LAYERS)
        for i in range(lo, hi):
            dur = ends[i] - starts[i]
            nm = names[i]
            ly = layer_of[nm]
            p = parents[i]
            if p >= lo:
                child[p - lo] += dur
                pn = names[p]
                nmask = name_mask[p - lo] | (1 << pn)
                lmask = layer_mask[p - lo] | (1 << layer_of[pn])
            else:
                nmask = lmask = 0
            name_mask[i - lo] = nmask
            layer_mask[i - lo] = lmask
            calls[nm] += 1
            if not (nmask >> nm) & 1:
                out[self.names[nm] + "_s"] += dur
            if not (lmask >> ly) & 1:
                layer_wall[ly] += dur
        for i in range(lo, hi):
            layer_self[layer_of[names[i]]] += ends[i] - starts[i] - child[i - lo]
        for nm, c in calls.items():
            out[self.names[nm] + "_calls"] += c
        for ly, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = layer_self[ly]
            out[f"{layer}.wall_s"] = layer_wall[ly]
            out[f"{layer}.share"] = layer_self[ly] / pass_s if pass_s > 0 else 0.0
        out["other.share"] = max(0.0, 1.0 - sum(layer_self) / pass_s) if pass_s > 0 else 0.0
        return dict(out)

    def write(self, path, passes: list[tuple[int, int, int]], t_origin: float) -> None:
        """Write every recorded span as tab-separated text.

        ``passes`` lists (pass number, first span, end span); times are
        seconds since ``t_origin`` and ``parent`` is a span index or -1.
        """
        with open(path, "w") as fh:
            fh.write("span\tpass\tname\tstart_s\tend_s\tparent\n")
            for number, lo, hi in passes:
                for i in range(lo, hi):
                    fh.write(
                        f"{i}\t{number}\t{self.names[self.name[i]]}\t"
                        f"{self.start[i] - t_origin:.9f}\t{self.end[i] - t_origin:.9f}\t"
                        f"{self.parent[i]}\n"
                    )
