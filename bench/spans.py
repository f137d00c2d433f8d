"""Span-tree arithmetic: self times and the per-layer metrics of a traced pass.

A span is a tuple ``(sid, name, start, end, parent, cmd, size)``; ``name``
is ``"<module>.<function>"``, ``parent`` is the sid of the enclosing span in
the same command (-1 at the root), and ``size`` is a work count taken from
the call's arguments (points, quadrature nodes or matrix dimension).  Spans
of different commands never nest, so trees are keyed by ``(cmd, sid)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

EIGENSOLVE = frozenset({"vibron.jacobi_eigh", "numpy.linalg.eigh",
                        "numpy.linalg.eigvalsh"})
ASSEMBLY = frozenset({"vibron.su2_hamiltonian", "vibron.diagonal_energies",
                      "vibron.exact_interaction", "vibron.approx_interaction"})
STATES_EVAL = frozenset({"states.wavefunction", "states.wavefunction_derivative"})
GEGENBAUER = frozenset({"specfun.gegenbauer", "specfun.gegenbauer_derivative"})
IMPORT_SPAN = "import.mptsu2.cli"

LAYERS = ("import", "cli", "checks", "vibron", "eigensolve", "expansion", "oracle",
          "ladder", "states", "specfun")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    cmd: int
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    """The layer a span belongs to: its module, with eigensolvers on their own."""
    if name in EIGENSOLVE:
        return "eigensolve"
    return name.split(".", 1)[0]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


class SpanTree:
    """Spans of one or more commands, indexed for parent/child walks."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = [s if isinstance(s, Span) else Span(*s) for s in spans]
        self.by_key = {(s.cmd, s.sid): s for s in self.spans}
        self.children: dict = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                self.children[(s.cmd, s.parent)].append(s)

    def ancestors(self, span: Span):
        key = (span.cmd, span.parent)
        while key[1] >= 0 and key in self.by_key:
            parent = self.by_key[key]
            yield parent
            key = (parent.cmd, parent.parent)

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by the span's direct children."""
        kids = self.children.get((span.cmd, span.sid), ())
        return span.duration - covered(((k.start, k.end) for k in kids),
                                       span.start, span.end)

    def outermost(self, member: Callable[[str], bool]) -> list[Span]:
        """Member spans with no member ancestor."""
        return [s for s in self.spans if member(s.name)
                and not any(member(a.name) for a in self.ancestors(s))]

    def inclusive(self, member: Callable[[str], bool]) -> float:
        """Wall time spent inside member spans, nested members counted once."""
        return sum(s.duration for s in self.outermost(member))

    def descendants(self, span: Span, prune: Callable[[str], bool] = lambda n: False):
        """Every span below ``span``; the subtrees of pruned spans are skipped."""
        stack = list(self.children.get((span.cmd, span.sid), ()))
        while stack:
            s = stack.pop()
            yield s
            if not prune(s.name):
                stack.extend(self.children.get((s.cmd, s.sid), ()))

    def exclusive(self, member: Callable[[str], bool],
                  excluded: Callable[[str], bool]) -> float:
        """Time inside member spans minus the time of excluded descendants.

        Descendants are walked from each outermost member span; the first
        excluded span on each path removes its whole interval.
        """
        total = 0.0
        for top in self.outermost(member):
            cut = [(d.start, d.end) for d in self.descendants(top, excluded)
                   if excluded(d.name)]
            total += top.duration - covered(cut, top.start, top.end)
        return total

    def count(self, member: Callable[[str], bool]) -> int:
        return sum(1 for s in self.spans if member(s.name))

    def size_sum(self, member: Callable[[str], bool]) -> int:
        return sum(s.size for s in self.spans if member(s.name))

    def entries(self, layer: str) -> int:
        """Calls into a layer from outside it."""
        def outside(s: Span) -> bool:
            parent = self.by_key.get((s.cmd, s.parent))
            return parent is None or layer_of(parent.name) != layer
        return sum(1 for s in self.spans if layer_of(s.name) == layer and outside(s))


def _is(names):
    return lambda name: name in names


def _in_layer(layer):
    return lambda name: layer_of(name) == layer


def layer_self_times(tree: SpanTree) -> dict[str, float]:
    """Self time of each layer: the time its spans are the innermost open span."""
    selfs = dict.fromkeys(LAYERS, 0.0)
    for s in tree.spans:
        layer = layer_of(s.name)
        if layer in selfs:
            selfs[layer] += tree.self_time(s)
    return selfs


def layer_metrics(tree: SpanTree) -> dict[str, float]:
    """The per-layer metrics of one traced pass (counts, seconds, ratios)."""
    # A request is computed when it evaluated any wavefunction, else a cache hit.
    requests = [s for s in tree.spans if s.name == "oracle.observable_matrix"]
    computed = sum(any(d.name in STATES_EVAL for d in tree.descendants(s))
                   for s in requests)
    eigen_outer = tree.outermost(_is(EIGENSOLVE))
    selfs = layer_self_times(tree)
    m = {
        "specfun.gauss_legendre.calls": tree.count(_is({"specfun.gauss_legendre"})),
        "specfun.gauss_legendre.s": tree.inclusive(_is({"specfun.gauss_legendre"})),
        "specfun.gegenbauer.calls": tree.count(_is({"specfun.gegenbauer"})),
        "specfun.gegenbauer.s": tree.inclusive(_is(GEGENBAUER)),
        "specfun.integrate.calls": tree.count(_is({"specfun.integrate"})),
        "specfun.integrate.nodes": tree.size_sum(_is({"specfun.integrate"})),
        "specfun.integrate.self_s": tree.exclusive(
            _is({"specfun.integrate"}), lambda n: n != "specfun.integrate"),
        "states.eval.calls": tree.count(_is(STATES_EVAL)),
        "states.eval.points": tree.size_sum(_is(STATES_EVAL)),
        "states.eval.self_s": tree.exclusive(_is(STATES_EVAL), _in_layer("specfun")),
        "oracle.observable_matrix.calls": len(requests),
        "oracle.observable_matrix.computed": computed,
        "oracle.cache_hit_ratio": (len(requests) - computed) / len(requests)
        if requests else 0.0,
        "oracle.matrix_element.calls": tree.count(_is({"oracle.matrix_element"})),
        "oracle.self_s": selfs["oracle"],
        "vibron.eigensolve.calls": len(eigen_outer),
        "vibron.eigensolve.s": tree.inclusive(_is(EIGENSOLVE)),
        "vibron.eigensolve.dim3_sum": sum(s.size ** 3 for s in eigen_outer),
        "vibron.assembly.self_s": tree.exclusive(
            _is(ASSEMBLY),
            lambda n: layer_of(n) in ("oracle", "expansion")),
        "expansion.calls": tree.entries("expansion"),
        "expansion.self_s": selfs["expansion"],
        "ladder.calls": tree.entries("ladder"),
        "ladder.s": tree.inclusive(_in_layer("ladder")),
        "checks.self_s": selfs["checks"],
        "cli.import_s": tree.inclusive(_is({IMPORT_SPAN})),
        "cli.self_s": selfs["cli"],
    }
    for layer in ("specfun", "states", "vibron"):
        m[f"{layer}.self_s"] = selfs[layer]
    return m
