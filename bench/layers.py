"""The traced run: spans around the calls into each layer of ``tokengraphs``.

Spans are recorded from the benchmark's side. :class:`Tracer` replaces a
function at every name under which a ``tokengraphs`` module binds it, since
``verify``, ``formulas`` and ``constructions`` bind the solvers at import,
and ``independence`` looks its β-phase helpers up at call time. A layer's
self time is its span's duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (span, defining module, attribute). ``Class.method`` patches the class;
#: ``*`` covers every function the module defines.
SPANS = (
    ("tokens.token_graph", "tokengraphs.tokens", "token_graph"),
    ("graphs.adjacency_masks", "tokengraphs.graphs", "Graph.adjacency_masks"),
    ("graphs.bipartition_of", "tokengraphs.graphs", "bipartition_of"),
    ("matching.max_matching", "tokengraphs.matching", "max_matching"),
    ("matching.hall_witness", "tokengraphs.matching", "hall_witness"),
    ("independence.solve", "tokengraphs.independence", "max_independent_set"),
    ("independence.components", "tokengraphs.independence", "_component_masks"),
    ("independence.color", "tokengraphs.independence", "_two_color"),
    ("independence.seed", "tokengraphs.independence", "_greedy_seed"),
    ("independence.bound", "tokengraphs.independence", "_clique_cover_bound"),
    ("independence.kbound", "tokengraphs.independence", "_bipartite_matching_size"),
    ("independence.validate", "tokengraphs.independence", "IndependentSet.validate"),
    ("verify.run_check", "tokengraphs.verify", "run_check"),
    ("reports.serialise", "tokengraphs.reports", "reports_to_json"),
    ("reports.serialise", "tokengraphs.reports", "reports_to_csv"),
    ("cli.main", "tokengraphs.cli", "main"),
    ("constructions", "tokengraphs.constructions", "*"),
    ("formulas", "tokengraphs.formulas", "*"),
)

#: The benchmark's own code in a pass: the loop, input relabelling, checks.
ROOT = "bench"

#: Per-layer metric -> (statistic, span or counter). Statistics are per
#: traced pass: ``self`` seconds, ``calls``, or a ``count`` summed over calls.
METRICS = {
    "tokens.token_graph.self_s": ("self", "tokens.token_graph"),
    "tokens.token_graph.calls": ("calls", "tokens.token_graph"),
    "tokens.vertices": ("count", "tokens.vertices"),
    "tokens.edges": ("count", "tokens.edges"),
    "graphs.adjacency_masks.self_s": ("self", "graphs.adjacency_masks"),
    "graphs.bipartition_of.self_s": ("self", "graphs.bipartition_of"),
    "matching.max_matching.self_s": ("self", "matching.max_matching"),
    "matching.max_matching.calls": ("calls", "matching.max_matching"),
    "matching.vertices": ("count", "matching.vertices"),
    "matching.hall_witness.self_s": ("self", "matching.hall_witness"),
    "independence.solve.self_s": ("self", "independence.solve"),
    "independence.calls": ("calls", "independence.solve"),
    "independence.nodes": ("count", "independence.nodes"),
    "independence.seed_s": ("self", "independence.seed"),
    "independence.bound_s": ("self", "independence.bound"),
    "independence.bound_calls": ("calls", "independence.bound"),
    "independence.kbound_s": ("self", "independence.kbound"),
    "independence.components_s": ("self", "independence.components"),
    "independence.color_s": ("self", "independence.color"),
    "independence.validate_s": ("self", "independence.validate"),
    "constructions.self_s": ("self", "constructions"),
    "formulas.self_s": ("self", "formulas"),
    "verify.run_check.self_s": ("self", "verify.run_check"),
    "reports.serialise_s": ("self", "reports.serialise"),
    "cli.main.self_s": ("self", "cli.main"),
    "bench.self_s": ("self", ROOT),
}

#: Which end-to-end metric, on which workload, each layer metric should move.
#: A later change cites these pairs when it claims a gain; "not" names the
#: workload on which the layer should leave the end-to-end numbers alone.
MOVES = {
    "tokens.*": "pass_s and peak_rss_mb on nu-large; instance_s on catalog; not beta-branching",
    "graphs.adjacency_masks.self_s": "pass_s on nu-large and beta-bipartite",
    "graphs.bipartition_of.self_s": "pass_s on nu-large and beta-bipartite",
    "matching.*": "pass_s on nu-large; not beta-branching",
    "independence.solve.self_s, .calls, .nodes": "pass_s on beta-branching; instance_s on catalog",
    "independence.seed_s": "pass_s on beta-bipartite; not beta-branching",
    "independence.bound_s, .bound_calls, .kbound_s": "pass_s on beta-branching and catalog",
    "independence.components_s, .color_s, .validate_s": "instance_s on catalog",
    "constructions.self_s, formulas.self_s, verify.run_check.self_s, "
    "reports.serialise_s, cli.main.self_s": "instance_s and pass_s on catalog only",
}


def _owner_and_name(module, attr: str):
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner, name


class Tracer:
    """Spans and counts for one traced run. ``install`` patches, ``remove``
    restores; only one tracer may be installed at a time."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        self._clocks: list = []

    def span(self, name: str, fn, hook=None):
        open_, self_s, calls, counts = self._open, self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - open_.pop()
                calls[name] += 1
                if open_:
                    open_[-1] += elapsed
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every ``tokengraphs`` module name bound to ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname != "tokengraphs" and not modname.startswith("tokengraphs."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def install(self) -> None:
        hooks = {
            "tokens.token_graph": _count_token_graph,
            "matching.max_matching": _count_matching,
        }
        for span, modname, attr in SPANS:
            module = sys.modules.get(modname)
            if attr == "*":
                if module is None:
                    self.absent.append(span)
                    continue
                for fn in [v for v in vars(module).values()
                           if inspect.isfunction(v) and v.__module__ == modname]:
                    self._rebind(fn, self.span(span, fn))
                continue
            owner, name = _owner_and_name(module, attr) if module else (None, attr)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(span)
            elif inspect.isclass(owner):
                self._patch(owner, name, self.span(span, original, hooks.get(span)))
            else:
                self._rebind(original, self.span(span, original, hooks.get(span)))
        self._count_nodes(sys.modules.get("tokengraphs.independence"))

    def _count_nodes(self, independence) -> None:
        """Search nodes: every β solve's ``_BudgetClock`` counts its ticks in
        ``nodes``; a recording subclass keeps the clocks so the counts can be
        read after the solve, adding nothing per node."""
        clock = getattr(independence, "_BudgetClock", None)
        if clock is None or "nodes" not in getattr(clock, "__slots__", ()):
            self.absent.append("independence.nodes")
            return
        clocks = self._clocks

        class RecordedClock(clock):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clocks.append(self)

        self._patch(independence, "_BudgetClock", RecordedClock)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        self.drain()

    def drain(self) -> None:
        """Move node counts from finished solves into the counters."""
        self.counts["independence.nodes"] += sum(c.nodes for c in self._clocks)
        self._clocks.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per traced pass; an absent layer reads 0."""
        self.drain()
        table = {"self": self.self_s, "calls": self.calls, "count": self.counts}
        return {
            metric: table[stat].get(key, 0) / passes
            for metric, (stat, key) in METRICS.items()
        }


def _count_token_graph(counts, args, result) -> None:
    counts["tokens.vertices"] += result.graph.n
    counts["tokens.edges"] += result.graph.edge_count


def _count_matching(counts, args, result) -> None:
    counts["matching.vertices"] += args[0].n
