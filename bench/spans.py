"""Span wrappers around the public functions of each layer, for the traced run.

The wrappers live here, not in the program: `install` replaces a function
in every `unigraph` module namespace that holds it (membership and cli
import functions by name), and `uninstall` puts the originals back.

Spans are aggregated as they close rather than stored one by one, because
the solver makes hundreds of thousands of polar-factor calls in a run: per
name the tracer keeps calls, total time, self time (duration minus the time
its child spans cover) and how many calls returned something other than
None.
"""
from __future__ import annotations

import sys
import time

# (module, attribute path, metric name)
TRACED = (
    ("unigraph.cli", "main", "cli.main"),
    ("unigraph.cli", "parse_digraph", "cli.parse_digraph"),
    ("unigraph.membership", "certify", "membership.certify"),
    ("unigraph.membership", "necessary_battery", "membership.necessary_battery"),
    ("unigraph.membership", "alternating_projection", "membership.alternating_projection"),
    ("unigraph.digraphs", "structure_report", "digraphs.structure_report"),
    ("unigraph.digraphs", "connectivity_numbers", "digraphs.connectivity_numbers"),
    ("unigraph.digraphs", "hall_violations", "digraphs.hall_violations"),
    ("unigraph.digraphs", "quadrangularity_violations", "digraphs.quadrangularity_violations"),
    ("unigraph.digraphs", "bipartition", "digraphs.bipartition"),
    ("unigraph.digraphs", "term_rank", "digraphs.term_rank"),
    ("unigraph.digraphs", "induced_subgraph_search", "digraphs.induced_subgraph_search"),
    ("unigraph.digraphs", "Digraph.__init__", "digraphs.Digraph.init"),
    ("unigraph.matrices", "nearest_unitary", "matrices.nearest_unitary"),
    ("unigraph.matrices", "unitarity_residual", "matrices.unitarity_residual"),
    ("unigraph.linedigraphs", "line_digraph", "linedigraphs.line_digraph"),
    ("unigraph.linedigraphs", "recognize_line_digraph", "linedigraphs.recognize_line_digraph"),
    ("unigraph.linedigraphs", "independent_full_submatrices",
     "linedigraphs.independent_full_submatrices"),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, non_none]
        self._children: list[float] = []  # child time covered, one slot per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - covered
                if result is not None:
                    stats[3] += 1

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "unigraph" or k.startswith("unigraph.")]
        for module_name, path, name in TRACED:
            owner = sys.modules[module_name]
            if path == "Digraph.__init__":
                cls = owner.Digraph
                self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, target, attr, wrapper) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def table(self, answers: int) -> dict:
        """Per-name means per answer: calls, total ms, self ms, and the non-None share."""
        out = {}
        for name, (calls, total, self_s, non_none) in sorted(self.stats.items()):
            out[name] = {
                "calls": calls / answers,
                "total_ms": total * 1e3 / answers,
                "self_ms": self_s * 1e3 / answers,
                "non_none_ratio": non_none / calls if calls else 0.0,
            }
        return out
