"""Spans around distpoly's public functions, recorded from outside the package.

Each layer is one distpoly module. The tracer replaces a module attribute
(say `distpoly.polynomials.charpoly`) with a wrapper that records a span
and calls the original; the package looks those attributes up at call
time, so no file under src/ changes. Spans are kept in memory as
(id, name, start, end, parent id) and written out when the run ends; a
span's parent is the innermost span open when it started. Every workload
runs single-threaded in one process, which is what the one stack assumes.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); enumerate_trees is a generator, so its
# span covers each `next`, which is where the generator does its work
TARGETS = (
    ("treegen", "enumerate_trees", "treegen.enumerate"),
    ("treegen", "to_graph", "treegen.to_graph"),
    ("graphs", "distance_matrix", "graphs.distance_matrix"),
    ("graphs", "count_p3", "graphs.count_p3"),
    ("polynomials", "charpoly", "polynomials.charpoly"),
    ("polynomials", "trace_power", "polynomials.trace_power"),
    ("polynomials", "delta_seq", "polynomials.delta_seq"),
    ("polynomials", "normalized_seq", "polynomials.normalized_seq"),
    ("sequences", "is_unimodal", "sequences.is_unimodal"),
    ("sequences", "is_log_concave", "sequences.is_log_concave"),
    ("sequences", "newton_check", "sequences.newton_check"),
    ("sequences", "peak_interval", "sequences.peak_interval"),
    ("sequences", "ratio_bound_check", "sequences.ratio_bound_check"),
    ("sequences", "bound_set", "sequences.bound_set"),
    ("analysis", "analyze_graph", "analysis.analyze_graph"),
    ("analysis", "tree_report_to_json", "analysis.tree_report_to_json"),
    ("analysis", "verify_range", "analysis.verify_range"),
    ("cli", "main", "cli.main"),
)

PREDICATES = (
    "sequences.is_unimodal",
    "sequences.is_log_concave",
    "sequences.newton_check",
    "sequences.peak_interval",
    "sequences.ratio_bound_check",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float, parent: int | None) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def span(self, fn, name: str):
        """`fn` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent)

        return wrapper

    def generator_span(self, fn, name: str):
        """Like `span`, for a generator function: one span per `next`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, start, parent)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def install(self, program) -> None:
        for module_name, attr, name in TARGETS:
            module = getattr(program, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if attr == "enumerate_trees":
                wrapped = self.generator_span(fn, name)
            elif attr == "verify_range":
                wrapped = self._verify_range_span(fn, name)
            else:
                wrapped = self.span(fn, name)
            setattr(module, attr, wrapped)

    def _verify_range_span(self, fn, name: str):
        # the CLI's per-tree JSON-lines writer is a closure passed in as
        # per_tree_sink; wrapping it separates output cost from sweep cost
        def call(*args, **kwargs):
            sink = kwargs.get("per_tree_sink")
            if sink is not None:
                kwargs["per_tree_sink"] = self.span(sink, "cli.per_tree_sink")
            return fn(*args, **kwargs)

        return self.span(functools.wraps(fn)(call), name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> tuple[list[tuple], Counter]:
        """Spans and counts recorded since the last call; resets both."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer totals for one traced pass.

    Self time is a span's duration minus the durations of its child spans,
    which run one after another and so do not overlap.
    """
    total: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: defaultdict[int, float] = defaultdict(float)
    for _, name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start

    def self_time(name: str) -> float:
        return sum(e - s - child_time[sid] for sid, n, s, e, _ in spans if n == name)

    return {
        "treegen.enumerate.s": total["treegen.enumerate"],
        "treegen.enumerate.trees": counts["treegen.enumerate.items"],
        "treegen.to_graph.s": total["treegen.to_graph"],
        "treegen.to_graph.calls": calls["treegen.to_graph"],
        "graphs.distance_matrix.s": total["graphs.distance_matrix"],
        "graphs.distance_matrix.calls": calls["graphs.distance_matrix"],
        "graphs.count_p3.s": total["graphs.count_p3"],
        "polynomials.charpoly.s": total["polynomials.charpoly"],
        "polynomials.charpoly.calls": calls["polynomials.charpoly"],
        "polynomials.trace_power.s": total["polynomials.trace_power"],
        "polynomials.trace_power.calls": calls["polynomials.trace_power"],
        "polynomials.normalize.s": total["polynomials.delta_seq"]
        + total["polynomials.normalized_seq"],
        "sequences.predicates.s": sum(total[name] for name in PREDICATES),
        "sequences.bound_set.s": total["sequences.bound_set"],
        "analysis.analyze_graph.s": total["analysis.analyze_graph"],
        "analysis.analyze_graph.calls": calls["analysis.analyze_graph"],
        "analysis.analyze_graph.self_s": self_time("analysis.analyze_graph"),
        "analysis.tree_report_to_json.s": total["analysis.tree_report_to_json"],
        "analysis.tree_report_to_json.calls": calls["analysis.tree_report_to_json"],
        "analysis.verify_range.s": total["analysis.verify_range"],
        "analysis.sweep_other_s": self_time("analysis.verify_range"),
        "cli.main.s": total["cli.main"],
        # cli.main's only traced child is verify_range
        "cli.output.s": self_time("cli.main"),
        "cli.per_tree_sink.s": total["cli.per_tree_sink"],
        "cli.per_tree_sink.calls": calls["cli.per_tree_sink"],
    }
