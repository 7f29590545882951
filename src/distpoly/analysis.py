"""Per-graph analysis reports and the exhaustive all-trees sweep.

analyze_tree runs the full pipeline (characteristic polynomial, trace
identities, coefficient sequences, predicates, bounds) on a tree given
as a parent array, each parent labeled before its child, with the packed
tree kernels and no distance matrix. analyze_graph takes any connected
graph: it relabels a tree and hands it to analyze_tree, and gives every
other graph BFS distances and Berkowitz; both paths share one report
builder. verify_range streams every free tree of orders 3..n_max through
analyze_tree and folds the results into an aggregate whose content is
independent of the worker count. With worker processes, each one walks
the whole tree stream itself, analyzes every jobs-th chunk of it, and
sends the results down its own one-way pipe.

JSON conventions: coefficient-sized integers are serialized as decimal
strings because they outgrow 64-bit range quickly; dyadic rationals are
serialized as "num" or "num/den". Counts, indices and bounds stay plain
JSON numbers.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle, islice
from math import comb
from typing import Callable

from . import graphs, polynomials, sequences, treegen

# checks run on every graph
COMMON_CHECKS = ("trace_identities", "log_concave", "unimodal", "newton")
# checks whose statements only hold for trees; skipped (None) otherwise
TREE_CHECKS = (
    "sign_pattern",
    "divisibility",
    "d0_formula",
    "d1_formula",
    "ratio_bound",
    "theorem_bounds",
    "conjecture_bounds",
)
CHECK_NAMES = COMMON_CHECKS + TREE_CHECKS


class SweepInterrupted(RuntimeError):
    """Sweep aborted early; carries the orders that did complete."""

    def __init__(self, message: str, completed_orders: list[int]):
        super().__init__(message)
        self.completed_orders = completed_orders


@dataclass(frozen=True)
class TreeReport:
    """Full analysis of one graph; tree_id is its enumeration index."""

    n: int
    tree_id: int | None
    is_tree: bool
    diameter: int
    p3_count: int
    coefficients: tuple[int, ...]
    delta: tuple[int, ...]
    d: tuple[int | Fraction, ...]
    peak: sequences.PeakInterval
    bounds: sequences.BoundSet | None
    checks: dict[str, bool | None]
    failed: tuple[str, ...]


@dataclass
class OrderStats:
    """Per-order slice of an aggregate report, or of one sweep chunk."""

    expected: int = 0
    trees: int = 0
    peak_histogram: Counter = field(default_factory=Counter)  # keyed by first peak index
    plateaus: int = 0
    slack_min: dict[str, int] = field(default_factory=dict)
    slack_max: dict[str, int] = field(default_factory=dict)

    def merge(self, other: OrderStats) -> None:
        """Fold in another chunk's stats; commutative, so order-free."""
        self.trees += other.trees
        self.peak_histogram.update(other.peak_histogram)
        self.plateaus += other.plateaus
        for name, value in other.slack_min.items():
            self.slack_min[name] = min(value, self.slack_min.get(name, value))
        for name, value in other.slack_max.items():
            self.slack_max[name] = max(value, self.slack_max.get(name, value))


@dataclass
class AggregateReport:
    """Sweep summary; `jobs` and `duration_seconds` are run metadata and
    excluded from the determinism contract."""

    max_order: int
    orders: dict[int, OrderStats]
    total_trees: int
    total_violations: int
    plateau_anomalies: int
    violations: list[dict]
    jobs: int
    duration_seconds: float


def analyze_tree(parent, tree_id: int | None = None) -> TreeReport:
    """Run the full pipeline on a tree given as a parent array.

    The array follows treegen.CanonicalTree.parent: parent[0] == -1 and
    each parent before its child. No Graph or distance matrix is built.
    Raises ValueError on any other array or an order below 3.
    """
    poly = polynomials.tree_charpoly(parent)
    tr2, tr3, diam = polynomials.tree_traces(parent)
    # the degree of v is its child count, plus one unless v is the root
    children = Counter(parent[1:])
    p3 = sum(comb(c + (v > 0), 2) for v, c in children.items())
    return _report(tree_id, True, diam, p3, poly, tr2, tr3)


def analyze_graph(g: graphs.Graph, tree_id: int | None = None) -> TreeReport:
    """Run the full pipeline on a connected graph of order >= 3.

    One depth-first walk both tests for a tree and relabels it into a
    preorder parent array, which goes through analyze_tree; a graph the
    walk rejects takes BFS distances, Berkowitz and trace_power, or
    raises DisconnectedGraphError. Tree-only identities are skipped
    (None) when the input is not a tree: failing predicates on a non-tree
    are findings, never violations, so `failed` stays empty there.
    """
    if g.n < 3:
        raise ValueError("analysis requires order at least 3")
    try:
        parent = treegen.preorder_parents(g)
    except ValueError:
        pass  # not a tree
    else:
        return analyze_tree(parent, tree_id)
    dm = graphs.distance_matrix(g)  # raises DisconnectedGraphError
    poly = polynomials.charpoly(dm)
    tr2, tr3 = polynomials.trace_power(dm)
    return _report(tree_id, False, max(map(max, dm)), graphs.count_p3(g), poly, tr2, tr3)


def _report(
    tree_id: int | None,
    tree: bool,
    diam: int,
    p3: int,
    poly: polynomials.CharPoly,
    tr2: int,
    tr3: int,
) -> TreeReport:
    delta = polynomials.delta_seq(poly)
    d = polynomials.normalized_seq(delta)
    peak = sequences.peak_interval(d)

    n = poly.n
    checks: dict[str, bool | None] = {}
    checks["trace_identities"] = 2 * d[-1] == tr2 and 6 * d[-2] == tr3
    checks["log_concave"] = sequences.is_log_concave(d)
    checks["unimodal"] = sequences.is_unimodal(d)
    checks["newton"] = sequences.newton_check(poly.coeffs)

    bounds: sequences.BoundSet | None = None
    if tree:
        # (-1)^(n-1) delta_k = -c_k, and normalized_seq gives d_k as an int
        # exactly when 2^(n-k-2) divides delta_k
        checks["sign_pattern"] = all(c < 0 for c in poly.coeffs[: n - 1])
        checks["divisibility"] = not any(isinstance(x, Fraction) for x in d)
        checks["d0_formula"] = d[0] == n - 1
        checks["d1_formula"] = d[1] == 2 * n * (n - 1) - 2 * p3 - 4
        checks["ratio_bound"] = sequences.ratio_bound_check(d, diam)
        bounds = sequences.bound_set(n, p3, diam)
        two_thirds = -(-2 * n // 3)
        checks["theorem_bounds"] = (
            bounds.thm_lo <= peak.first
            and peak.last <= bounds.thm_hi
            and bounds.thm_hi <= two_thirds
        )
        checks["conjecture_bounds"] = (
            bounds.conj_lo <= peak.first and peak.last <= bounds.conj_hi
        )
    else:
        for name in TREE_CHECKS:
            checks[name] = None

    failed = tuple(name for name in CHECK_NAMES if checks[name] is False) if tree else ()
    return TreeReport(
        n=n,
        tree_id=tree_id,
        is_tree=tree,
        diameter=diam,
        p3_count=p3,
        coefficients=poly.coeffs,
        delta=delta,
        d=d,
        peak=peak,
        bounds=bounds,
        checks=checks,
        failed=failed,
    )


# --------------------------------------------------------------------------
# JSON serialization


def tree_report_to_json(report: TreeReport) -> dict:
    return {
        "type": "tree_report",
        "n": report.n,
        "id": report.tree_id,
        "is_tree": report.is_tree,
        "diameter": report.diameter,
        "p3_count": report.p3_count,
        "coefficients": [str(c) for c in report.coefficients],
        "delta": [str(x) for x in report.delta],
        "d": [str(x) for x in report.d],
        "peak": {"first": report.peak.first, "last": report.peak.last},
        "bounds": None
        if report.bounds is None
        else {
            "conj_lo": report.bounds.conj_lo,
            "conj_hi": report.bounds.conj_hi,
            "thm_lo": report.bounds.thm_lo,
            "thm_hi": report.bounds.thm_hi,
        },
        "checks": dict(report.checks),
        "failed": list(report.failed),
    }


def aggregate_report_to_json(report: AggregateReport) -> dict:
    orders = {}
    for n in sorted(report.orders):
        stats = report.orders[n]
        orders[str(n)] = {
            "trees": stats.trees,
            "expected": stats.expected,
            "peak_first_histogram": {
                str(k): stats.peak_histogram[k] for k in sorted(stats.peak_histogram)
            },
            "plateaus": stats.plateaus,
            "slack_min": {k: stats.slack_min[k] for k in sorted(stats.slack_min)},
            "slack_max": {k: stats.slack_max[k] for k in sorted(stats.slack_max)},
        }
    return {
        "type": "aggregate_report",
        "max_order": report.max_order,
        "orders": orders,
        "total_trees": report.total_trees,
        "total_violations": report.total_violations,
        "plateau_anomalies": report.plateau_anomalies,
        "violations": list(report.violations),
        "run": {"jobs": report.jobs, "duration_seconds": report.duration_seconds},
    }


# --------------------------------------------------------------------------
# exhaustive sweep

_CHUNK_SIZE = 256

_SLACKS = ("thm_lo", "thm_hi", "conj_lo", "conj_hi")


def _sweep(n: int, want_per_tree: bool, rank: int = 0, jobs: int = 1):
    """Stats, violations and (if asked) per-tree reports of chunks rank,
    rank + jobs, rank + 2*jobs, ... of the order-n tree stream."""
    trees = enumerate(tree.parent for tree in treegen.enumerate_trees(n))
    chunks = iter(lambda: list(islice(trees, _CHUNK_SIZE)), [])
    for chunk in islice(chunks, rank, None, jobs):
        stats = OrderStats(trees=len(chunk))
        slacks: list[tuple[int, ...]] = []
        violations: list[dict] = []
        per_tree: list[dict] = []
        for tree_id, parent in chunk:
            report = analyze_tree(parent, tree_id)
            first, last = report.peak.first, report.peak.last
            b = report.bounds
            stats.peak_histogram[first] += 1
            stats.plateaus += first != last
            slacks.append((first - b.thm_lo, b.thm_hi - last, first - b.conj_lo, b.conj_hi - last))
            if report.failed or want_per_tree:
                item = tree_report_to_json(report)
                if report.failed:
                    violations.append(item)
                if want_per_tree:
                    per_tree.append(item)
        columns = list(zip(*slacks))
        stats.slack_min = dict(zip(_SLACKS, map(min, columns)))
        stats.slack_max = dict(zip(_SLACKS, map(max, columns)))
        yield stats, violations, per_tree


def _worker(writer, readers, n_max: int, want_per_tree: bool, rank: int, jobs: int) -> None:
    """Pool worker `rank`: sends its chunks of every order 3..n_max down its
    pipe, in stream order, and None at the end of each order."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is left to the main process
    if hasattr(signal, "SIGPIPE"):
        # a send with no reader left, once the main process is gone, ends the worker quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    for reader in readers:
        reader.close()  # inherited by fork; a held read end would keep a pipe open
    for n in range(3, n_max + 1):
        for result in _sweep(n, want_per_tree, rank, jobs):
            writer.send(result)
        writer.send(None)


def _received(readers):
    """One order's chunk results, chunk c read from worker c mod jobs. A
    worker that dies, even in the middle of a message, raises EOFError."""
    turn = cycle(readers)
    try:
        while (result := next(turn).recv()) is not None:
            yield result
        for reader in islice(turn, len(readers) - 1):
            reader.recv()  # every other worker's end of the order
    except OSError as exc:  # "got end of file during message"
        raise EOFError(exc) from exc


def verify_range(
    n_max: int,
    jobs: int = 1,
    per_tree_sink: Callable[[dict], None] | None = None,
) -> AggregateReport:
    """Analyze every free tree of every order 3..n_max.

    The aggregate content is identical for any `jobs` value: chunk results
    are merged with commutative operations and consumed in enumeration
    order. With jobs > 1, each of `jobs` worker processes walks the whole
    tree stream and analyzes every jobs-th chunk, sending results down its
    own one-way pipe; nothing is sent to a worker. A per-order count
    mismatch against the independent counting recurrence is an internal
    error and raises immediately. Running out of memory, an interrupt or a
    worker that dies (its pipe ends) raises SweepInterrupted. The workers
    are killed on the way out, while the main thread ignores Ctrl-C; a
    worker whose main process is gone ends at its next send.
    """
    if n_max < 3:
        raise ValueError("max order must be at least 3")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    started = time.perf_counter()
    orders: dict[int, OrderStats] = {}
    violations: list[dict] = []
    want_per_tree = per_tree_sink is not None
    readers: list = []
    workers: list = []
    try:
        if jobs > 1:
            # imported only here: one job needs no workers, and the import slows every start
            import multiprocessing
            import signal

            for rank in range(jobs):
                reader, writer = multiprocessing.Pipe(duplex=False)
                readers.append(reader)
                worker = multiprocessing.Process(
                    target=_worker, args=(writer, tuple(readers), n_max, want_per_tree, rank, jobs)
                )
                worker.start()
                workers.append(worker)
                writer.close()  # the worker holds the only write end, so its death ends the pipe
        for n in range(3, n_max + 1):
            stats = OrderStats(expected=treegen.tree_count_recurrence(n))
            for part, part_violations, items in (
                _received(readers) if readers else _sweep(n, want_per_tree)
            ):
                stats.merge(part)
                violations.extend(part_violations)
                for item in items:
                    per_tree_sink(item)
            if stats.trees != stats.expected:
                raise RuntimeError(
                    f"enumeration mismatch at order {n}: generated {stats.trees} "
                    f"trees but the counting recurrence gives {stats.expected}"
                )
            orders[n] = stats
    except (MemoryError, KeyboardInterrupt, EOFError) as exc:
        done = sum(s.trees for s in orders.values())
        raise SweepInterrupted(
            f"sweep aborted after {done} trees; orders {sorted(orders)} completed",
            sorted(orders),
        ) from exc
    finally:
        if workers:
            # a second Ctrl-C must not break off the stop that ends the workers
            on_main = threading.current_thread() is threading.main_thread()
            if on_main:
                previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
            try:
                for worker in workers:
                    worker.kill()
                    worker.join()
            finally:
                if on_main:
                    signal.signal(signal.SIGINT, previous)
    return AggregateReport(
        max_order=n_max,
        orders=orders,
        total_trees=sum(s.trees for s in orders.values()),
        total_violations=len(violations),
        plateau_anomalies=sum(s.plateaus for s in orders.values()),
        violations=violations,
        jobs=jobs,
        duration_seconds=time.perf_counter() - started,
    )
