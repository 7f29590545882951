"""Per-graph analysis reports and the exhaustive all-trees sweep.

analyze_tree runs the full pipeline (characteristic polynomial, trace
identities, coefficient sequences, predicates, bounds) on a tree given
as a preorder parent array, the form treegen.tree_stream yields, with
the two tree folds and no distance matrix. analyze_graph relabels a tree
into a preorder (treegen.preorder_parents, the one relabeler) for
analyze_tree, and gives every other graph BFS distances and Berkowitz.
Both then run each check once (_checks) and build the TreeReport from
what the checks computed (_report). A tree takes one way in, _tree_step,
which runs stage by stage over a batch of parent arrays: it folds every
polynomial, then every trace triple (polynomials.level_fold and
trace_fold, which also check the arrays), then counts the 2-paths, and
last runs the checks on each tree. analyze_tree passes a batch of one
tree; verify_range passes each chunk of the stream of every free tree of
orders 3..n_max, and counts the trees per (peak, bounds) pair. Those
counts are the whole aggregate, merged by Counter addition, so its
content is independent of the worker count; aggregate_report_to_json
derives every number it writes from them. The sweep builds a report
only for a tree that fails a check, or for every tree when per-tree
reports are asked for.

JSON conventions: coefficient-sized integers are serialized as decimal
strings because they outgrow 64-bit range quickly; dyadic rationals are
serialized as "num" or "num/den". Counts, indices and bounds stay plain
JSON numbers.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from operator import mul
from typing import Callable, NamedTuple

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
    """Sweep aborted early; the message names the orders that did complete."""


@dataclass(frozen=True)
class TreeReport:
    """Full analysis of one graph."""

    n: int
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


class AggregateReport(NamedTuple):
    """Sweep result: for each order, the count of trees per (peak, bounds)
    pair, merged over the chunks by Counter addition, and the reports of
    the trees that failed a check. `jobs` and `duration_seconds` are run
    metadata and excluded from the determinism contract."""

    orders: dict[int, Counter]  # n -> (PeakInterval, BoundSet) -> trees
    violations: list[dict]
    jobs: int
    duration_seconds: float


def analyze_tree(parent) -> TreeReport:
    """Run the full pipeline on a tree given as a preorder parent array.

    The array takes the form of the parent arrays that
    treegen.tree_stream yields: parent[0] == -1 and each other parent[i]
    on the root path of i - 1. No Graph or distance matrix is built.
    The folds raise ValueError on any other array or an order below 3;
    treegen.preorder_parents relabels a tree Graph into the form, and
    treegen.to_graph builds the Graph of one.
    """
    return _report(*_tree_step(len(parent))([parent])[0])


def analyze_graph(g: graphs.Graph) -> TreeReport:
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
        return analyze_tree(parent)
    dm = graphs.distance_matrix(g)  # raises DisconnectedGraphError
    poly = polynomials.charpoly(dm)
    tr2, tr3 = polynomials.trace_power(dm)
    diam, p3 = max(map(max, dm)), graphs.count_p3(g)
    return _report(diam, p3, poly, _checks(False, diam, p3, poly, tr2, tr3))


def _tree_step(n: int):
    """steps(parents) -> the arguments of _report for each order-n tree of
    the batch parents of preorder parent arrays, in order. The steps run
    stage by stage over the batch: they fold every polynomial, then every
    trace triple (each fold checks the array and restarts from the tree
    before), then count every tree's 2-paths, sum C(deg v, 2), and last
    run _checks once per tree."""
    fold = polynomials.level_fold(n)
    traces = polynomials.trace_fold(n)

    def steps(parents):
        polys = list(map(fold, parents))
        traced = list(map(traces, parents))
        p3s = []
        for parent in parents:
            degree = [1] * n
            degree[0] = 0
            for p in parent[1:]:
                degree[p] += 1
            # the degrees sum to 2(n - 1)
            p3s.append((sum(map(mul, degree, degree)) >> 1) - n + 1)
        return [
            (diam, p3, poly, _checks(True, diam, p3, poly, tr2, tr3))
            for poly, (tr2, tr3, diam), p3 in zip(polys, traced, p3s)
        ]

    return steps


def _checks(tree: bool, diam: int, p3: int, poly: polynomials.CharPoly, tr2: int, tr3: int):
    """Runs every check once on a graph's polynomial; returns delta, d, peak,
    bounds and the outcomes in CHECK_NAMES order (bounds and the tree checks
    None off trees). The traces and p3 come apart from poly, so the trace
    identities and the d_1 formula check poly against the graph."""
    delta = polynomials.delta_seq(poly)
    d = polynomials.normalized_seq(delta)
    peak = sequences.peak_interval(d)
    outcomes = (
        2 * d[-1] == tr2 and 6 * d[-2] == tr3,
        sequences.is_log_concave(d),
        sequences.is_unimodal(d),
        sequences.newton_check(poly.coeffs),
    )
    if not tree:
        return delta, d, peak, None, outcomes + (None,) * len(TREE_CHECKS)
    n = poly.n
    bounds = sequences.bound_set(n, p3, diam)
    # (-1)^(n-1) delta_k = -c_k, and normalized_seq gives d_k as an int
    # exactly when 2^(n-k-2) divides delta_k
    return delta, d, peak, bounds, outcomes + (
        max(poly.coeffs[: n - 1]) < 0,
        Fraction not in map(type, d),
        d[0] == n - 1,
        d[1] == 2 * n * (n - 1) - 2 * p3 - 4,
        sequences.ratio_bound_check(d, diam),
        bounds.thm_lo <= peak.first and peak.last <= bounds.thm_hi <= sequences.theorem_cap(n),
        bounds.conj_lo <= peak.first and peak.last <= bounds.conj_hi,
    )


def _report(diam: int, p3: int, poly, checked) -> TreeReport:
    """The report of what _checks returned for the graph, a tree when it
    gave bounds; runs no check."""
    delta, d, peak, bounds, outcomes = checked
    checks = dict(zip(CHECK_NAMES, outcomes))
    tree = bounds is not None
    return TreeReport(
        n=poly.n,
        is_tree=tree,
        diameter=diam,
        p3_count=p3,
        coefficients=poly.coeffs,
        delta=delta,
        d=d,
        peak=peak,
        bounds=bounds,
        checks=checks,
        failed=tuple([name for name in CHECK_NAMES if checks[name] is False]) if tree else (),
    )


# --------------------------------------------------------------------------
# JSON serialization


def tree_report_to_json(report: TreeReport) -> dict:
    return {
        "type": "tree_report",
        "n": report.n,
        "id": None,  # a sweep sets the tree's index in its stream
        "is_tree": report.is_tree,
        "diameter": report.diameter,
        "p3_count": report.p3_count,
        "coefficients": [str(c) for c in report.coefficients],
        "delta": [str(x) for x in report.delta],
        "d": [str(x) for x in report.d],
        "peak": report.peak._asdict(),
        "bounds": None if report.bounds is None else report.bounds._asdict(),
        "checks": dict(report.checks),
        "failed": list(report.failed),
    }


_SLACKS = ("conj_hi", "conj_lo", "thm_hi", "thm_lo")


def _order_to_json(n: int, shapes: Counter) -> dict:
    """Order n's numbers, each read off its count of trees per (peak,
    bounds) pair, and the independent count of its trees. A bound's slack
    is first - lo for a lower bound and hi - last for an upper bound."""
    firsts: Counter = Counter()
    plateaus = 0
    slacks = []
    for ((first, last), b), count in shapes.items():
        firsts[first] += count
        plateaus += count * (first != last)
        slacks.append((b.conj_hi - last, first - b.conj_lo, b.thm_hi - last, first - b.thm_lo))
    columns = list(zip(*slacks))
    return {
        "trees": shapes.total(),
        "expected": treegen.tree_count_recurrence(n),
        "peak_first_histogram": {str(k): firsts[k] for k in sorted(firsts)},
        "plateaus": plateaus,
        "slack_min": dict(zip(_SLACKS, map(min, columns))),
        "slack_max": dict(zip(_SLACKS, map(max, columns))),
    }


def aggregate_report_to_json(report: AggregateReport) -> dict:
    """The one place that derives the aggregate's numbers from its Counters."""
    orders = {str(n): _order_to_json(n, report.orders[n]) for n in sorted(report.orders)}
    return {
        "type": "aggregate_report",
        "max_order": max(report.orders),
        "orders": orders,
        "total_trees": sum(order["trees"] for order in orders.values()),
        "total_violations": len(report.violations),
        "plateau_anomalies": sum(order["plateaus"] for order in orders.values()),
        "violations": list(report.violations),
        "run": {"jobs": report.jobs, "duration_seconds": report.duration_seconds},
    }


# --------------------------------------------------------------------------
# exhaustive sweep

# Two roles: a worker's unit of work (worker rank takes every jobs-th chunk
# of the stream), and the batch each stage of _tree_step runs over. Stage by
# stage over 256-tree chunks took 24 us per tree against 28.5 us for all
# stages per tree in turn on all of order 11, and 40 against 45.5 us on the
# first 4,096 trees of order 20 (best of 200 and 15; Python 3.11, 2 vCPUs).
_CHUNK_SIZE = 256


def _sweep(n: int, want_per_tree: bool, rank: int = 0, jobs: int = 1):
    """Tree counts per (peak, bounds) pair and the report items of the
    trees that fail a check (of every tree, if asked) of chunks rank,
    rank + jobs, rank + 2*jobs, ... of the order-n tree stream."""
    steps = _tree_step(n)
    trees = treegen.tree_stream(n)
    chunks = iter(lambda: list(islice(trees, _CHUNK_SIZE)), [])
    for index, chunk in islice(enumerate(chunks), rank, None, jobs):
        shapes: Counter = Counter()
        items: list[dict] = []
        for tree_id, stepped in enumerate(steps(chunk), index * _CHUNK_SIZE):
            _, _, peak, bounds, outcomes = stepped[3]
            shapes[peak, bounds] += 1
            if want_per_tree or False in outcomes:
                item = tree_report_to_json(_report(*stepped))
                item["id"] = tree_id  # keeps the key's place, so the JSON line is unchanged
                items.append(item)
        yield shapes, items


def _worker(writer, readers, n_max: int, want_per_tree: bool, rank: int, jobs: int) -> None:
    """Pool worker `rank`: sends down its pipe its chunks of every order
    3..n_max in stream order, None after each order, and what it raises."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is left to the main process
    if hasattr(signal, "SIGPIPE"):
        # a send with no reader left, once the main process is gone, ends the worker quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    for reader in readers:
        reader.close()  # inherited by fork; a held read end would keep a pipe open
    try:
        for n in range(3, n_max + 1):
            for result in _sweep(n, want_per_tree, rank, jobs):
                writer.send(result)
            writer.send(None)
    except Exception as exc:  # raised in the main process, as it is at one job
        writer.send(exc)


def _received(readers):
    """One order's chunk results, chunk c read from worker c mod jobs, up
    to every worker's end of the order. A worker that dies, even in the
    middle of a message, raises EOFError; an exception it sent is raised."""
    turn = cycle(readers)
    ends = 0
    while ends < len(readers):
        try:
            message = next(turn).recv()
        except OSError as exc:  # "got end of file during message"
            raise EOFError(exc) from exc
        if isinstance(message, Exception):
            raise message
        if message is None:
            ends += 1
        else:
            yield message


def check_sweep_args(n_max: int, jobs: int) -> None:
    """Raise ValueError unless verify_range(n_max, jobs) can start."""
    if n_max < 3:
        raise ValueError("max order must be at least 3")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


def verify_range(
    n_max: int,
    jobs: int = 1,
    per_tree_sink: Callable[[dict], None] | None = None,
) -> AggregateReport:
    """Analyze every free tree of every order 3..n_max.

    The aggregate content is identical for any `jobs` value: chunk results
    are merged by Counter addition and consumed in enumeration order.
    With jobs > 1, each of `jobs` worker processes walks the whole
    tree stream and analyzes every jobs-th chunk, sending the results, or
    the exception that stopped it, down its own one-way pipe; nothing is
    sent to a worker, and the main process raises that exception as one
    job would. A per-order count mismatch against the independent counting
    recurrence is an internal error and raises immediately. Running out of memory, an interrupt or a
    worker that dies (its pipe ends) raises SweepInterrupted. The workers
    are killed on the way out, while the main thread ignores Ctrl-C; a
    worker whose main process is gone ends at its next send.
    """
    check_sweep_args(n_max, jobs)
    started = time.perf_counter()
    orders: dict[int, Counter] = {}
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
            shapes: Counter = Counter()
            for chunk, items in _received(readers) if readers else _sweep(n, want_per_tree):
                shapes.update(chunk)
                for item in items:
                    if item["failed"]:
                        violations.append(item)
                    if want_per_tree:
                        per_tree_sink(item)
            expected = treegen.tree_count_recurrence(n)
            if shapes.total() != expected:
                raise RuntimeError(
                    f"enumeration mismatch at order {n}: generated {shapes.total()} "
                    f"trees but the counting recurrence gives {expected}"
                )
            orders[n] = shapes
    except (MemoryError, KeyboardInterrupt, EOFError) as exc:
        done = sum(map(Counter.total, orders.values()))
        raise SweepInterrupted(
            f"sweep aborted after {done} trees; orders {sorted(orders)} completed"
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
        orders=orders,
        violations=violations,
        jobs=jobs,
        duration_seconds=time.perf_counter() - started,
    )
