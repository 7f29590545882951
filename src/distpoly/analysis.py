"""Per-graph analysis reports and the exhaustive all-trees sweep.

analyze_graph runs the full pipeline (distances, characteristic
polynomial, coefficient sequences, predicates, bounds) on one connected
graph; it is the only place that picks the tree kernel over Berkowitz.
verify_range streams every free tree of orders 3..n_max through that
pipeline, optionally on a worker pool, and folds the results into an
aggregate whose content is independent of the worker count.

JSON conventions: coefficient-sized integers are serialized as decimal
strings because they outgrow 64-bit range quickly; dyadic rationals are
serialized as "num" or "num/den". Counts, indices and bounds stay plain
JSON numbers.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool
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
    """Per-order slice of an aggregate report."""

    expected: int
    trees: int = 0
    peak_histogram: Counter = field(default_factory=Counter)  # keyed by first peak index
    plateaus: int = 0
    slack_min: dict[str, int] = field(default_factory=dict)
    slack_max: dict[str, int] = field(default_factory=dict)


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


def analyze_graph(g: graphs.Graph, tree_id: int | None = None) -> TreeReport:
    """Run the full pipeline on a connected graph of order >= 3.

    Tree-only identities are skipped (None) when the input is not a tree:
    failing predicates on a non-tree are findings, never violations, so
    `failed` stays empty there.
    """
    if g.n < 3:
        raise ValueError("analysis requires order at least 3")
    dm = graphs.distance_matrix(g)
    diam = dm.max_entry()
    p3 = graphs.count_p3(g)
    tree = g.edge_count == g.n - 1  # connectivity established by distance_matrix

    poly = polynomials.tree_charpoly(g) if tree else polynomials.charpoly(dm)
    deltas = polynomials.delta_seq(poly)
    norm = polynomials.normalized_seq(deltas)
    peak = sequences.peak_interval(norm.d)

    n = g.n
    checks: dict[str, bool | None] = {}
    checks["trace_identities"] = (
        2 * norm.d[-1] == polynomials.trace_power(dm, 2)
        and 6 * norm.d[-2] == polynomials.trace_power(dm, 3)
    )
    checks["log_concave"] = sequences.is_log_concave(norm.d).holds
    checks["unimodal"] = sequences.is_unimodal(norm.d).holds
    checks["newton"] = sequences.newton_check(poly.coeffs).holds

    bounds: sequences.BoundSet | None = None
    if tree:
        sign = 1 if (n - 1) % 2 == 0 else -1
        checks["sign_pattern"] = all(
            sign * deltas.delta[k] > 0 for k in range(n - 1)
        )
        checks["divisibility"] = all(
            deltas.delta[k] % (1 << (n - k - 2)) == 0 for k in range(n - 1)
        )
        checks["d0_formula"] = norm.d[0] == n - 1
        checks["d1_formula"] = norm.d[1] == 2 * n * (n - 1) - 2 * p3 - 4
        checks["ratio_bound"] = sequences.ratio_bound_check(norm, n, diam).holds
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
        delta=deltas.delta,
        d=norm.d,
        peak=peak,
        bounds=bounds,
        checks=checks,
        failed=failed,
    )


# --------------------------------------------------------------------------
# JSON serialization


def exact_to_str(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def exact_from_str(text: str) -> int | Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return int(text)


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
        "d": [exact_to_str(x) for x in report.d],
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


def tree_report_from_json(data: dict) -> TreeReport:
    bounds = data["bounds"]
    return TreeReport(
        n=data["n"],
        tree_id=data["id"],
        is_tree=data["is_tree"],
        diameter=data["diameter"],
        p3_count=data["p3_count"],
        coefficients=tuple(int(c) for c in data["coefficients"]),
        delta=tuple(int(x) for x in data["delta"]),
        d=tuple(exact_from_str(x) for x in data["d"]),
        peak=sequences.PeakInterval(data["peak"]["first"], data["peak"]["last"]),
        bounds=None if bounds is None else sequences.BoundSet(**bounds),
        checks=dict(data["checks"]),
        failed=tuple(data["failed"]),
    )


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


def aggregate_report_from_json(data: dict) -> AggregateReport:
    orders = {}
    for key, entry in data["orders"].items():
        orders[int(key)] = OrderStats(
            expected=entry["expected"],
            trees=entry["trees"],
            peak_histogram=Counter(
                {int(k): v for k, v in entry["peak_first_histogram"].items()}
            ),
            plateaus=entry["plateaus"],
            slack_min=dict(entry["slack_min"]),
            slack_max=dict(entry["slack_max"]),
        )
    return AggregateReport(
        max_order=data["max_order"],
        orders=orders,
        total_trees=data["total_trees"],
        total_violations=data["total_violations"],
        plateau_anomalies=data["plateau_anomalies"],
        violations=list(data["violations"]),
        jobs=data["run"]["jobs"],
        duration_seconds=data["run"]["duration_seconds"],
    )


# --------------------------------------------------------------------------
# exhaustive sweep

_CHUNK_SIZE = 256

_SLACKS = ("thm_lo", "thm_hi", "conj_lo", "conj_hi")


def _sweep_chunk(args) -> dict:
    n, start_id, parents, want_per_tree = args
    hist: Counter = Counter()
    plateaus = 0
    slack_min: dict[str, int] = {}
    slack_max: dict[str, int] = {}
    violations: list[dict] = []
    per_tree: list[dict] = []
    for offset, parent in enumerate(parents):
        g = treegen.to_graph(treegen.CanonicalTree(n, parent))
        report = analyze_graph(g, tree_id=start_id + offset)
        hist[report.peak.first] += 1
        if report.peak.first != report.peak.last:
            plateaus += 1
        b = report.bounds
        values = (
            report.peak.first - b.thm_lo,
            b.thm_hi - report.peak.last,
            report.peak.first - b.conj_lo,
            b.conj_hi - report.peak.last,
        )
        for name, value in zip(_SLACKS, values):
            if name not in slack_min or value < slack_min[name]:
                slack_min[name] = value
            if name not in slack_max or value > slack_max[name]:
                slack_max[name] = value
        if report.failed:
            violations.append(tree_report_to_json(report))
        if want_per_tree:
            per_tree.append(tree_report_to_json(report))
    return {
        "count": len(parents),
        "hist": hist,
        "plateaus": plateaus,
        "slack_min": slack_min,
        "slack_max": slack_max,
        "violations": violations,
        "per_tree": per_tree,
    }


def _chunked_args(n: int, want_per_tree: bool):
    batch: list[tuple[int, ...]] = []
    start = 0
    produced = 0
    for tree in treegen.enumerate_trees(n):
        batch.append(tree.parent)
        produced += 1
        if len(batch) == _CHUNK_SIZE:
            yield (n, start, batch, want_per_tree)
            start = produced
            batch = []
    if batch:
        yield (n, start, batch, want_per_tree)


def _merge(stats: OrderStats, part: dict) -> None:
    stats.trees += part["count"]
    stats.peak_histogram.update(part["hist"])
    stats.plateaus += part["plateaus"]
    for name, value in part["slack_min"].items():
        if name not in stats.slack_min or value < stats.slack_min[name]:
            stats.slack_min[name] = value
    for name, value in part["slack_max"].items():
        if name not in stats.slack_max or value > stats.slack_max[name]:
            stats.slack_max[name] = value


def verify_range(
    n_max: int,
    jobs: int = 1,
    per_tree_sink: Callable[[dict], None] | None = None,
) -> AggregateReport:
    """Analyze every free tree of every order 3..n_max.

    The aggregate content is identical for any `jobs` value: chunk results
    are merged with commutative operations and consumed in enumeration
    order. A per-order count mismatch against the independent counting
    recurrence is an internal error and raises immediately.
    """
    if n_max < 3:
        raise ValueError("max order must be at least 3")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    started = time.perf_counter()
    orders: dict[int, OrderStats] = {}
    violations: list[dict] = []
    want_per_tree = per_tree_sink is not None
    pool = Pool(processes=jobs) if jobs > 1 else None
    try:
        for n in range(3, n_max + 1):
            stats = OrderStats(expected=treegen.tree_count_recurrence(n))
            chunks = _chunked_args(n, want_per_tree)
            results = (
                pool.imap(_sweep_chunk, chunks) if pool else map(_sweep_chunk, chunks)
            )
            for part in results:
                _merge(stats, part)
                violations.extend(part["violations"])
                if want_per_tree:
                    for item in part["per_tree"]:
                        per_tree_sink(item)
            if stats.trees != stats.expected:
                raise RuntimeError(
                    f"enumeration mismatch at order {n}: generated {stats.trees} "
                    f"trees but the counting recurrence gives {stats.expected}"
                )
            orders[n] = stats
    except (MemoryError, KeyboardInterrupt) as exc:
        done = sum(s.trees for s in orders.values())
        raise SweepInterrupted(
            f"sweep aborted after {done} trees; orders {sorted(orders)} completed",
            sorted(orders),
        ) from exc
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
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
