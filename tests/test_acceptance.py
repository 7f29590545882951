"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 4 (the full
order-20 sweep) is opt-in via DISTPOLY_FULL_SWEEP=1 since it takes about
a minute on 2 workers.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

import oracles
from distpoly import analysis, graphs, polynomials, sequences, treegen

HEAWOOD_COEFFS = (
    -331776,
    1892352,
    -3885056,
    2795520,
    973056,
    -1885184,
    -118272,
    573696,
    104720,
    -75936,
    -36456,
    -6328,
    -441,
    0,
    1,
)
HEAWOOD_D = (81, 924, 3794, 5460, 3801, 14728, 1848, 17928, 6545, 9492, 9114, 3164, 441)

# free-tree counts for orders 3..14, frozen independently of the package
FREE_TREE_COUNTS = {
    3: 1,
    4: 2,
    5: 3,
    6: 6,
    7: 11,
    8: 23,
    9: 47,
    10: 106,
    11: 235,
    12: 551,
    13: 1301,
    14: 3159,
}

JOBS = min(8, os.cpu_count() or 1)
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def test_criterion_1_heawood_polynomial_exact():
    started = time.perf_counter()
    poly = polynomials.charpoly(graphs.distance_matrix(graphs.heawood()))
    elapsed = time.perf_counter() - started
    assert poly.coeffs == HEAWOOD_COEFFS
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: Heawood polynomial matches exactly ({elapsed:.3f}s)")


def test_criterion_2_heawood_sequences():
    poly = polynomials.charpoly(graphs.distance_matrix(graphs.heawood()))
    d = polynomials.normalized_seq(polynomials.delta_seq(poly))
    assert d == HEAWOOD_D
    assert sequences.is_unimodal(d) is False
    assert sequences.is_log_concave(d) is False
    assert sequences.newton_check(poly.coeffs) is True
    print(
        "ACCEPTANCE 2 PASS: Heawood d-sequence matches; unimodal=False, "
        "log-concave=False, newton=True"
    )


def test_criterion_3_desk_scale_sweep():
    started = time.perf_counter()
    report = analysis.verify_range(14, jobs=JOBS)
    elapsed = time.perf_counter() - started

    assert report.violations == []
    payload = analysis.aggregate_report_to_json(report)
    assert payload["total_violations"] == 0
    for n, expected in FREE_TREE_COUNTS.items():
        assert report.orders[n].total() == expected
        assert payload["orders"][str(n)]["expected"] == expected
    assert payload["total_trees"] == sum(FREE_TREE_COUNTS.values())
    assert elapsed <= 120.0

    # everything outside `run` is pinned byte for byte by the checked-in golden
    del payload["run"]
    golden = (GOLDEN_DIR / "aggregate_14.json").read_text()
    assert json.dumps(payload, indent=2) + "\n" == golden

    # cross-check orders 3..9 against the Prufer oracle: identical
    # isomorphism classes, and the labeled multiplicities sum to n^(n-2)
    for n in range(3, 10):
        if n <= 7:
            census = oracles.prufer_form_census(n)
        else:
            census = oracles.prufer_form_census_parallel(n, JOBS)
        assert sum(census.values()) == n ** (n - 2)
        generated = {
            oracles.ahu_form(treegen.to_graph(parent).adj) for parent in treegen.tree_stream(n)
        }
        assert len(generated) == report.orders[n].total()
        assert generated == set(census)
    oracle_elapsed = time.perf_counter() - started - elapsed
    print(
        f"ACCEPTANCE 3 PASS: verify to order 14 processed {payload['total_trees']} trees, "
        f"0 violations ({elapsed:.1f}s sweep, {oracle_elapsed:.1f}s oracle cross-check)"
    )


@pytest.mark.skipif(
    os.environ.get("DISTPOLY_FULL_SWEEP") != "1",
    reason="full order-20 sweep is opt-in: set DISTPOLY_FULL_SWEEP=1 (about a minute on 2 workers)",
)
def test_criterion_4_paper_scale_sweep():
    started = time.perf_counter()
    report = analysis.verify_range(20, jobs=JOBS)
    elapsed = time.perf_counter() - started

    expected_total = sum(treegen.tree_count_recurrence(n) for n in range(3, 21))
    payload = analysis.aggregate_report_to_json(report)
    assert payload["total_trees"] == expected_total
    assert report.orders[20].total() == 823065
    assert report.violations == []
    del payload["run"]
    golden = (GOLDEN_DIR / "aggregate_20.json").read_text()
    assert json.dumps(payload, indent=2) + "\n" == golden
    # stated budget: one hour on eight workers, pro-rated for fewer cores
    assert elapsed <= 3600.0 * 8 / JOBS
    print(
        f"ACCEPTANCE 4 PASS: all {payload['total_trees']} trees of orders 3..20, "
        f"0 violations ({elapsed:.0f}s on {JOBS} workers)"
    )


def test_criterion_5_star_peaks():
    for n in range(3, 21):
        report = analysis.analyze_graph(oracles.star_graph(n))
        assert report.peak == sequences.PeakInterval(n // 2, n // 2), f"star order {n}"
        assert report.failed == ()
    print("ACCEPTANCE 5 PASS: star peak is (n//2, n//2) for all 3 <= n <= 20")


def test_criterion_6_path_peak_trend():
    ratios = []
    for n in range(3, 41):
        dm = graphs.distance_matrix(oracles.path_graph(n))
        d = polynomials.normalized_seq(polynomials.delta_seq(polynomials.charpoly(dm)))
        peak = sequences.peak_interval(d)
        bounds = sequences.bound_set(n, n - 2, n - 1)  # the path's P3 count and diameter
        assert bounds.conj_lo <= peak.first and peak.last <= bounds.conj_hi, f"path order {n}"
        ratios.append((n, peak.first, peak.last, peak.first / n))
    # qualitative report only: the expected trend is about 0.5528
    sample = ", ".join(f"n={n}:{first}/{n}={ratio:.4f}" for n, first, _, ratio in ratios[-4:])
    print(f"ACCEPTANCE 6 PASS: path peaks lie in the conjectured window; {sample}")


def test_criterion_7_oracle_equivalence_500_random_trees():
    rng = random.Random(4057)
    started = time.perf_counter()
    for _ in range(500):
        n = rng.randint(3, 14)
        adj = oracles.random_tree_adj(rng, n)
        g = graphs.graph_from_edges(
            n, [(u, v) for u in range(n) for v in adj[u] if u < v]
        )
        dm = graphs.distance_matrix(g)
        poly = polynomials.charpoly(dm)
        kernel = polynomials.level_fold(n)(treegen.preorder_parents(g))
        for t in (0, 1, 2, 3):
            assert oracles.evaluate(poly.coeffs, t) == oracles.det_at(dm, t)
            assert oracles.evaluate(kernel.coeffs, t) == oracles.det_at(dm, t)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        "ACCEPTANCE 7 PASS: 500 random trees, Berkowitz and the tree kernel agree "
        f"with the determinant oracle ({elapsed:.1f}s)"
    )


def test_criterion_8_scaled_polynomial_through_order_10():
    for n in range(3, 11):
        for parent in treegen.tree_stream(n):
            dm = graphs.distance_matrix(treegen.to_graph(parent))
            coeffs = oracles.scaled_poly(dm)
            d = polynomials.normalized_seq(polynomials.delta_seq(polynomials.charpoly(dm)))
            assert coeffs[n] == -4
            assert coeffs[n - 1] == 0
            assert coeffs[: n - 1] == d
    print("ACCEPTANCE 8 PASS: scaled polynomial structure holds for every tree to order 10")
