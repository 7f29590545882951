import os
import random
import signal
import subprocess
import sys
import textwrap

import pytest

import oracles
from distpoly import analysis, graphs, sequences, treegen


class TestAnalyzeGraph:
    def test_p3(self):
        report = analysis.analyze_graph(graphs.path_graph(3))
        assert report.is_tree
        assert report.n == 3
        assert report.diameter == 2
        assert report.p3_count == 1
        assert report.coefficients == (-4, -6, 0, 1)
        assert report.delta == (4, 6, 0, -1)
        assert report.d == (2, 6)
        assert report.peak == sequences.PeakInterval(1, 1)
        assert report.bounds == sequences.BoundSet(1, 2, 0, 2)
        assert all(value is True for value in report.checks.values())
        assert report.failed == ()

    def test_star6_peak(self):
        report = analysis.analyze_graph(graphs.star_graph(6))
        assert report.peak == sequences.PeakInterval(3, 3)
        assert report.failed == ()

    def test_heawood_findings(self):
        report = analysis.analyze_graph(graphs.heawood())
        assert not report.is_tree
        assert report.checks["unimodal"] is False
        assert report.checks["log_concave"] is False
        assert report.checks["newton"] is True
        assert report.checks["trace_identities"] is True
        for name in analysis.TREE_CHECKS:
            assert report.checks[name] is None
        assert report.bounds is None
        assert report.failed == ()  # findings on a non-tree are not violations

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            analysis.analyze_graph(graphs.path_graph(2))

    def test_disconnected_rejected(self):
        g = graphs.graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(graphs.DisconnectedGraphError):
            analysis.analyze_graph(g)

    def test_check_names_complete(self):
        report = analysis.analyze_graph(graphs.path_graph(4))
        assert tuple(report.checks) == analysis.CHECK_NAMES


class TestAnalyzeTree:
    def test_relabeled_graph_matches_parent_array(self):
        # analyze_graph relabels a tree into its own preorder; the report
        # must not depend on the labels it was given
        rng = random.Random(83)
        for n in range(3, 11):
            for tree in treegen.enumerate_trees(n):
                labels = list(range(n))
                rng.shuffle(labels)
                g = graphs.graph_from_edges(
                    n, [(labels[tree.parent[i]], labels[i]) for i in range(1, n)]
                )
                assert analysis.analyze_graph(g) == analysis.analyze_tree(tree.parent)

    def test_random_bfs_relabelings_through_order_12(self):
        rng = random.Random(89)
        for n in range(3, 13):
            for tree in treegen.enumerate_trees(n):
                relabeled = oracles.random_bfs_parents(rng, tree.parent)
                assert analysis.analyze_tree(relabeled) == analysis.analyze_tree(tree.parent)

    def test_tree_id_carried(self):
        report = analysis.analyze_tree((-1, 0, 1, 1), tree_id=5)
        assert report.tree_id == 5
        assert report.p3_count == 3
        assert report.diameter == 2


class TestRoundTrip:
    def test_fractional_d_serialization(self):
        import json
        from fractions import Fraction

        # complete graph on 4 vertices: d = (3/4, 4, 6), not integral
        k4 = graphs.graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        report = analysis.analyze_graph(k4)
        assert report.d == (Fraction(3, 4), 4, 6)
        data = analysis.tree_report_to_json(report)
        assert data["d"] == ["3/4", "4", "6"]
        assert json.loads(json.dumps(data)) == data


class TestVerifyRange:
    def test_counts_through_8(self):
        report = analysis.verify_range(8)
        assert report.total_trees == 1 + 2 + 3 + 6 + 11 + 23
        assert report.total_violations == 0
        for n, stats in report.orders.items():
            assert stats.trees == stats.expected == treegen.tree_count_recurrence(n)
            assert sum(stats.peak_histogram.values()) == stats.trees

    def test_total_through_10(self):
        # orders 3..10 only; orders 1 and 2 are below the analysis floor
        report = analysis.verify_range(10)
        assert report.total_trees == 199

    def test_order_validation(self):
        with pytest.raises(ValueError):
            analysis.verify_range(2)
        with pytest.raises(ValueError):
            analysis.verify_range(5, jobs=0)

    def test_parallel_aggregate_identical(self):
        serial = analysis.aggregate_report_to_json(analysis.verify_range(8, jobs=1))
        parallel = analysis.aggregate_report_to_json(analysis.verify_range(8, jobs=2))
        serial.pop("run")
        parallel.pop("run")
        assert serial == parallel

    @pytest.mark.parametrize("chunk,jobs", [(1, 1), (7, 1), (7, 2)])
    def test_chunk_boundaries_do_not_change_aggregate(self, monkeypatch, chunk, jobs):
        # every order <= 11 fits in one default chunk, so small chunks are
        # what exercises the merge of chunk stats at these orders
        def aggregate(**kwargs):
            data = analysis.aggregate_report_to_json(analysis.verify_range(10, **kwargs))
            data.pop("run")
            return data

        default = aggregate()
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
        assert aggregate(jobs=jobs) == default

    def test_per_tree_sink_streams_everything(self):
        collected = []
        report = analysis.verify_range(6, per_tree_sink=collected.append)
        assert len(collected) == report.total_trees
        ids_by_order = {}
        for item in collected:
            ids_by_order.setdefault(item["n"], []).append(item["id"])
        for n, ids in ids_by_order.items():
            assert ids == list(range(report.orders[n].trees))

    def test_per_tree_sink_parallel_same_stream(self):
        serial, parallel = [], []
        analysis.verify_range(7, jobs=1, per_tree_sink=serial.append)
        analysis.verify_range(7, jobs=2, per_tree_sink=parallel.append)
        assert serial == parallel

    def test_violation_reporting(self, monkeypatch):
        # no real tree violates the theorems, so force a failing predicate
        monkeypatch.setattr(
            analysis.sequences,
            "is_unimodal",
            lambda seq: False,
        )
        report = analysis.verify_range(4)
        assert report.total_violations == report.total_trees == 3
        assert all(item["failed"] == ["unimodal"] for item in report.violations)
        assert all(item["checks"]["unimodal"] is False for item in report.violations)

    @pytest.mark.parametrize("interrupt", [MemoryError, KeyboardInterrupt])
    def test_interruption_reports_partial_progress(self, monkeypatch, interrupt):
        real = treegen.enumerate_trees

        def exploding(n):
            if n == 5:
                raise interrupt("simulated")
            return real(n)

        monkeypatch.setattr(analysis.treegen, "enumerate_trees", exploding)
        with pytest.raises(analysis.SweepInterrupted) as err:
            analysis.verify_range(6)
        assert err.value.completed_orders == [3, 4]

    def test_dead_worker_interrupts_instead_of_hanging(self):
        # in a child interpreter with a timeout, so that a hang fails the test
        script = textwrap.dedent(
            """
            import multiprocessing, os, signal
            from distpoly import analysis

            def kill_a_worker(item):
                # order 13 spans six chunks, so both workers hold one here
                if (item["n"], item["id"]) == (13, 0):
                    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)

            try:
                analysis.verify_range(14, jobs=2, per_tree_sink=kill_a_worker)
            except analysis.SweepInterrupted:
                print("interrupted")
            print(len(multiprocessing.active_children()), "children left")
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("sweep hung after a worker was killed")
        assert proc.returncode == 0, err
        assert out == "interrupted\n0 children left\n"


class TestSlackBookkeeping:
    def test_slacks_nonnegative_and_consistent(self):
        report = analysis.verify_range(9)
        for stats in report.orders.values():
            for name in ("thm_lo", "thm_hi", "conj_lo", "conj_hi"):
                assert stats.slack_min[name] >= 0
                assert stats.slack_min[name] <= stats.slack_max[name]

    def test_plateau_counter_matches_reports(self):
        collected = []
        report = analysis.verify_range(9, per_tree_sink=collected.append)
        plateaus = sum(
            1 for item in collected if item["peak"]["first"] != item["peak"]["last"]
        )
        assert report.plateau_anomalies == plateaus
