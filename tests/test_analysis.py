import os
import random
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

import oracles
from distpoly import analysis, graphs, polynomials, sequences, treegen


class TestAnalyzeGraph:
    def test_p3(self):
        report = analysis.analyze_graph(oracles.path_graph(3))
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
        report = analysis.analyze_graph(oracles.star_graph(6))
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
            analysis.analyze_graph(oracles.path_graph(2))

    def test_disconnected_rejected(self):
        g = graphs.graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(graphs.DisconnectedGraphError):
            analysis.analyze_graph(g)

    def test_check_names_complete(self):
        report = analysis.analyze_graph(oracles.path_graph(4))
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


class TestTreeChecks:
    """_report on a tree's polynomial with one coefficient altered."""

    PARENT = (-1, 0, 1, 1, 3, 4)

    def report_with(self, k: int, value) -> analysis.TreeReport:
        poly = polynomials.tree_charpoly(self.PARENT)
        coeffs = list(poly.coeffs)
        coeffs[k] = value(coeffs[k])
        tr2, tr3, diam = polynomials.tree_traces(self.PARENT)
        p3 = analysis.analyze_tree(self.PARENT).p3_count
        altered = polynomials.CharPoly(poly.n, tuple(coeffs))
        return analysis._report(None, True, diam, p3, altered, tr2, tr3)

    def test_unaltered_polynomial_passes(self):
        assert self.report_with(2, lambda c: c).failed == ()

    @pytest.mark.parametrize("k", range(4))  # d_{n-2} = |delta_{n-2}| is always whole
    def test_odd_delta_fails_divisibility(self, k):
        report = self.report_with(k, lambda c: c - 1)  # c_k stays negative, delta_k odd
        assert report.checks["divisibility"] is False
        assert report.checks["sign_pattern"] is True
        assert "divisibility" in report.failed

    @pytest.mark.parametrize("k", range(5))
    def test_positive_coefficient_fails_sign_pattern(self, k):
        report = self.report_with(k, abs)  # |delta_k|, and with it d, unchanged
        assert report.checks["sign_pattern"] is False
        assert report.checks["divisibility"] is True
        assert "sign_pattern" in report.failed


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

    @pytest.mark.parametrize("chunk,jobs", [(1, 1), (7, 1), (7, 2), (7, 3), (1, 3)])
    def test_chunk_boundaries_do_not_change_aggregate(self, monkeypatch, chunk, jobs):
        # every order <= 11 fits in one default chunk, so small chunks are
        # what exercises the merge of chunk stats, and the stride of chunks
        # over the workers, at these orders
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

    def test_per_tree_sink_parallel_same_stream(self, monkeypatch):
        serial = []
        analysis.verify_range(8, jobs=1, per_tree_sink=serial.append)
        # chunks of 7 split order 8 into four, so the items of the workers
        # interleave; of three workers, the third has no chunk below order 8
        for chunk, jobs in [(analysis._CHUNK_SIZE, 2), (7, 2), (7, 3)]:
            monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
            parallel = []
            analysis.verify_range(8, jobs=jobs, per_tree_sink=parallel.append)
            assert parallel == serial, (chunk, jobs)

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
        code, out, err = run_child(
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
            """,
            "sweep hung after a worker was killed",
        )
        assert code == 0, err
        assert out == "interrupted\n0 children left\n"

    def test_worker_dead_mid_message_interrupts(self):
        code, out, err = run_child(
            """
            import multiprocessing, os, struct
            from distpoly import analysis

            real_worker = analysis._worker

            def die_mid_message(writer, readers, n_max, want_per_tree, rank, jobs):
                if rank < jobs - 1:
                    return real_worker(writer, readers, n_max, want_per_tree, rank, jobs)
                # the last worker started: a length header that announces
                # more bytes than follow
                os.write(writer.fileno(), struct.pack("!i", 1000) + b"partial")
                os._exit(1)

            multiprocessing.set_start_method("fork")  # the workers inherit the patch
            analysis._worker = die_mid_message
            try:
                analysis.verify_range(10, jobs=2)
            except analysis.SweepInterrupted:
                print("interrupted")
            print(len(multiprocessing.active_children()), "children left")
            """,
            "sweep hung after a worker died mid-message",
        )
        assert code == 0, err
        assert out == "interrupted\n0 children left\n"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_workers_exit_when_the_main_process_is_killed(self):
        code, out, _ = run_child(
            """
            import multiprocessing, os, signal
            from distpoly import analysis

            def die_mid_sweep(item):
                if (item["n"], item["id"]) == (13, 0):
                    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
                    os.kill(os.getpid(), signal.SIGKILL)

            analysis.verify_range(14, jobs=2, per_tree_sink=die_mid_sweep)
            """,
            "sweep hung before its main process was killed",
        )
        assert code == -signal.SIGKILL
        workers = [int(pid) for pid in out.split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == [], "pool workers outlived the main process"

    def test_second_interrupt_during_shutdown_is_ignored(self):
        code, out, err = run_child(
            """
            import multiprocessing, os, signal
            from distpoly import analysis

            real_join = multiprocessing.Process.join

            def interrupted_join(self, *args, **kwargs):
                os.kill(os.getpid(), signal.SIGINT)  # a second Ctrl-C
                real_join(self, *args, **kwargs)

            def first_interrupt(item):
                raise KeyboardInterrupt

            multiprocessing.Process.join = interrupted_join
            try:
                analysis.verify_range(8, jobs=2, per_tree_sink=first_interrupt)
            except analysis.SweepInterrupted:
                print("interrupted")
            """,
            "sweep hung in its shutdown",
        )
        assert (code, out, err) == (0, "interrupted\n", "")


def run_child(script: str, hang_message: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a script run in a child interpreter.

    The output goes to files, not pipes, so that only the child is waited
    for and not the processes it leaves behind; a run over 60 s fails the
    test, so that a hang cannot stall the suite.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail(hang_message)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read()


def running(pid: int) -> bool:
    """Whether a process exists and is not a zombie, read from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


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
