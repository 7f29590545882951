import dataclasses
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from collections import Counter

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
            for parent in treegen.tree_stream(n):
                labels = list(range(n))
                rng.shuffle(labels)
                g = graphs.graph_from_edges(
                    n, [(labels[parent[i]], labels[i]) for i in range(1, n)]
                )
                assert analysis.analyze_graph(g) == analysis.analyze_tree(parent)

    def test_p3_count_and_diameter(self):
        report = analysis.analyze_tree((-1, 0, 1, 1))  # the star on 4 vertices, centre 1
        assert report.p3_count == 3
        assert report.diameter == 2


class TestTreeStep:
    """_tree_step runs each stage over the whole batch before the next one;
    every tree's results must come back in its place, as a fresh step gives."""

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("n", range(3, 12))
    def test_batches_equal_trees_stepped_one_at_a_time(self, n, shuffled, batch):
        trees = list(treegen.tree_stream(n))
        if shuffled:
            random.Random(n).shuffle(trees)
        steps = analysis._tree_step(n)
        stepped = [
            result
            for start in range(0, len(trees), batch)
            for result in steps(trees[start : start + batch])
        ]
        assert stepped == [analysis._tree_step(n)([parent])[0] for parent in trees]


class TestTreeChecks:
    """_checks and _report on a tree's polynomial with one coefficient altered."""

    PARENT = (-1, 0, 1, 1, 3, 4)

    def report_with(self, k: int, value) -> analysis.TreeReport:
        n = len(self.PARENT)
        poly = polynomials.level_fold(n)(self.PARENT)
        coeffs = list(poly.coeffs)
        coeffs[k] = value(coeffs[k])
        tr2, tr3, diam = polynomials.trace_fold(n)(self.PARENT)
        p3 = analysis.analyze_tree(self.PARENT).p3_count
        altered = polynomials.CharPoly(poly.n, tuple(coeffs))
        checked = analysis._checks(True, diam, p3, altered, tr2, tr3)
        return analysis._report(diam, p3, altered, checked)

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


def patch_fold(monkeypatch, name, alter):
    """Patch the fold factory polynomials.<name> so that each result r of
    a tree whose level sum is odd, about half the trees, becomes alter(r, n)."""
    real = getattr(polynomials, name)

    def factory(n):
        fold = real(n)

        def faulty(parent):
            result = fold(parent)
            return alter(result, n) if sum(oracles.levels_from_parents(parent)) % 2 else result

        return faulty

    monkeypatch.setattr(polynomials, name, factory)


def coefficient_fault(k, change):
    """A level_fold fault: c_k becomes change(c_k, n)."""

    def fault(monkeypatch):
        def alter(poly, n):
            coeffs = list(poly.coeffs)
            coeffs[k] = change(coeffs[k], n)
            return polynomials.CharPoly(n, tuple(coeffs))

        patch_fold(monkeypatch, "level_fold", alter)

    return fault


def predicate_fault(name):
    """sequences.<name> fails where its first argument has an odd sum."""

    def fault(monkeypatch):
        real = getattr(sequences, name)
        monkeypatch.setattr(
            sequences, name, lambda seq, *args: real(seq, *args) and sum(seq) % 2 == 0
        )

    return fault


def bound_fault(field):
    """bound_set puts `field` at n, past every peak, for trees of odd diameter."""

    def fault(monkeypatch):
        real = sequences.bound_set

        def bound_set(n, p3, diam):
            bounds = real(n, p3, diam)
            return bounds._replace(**{field: n}) if diam % 2 else bounds

        monkeypatch.setattr(sequences, "bound_set", bound_set)

    return fault


# for each check, a fault that fails that check alone, on some trees of
# orders 3..8; d_{n-3} and d_{n-2} enter the trace identities, so the
# faults of d_1 and d_2 start at the orders where those are not among them
FAULTS = {
    "trace_identities": lambda monkeypatch: patch_fold(
        monkeypatch, "trace_fold", lambda traces, n: (traces[0], traces[1] + 1, traces[2])
    ),
    "log_concave": predicate_fault("is_log_concave"),
    "unimodal": predicate_fault("is_unimodal"),
    "newton": predicate_fault("newton_check"),
    "sign_pattern": coefficient_fault(0, lambda c, n: abs(c)),
    "divisibility": coefficient_fault(2, lambda c, n: c - (n >= 6)),  # delta_2 odd
    "d0_formula": coefficient_fault(0, lambda c, n: c + (1 << (n - 2))),  # d_0 one less
    "d1_formula": coefficient_fault(1, lambda c, n: c + ((n >= 5) << (n - 3))),  # d_1 one less
    "ratio_bound": predicate_fault("ratio_bound_check"),
    "theorem_bounds": bound_fault("thm_lo"),
    "conjecture_bounds": bound_fault("conj_lo"),
}


class TestLazyReports:
    """The sweep builds a report only for a tree that fails a check, or
    for every tree with a per-tree sink; these pin what that must keep."""

    @pytest.mark.parametrize("name", analysis.CHECK_NAMES)
    def test_each_check_reaches_failed(self, monkeypatch, name):
        FAULTS[name](monkeypatch)
        expected = []
        for n in range(3, 9):
            for tree_id, parent in enumerate(treegen.tree_stream(n)):
                report = analysis.analyze_tree(parent)
                assert report.failed in ((), (name,)), (n, tree_id)
                if report.failed:
                    expected.append({**analysis.tree_report_to_json(report), "id": tree_id})
        assert 0 < len(expected) < 46  # the trees of orders 3..8
        for jobs in (1, 2):
            assert analysis.verify_range(8, jobs=jobs).violations == expected, jobs

    @pytest.mark.parametrize("per_tree", [False, True])
    def test_report_keeps_the_outcome_of_its_one_check(self, monkeypatch, per_tree):
        # is_unimodal fails on its 10th call only, which is tree 3 of order
        # 6: a report that ran the check a second time would pass the tree
        real = sequences.is_unimodal
        calls = iter(range(1, 100))
        monkeypatch.setattr(sequences, "is_unimodal", lambda seq: real(seq) and next(calls) != 10)
        items = []
        report = analysis.verify_range(6, per_tree_sink=items.append if per_tree else None)
        [item] = report.violations
        assert (item["n"], item["id"]) == (6, 3)
        assert item["failed"] == ["unimodal"]
        assert item["checks"]["unimodal"] is False
        assert [i for i in items if i["failed"]] == ([item] if per_tree else [])


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


class TestRecords:
    """The record types are immutable and keep their field order; the
    benchmark's self-test rebuilds a TreeReport with dataclasses.replace."""

    @pytest.mark.parametrize(
        "make, fields",
        [
            (lambda: next(treegen.enumerate_trees(4)), ("n", "parent")),
            (lambda: polynomials.CharPoly(2, (-1, 0, 1)), ("n", "coeffs")),
            (graphs.heawood, ("n", "adj")),
            (lambda: analysis.verify_range(4), ("orders", "violations", "jobs", "duration_seconds")),
        ],
        ids=["CanonicalTree", "CharPoly", "Graph", "AggregateReport"],
    )
    def test_immutable_with_fields_in_order(self, make, fields):
        record = make()
        values = tuple(getattr(record, field) for field in fields)
        assert type(record)(*values) == record
        assert tuple(record) == values
        for field, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(record, field, value)

    def test_tree_report_is_a_frozen_dataclass(self):
        report = analysis.analyze_graph(graphs.heawood())
        assert report.failed == ()
        altered = dataclasses.replace(report, failed=("unimodal",))
        assert altered.failed == ("unimodal",)
        assert dataclasses.replace(altered, failed=()) == report
        with pytest.raises(AttributeError):
            report.failed = ("unimodal",)


def total_trees(report: analysis.AggregateReport) -> int:
    return sum(shapes.total() for shapes in report.orders.values())


class TestVerifyRange:
    def test_counts_through_8(self):
        report = analysis.verify_range(8)
        data = analysis.aggregate_report_to_json(report)
        assert total_trees(report) == data["total_trees"] == 1 + 2 + 3 + 6 + 11 + 23
        assert report.violations == []
        assert data["total_violations"] == 0
        assert list(report.orders) == list(range(3, 9))
        for n, shapes in report.orders.items():
            order = data["orders"][str(n)]
            assert shapes.total() == order["trees"] == order["expected"]
            assert order["expected"] == treegen.tree_count_recurrence(n)

    def test_total_through_10(self):
        # orders 3..10 only; orders 1 and 2 are below the analysis floor
        report = analysis.verify_range(10)
        assert total_trees(report) == 199
        assert analysis.aggregate_report_to_json(report)["max_order"] == 10

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

    @pytest.mark.parametrize("chunk,jobs", [(1, 1), (7, 1), (7, 2), (7, 3), (1, 3), (1, 2)])
    def test_chunk_boundaries_do_not_change_aggregate(self, monkeypatch, chunk, jobs):
        # every order <= 11 fits in one default chunk, so small chunks are
        # what exercises the merge of chunk stats, the stride of chunks
        # over the workers, and each worker's fold jumping over the chunks
        # it skips, at these orders
        def aggregate(**kwargs):
            data = analysis.aggregate_report_to_json(analysis.verify_range(10, **kwargs))
            data.pop("run")
            return data

        default = aggregate()
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
        assert aggregate(jobs=jobs) == default

    def test_counters_merged_out_of_order_give_the_aggregate(self, monkeypatch):
        # each order's Counter is its whole aggregate state: the chunk
        # Counters of three workers, added last worker first and highest
        # order first, must write the aggregate of one sweep
        expected = analysis.aggregate_report_to_json(analysis.verify_range(10))
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", 7)
        orders = {}
        for n in range(10, 2, -1):
            orders[n] = Counter()
            for rank in (2, 1, 0):
                for shapes, items in analysis._sweep(n, False, rank, 3):
                    orders[n].update(shapes)
                    assert items == []
        report = analysis.AggregateReport(orders, [], jobs=3, duration_seconds=0.0)
        data = analysis.aggregate_report_to_json(report)
        del data["run"], expected["run"]
        assert json.dumps(data) == json.dumps(expected)  # as text, so key order counts too

    def test_per_tree_sink_streams_everything(self):
        collected = []
        report = analysis.verify_range(6, per_tree_sink=collected.append)
        assert len(collected) == total_trees(report)
        ids_by_order = {}
        for item in collected:
            ids_by_order.setdefault(item["n"], []).append(item["id"])
        for n, ids in ids_by_order.items():
            assert ids == list(range(report.orders[n].total()))

    def test_per_tree_sink_parallel_same_stream(self, monkeypatch):
        serial = []
        analysis.verify_range(8, jobs=1, per_tree_sink=serial.append)
        # chunks of 7 split order 8 into four, so the items of the workers
        # interleave; of three workers, the third has no chunk below order 8;
        # chunks of 1 make every fold of a worker jump over skipped trees
        for chunk, jobs in [(analysis._CHUNK_SIZE, 2), (7, 2), (7, 3), (1, 2), (1, 3)]:
            monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
            parallel = []
            analysis.verify_range(8, jobs=jobs, per_tree_sink=parallel.append)
            assert parallel == serial, (chunk, jobs)

    @pytest.mark.parametrize(
        "chunk,jobs", [(analysis._CHUNK_SIZE, 1), (analysis._CHUNK_SIZE, 2), (7, 1), (7, 2)]
    )
    def test_per_tree_items_equal_fresh_analyze_tree(self, monkeypatch, chunk, jobs):
        # the sweep's folds restart from the tree before, and with chunks
        # of 7 at two jobs they jump over the chunks of the other worker;
        # analyze_tree folds each tree afresh
        expected = [
            {**analysis.tree_report_to_json(analysis.analyze_tree(parent)), "id": tree_id}
            for n in range(3, 11)
            for tree_id, parent in enumerate(treegen.tree_stream(n))
        ]
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
        items = []
        analysis.verify_range(10, jobs=jobs, per_tree_sink=items.append)
        assert items == expected

    def test_violation_reporting(self, monkeypatch):
        # no real tree violates the theorems, so force a failing predicate
        monkeypatch.setattr(
            analysis.sequences,
            "is_unimodal",
            lambda seq: False,
        )
        report = analysis.verify_range(4)
        assert len(report.violations) == total_trees(report) == 3
        assert all(item["failed"] == ["unimodal"] for item in report.violations)
        assert all(item["checks"]["unimodal"] is False for item in report.violations)

    def test_trace_fold_error_is_a_violation(self, monkeypatch):
        # the traces are the only check of d_{n-2} and d_{n-3} besides the
        # charpoly fold, so an error in their carried state must show
        real = polynomials.trace_fold

        def off_by_one(n):
            traces = real(n)

            def wrong(parent):
                tr2, tr3, diam = traces(parent)
                return tr2, tr3 + 1, diam

            return wrong

        monkeypatch.setattr(analysis.polynomials, "trace_fold", off_by_one)
        report = analysis.verify_range(6)
        assert len(report.violations) == total_trees(report) == 12
        assert all(item["failed"] == ["trace_identities"] for item in report.violations)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_enumeration_mismatch_raises(self, monkeypatch, jobs):
        # an internal error, not an interrupted sweep, whatever the number of workers
        real = treegen.tree_count_recurrence
        monkeypatch.setattr(analysis.treegen, "tree_count_recurrence", lambda n: real(n) + (n == 5))
        with pytest.raises(RuntimeError, match="enumeration mismatch at order 5") as err:
            analysis.verify_range(6, jobs=jobs)
        assert type(err.value) is RuntimeError
        assert str(err.value) == (
            "enumeration mismatch at order 5: generated 3 trees but the counting recurrence gives 4"
        )

    @pytest.mark.parametrize("interrupt", [MemoryError, KeyboardInterrupt])
    def test_interruption_reports_partial_progress(self, monkeypatch, interrupt):
        real = treegen.tree_stream

        def exploding(n):
            if n == 5:
                raise interrupt("simulated")
            return real(n)

        monkeypatch.setattr(analysis.treegen, "tree_stream", exploding)
        with pytest.raises(analysis.SweepInterrupted) as err:
            analysis.verify_range(6)
        assert "orders [3, 4] completed" in str(err.value)

    def test_interruption_pickles(self):
        # an exception that cannot be unpickled breaks any pipe or pool it crosses
        err = pickle.loads(pickle.dumps(analysis.SweepInterrupted("m", [3])))
        assert type(err) is analysis.SweepInterrupted
        assert err.args == ("m", [3])

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
        data = analysis.aggregate_report_to_json(analysis.verify_range(9))
        for order in data["orders"].values():
            for name in ("thm_lo", "thm_hi", "conj_lo", "conj_hi"):
                assert order["slack_min"][name] >= 0
                assert order["slack_min"][name] <= order["slack_max"][name]

    def test_plateau_counter_matches_reports(self):
        collected = []
        data = analysis.aggregate_report_to_json(
            analysis.verify_range(9, per_tree_sink=collected.append)
        )
        plateaus = sum(
            1 for item in collected if item["peak"]["first"] != item["peak"]["last"]
        )
        assert data["plateau_anomalies"] == plateaus


class TestAggregateRecount:
    """Every per-order number of the aggregate, recounted from the per-tree
    reports it was derived from."""

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("chunk", [7, analysis._CHUNK_SIZE])
    def test_order_fields_recounted_from_per_tree_items(self, monkeypatch, chunk, jobs):
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
        items = []
        data = analysis.aggregate_report_to_json(
            analysis.verify_range(10, jobs=jobs, per_tree_sink=items.append)
        )
        by_order = {}
        for item in items:
            by_order.setdefault(item["n"], []).append((item["peak"], item["bounds"]))
        assert list(data["orders"]) == [str(n) for n in by_order] == [str(n) for n in range(3, 11)]
        plateaus = 0
        for n, shapes in by_order.items():
            firsts = Counter(peak["first"] for peak, _ in shapes)
            slacks = [
                {
                    "conj_hi": bounds["conj_hi"] - peak["last"],
                    "conj_lo": peak["first"] - bounds["conj_lo"],
                    "thm_hi": bounds["thm_hi"] - peak["last"],
                    "thm_lo": peak["first"] - bounds["thm_lo"],
                }
                for peak, bounds in shapes
            ]
            expected = {
                "trees": len(shapes),
                "expected": treegen.tree_count_recurrence(n),
                "peak_first_histogram": {str(k): firsts[k] for k in sorted(firsts)},
                "plateaus": sum(peak["first"] != peak["last"] for peak, _ in shapes),
                "slack_min": {k: min(slack[k] for slack in slacks) for k in sorted(slacks[0])},
                "slack_max": {k: max(slack[k] for slack in slacks) for k in sorted(slacks[0])},
            }
            # compared as JSON text, so the order of the keys is checked too
            assert json.dumps(data["orders"][str(n)]) == json.dumps(expected), n
            assert min(expected["slack_min"].values()) >= 0, n
            plateaus += expected["plateaus"]
        assert data["plateau_anomalies"] == plateaus
        assert data["total_trees"] == len(items)
