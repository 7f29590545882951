import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import oracles
from distpoly import cli, graphs, treegen

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture
def two_graph6_file(tmp_path):
    # P3, then the claw: a second graph is an error, not dropped
    path = tmp_path / "two.g6"
    path.write_text("Bg\nCF\n")
    return str(path)


class TestCharpolyCommand:
    def test_p3(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "charpoly", "--input", p3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 3,
            "coefficients": ["-4", "-6", "0", "1"],
            "delta": ["4", "6", "0", "-1"],
            "d": ["2", "6"],
        }

    def test_graph6_input(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_text("Bw\n")
        code, out, _ = run_cli(capsys, "charpoly", "--input", str(path), "--format", "graph6")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_graph6_file_with_two_graphs_rejected(self, capsys, two_graph6_file):
        code, out, err = run_cli(
            capsys, "charpoly", "--input", two_graph6_file, "--format", "graph6"
        )
        assert code == 2
        assert out == ""
        assert "one graph per file" in err

    def test_graph6_file_of_blank_lines_rejected(self, capsys, tmp_path):
        path = tmp_path / "blank.g6"
        path.write_text("\n  \n")
        code, out, err = run_cli(capsys, "charpoly", "--input", str(path), "--format", "graph6")
        assert code == 2
        assert out == ""
        assert err == "error: no graph6 data in input file\n"

    def test_too_small(self, capsys, tmp_path):
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        code, _, err = run_cli(capsys, "charpoly", "--input", str(path))
        assert code == 2
        assert "order at least 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--input", "/no/such/file")
        assert code == 2
        assert "error" in err

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 0\n")
        code, _, err = run_cli(capsys, "charpoly", "--input", str(path))
        assert code == 2
        assert "self-loop" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("p3", "0 1\n1 2\n"),
            ("s6", "0 1\n0 2\n0 3\n0 4\n0 5\n"),
            ("k4", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"),  # d_0 = 3/4
            ("heawood", oracles.to_edge_list(graphs.heawood())),
        ],
    )
    def test_payload_matches_analyze(self, capsys, tmp_path, name, text):
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        _, charpoly_out, _ = run_cli(capsys, "charpoly", "--input", str(path))
        _, analyze_out, _ = run_cli(capsys, "analyze", "--input", str(path))
        report = json.loads(analyze_out)
        keys = ("n", "coefficients", "delta", "d")
        assert json.loads(charpoly_out) == {key: report[key] for key in keys}


class TestAnalyzeCommand:
    def test_builtin_heawood(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "heawood")
        assert code == 0  # non-tree findings are not violations
        payload = json.loads(out)
        assert payload["is_tree"] is False
        assert payload["checks"]["unimodal"] is False
        assert payload["checks"]["newton"] is True
        assert payload["failed"] == []

    def test_file_input(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "analyze", "--input", p3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_tree"] is True
        assert payload["peak"] == {"first": 1, "last": 1}
        assert payload["bounds"] == {"conj_lo": 1, "conj_hi": 2, "thm_lo": 0, "thm_hi": 2}

    def test_graph6_file_with_two_graphs_rejected(self, capsys, two_graph6_file):
        code, out, err = run_cli(
            capsys, "analyze", "--input", two_graph6_file, "--format", "graph6"
        )
        assert code == 2
        assert out == ""
        assert "one graph per file" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--builtin", "petersen")
        assert code == 2
        assert "unknown builtin" in err

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 2

    def test_input_and_builtin_exclusive(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "analyze", "--input", p3_file, "--builtin", "heawood")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
    def test_builtin_rejects_format(self, capsys, fmt):
        code, out, err = run_cli(capsys, "analyze", "--builtin", "heawood", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "--format" in err

    def test_disconnected_input(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "disconnected" in err


class TestEnumerateCommand:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--order", "7", "--count-only")
        assert code == 0
        assert out.strip() == "11"

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_only_matches_stream(self, capsys, n):
        code, out, _ = run_cli(capsys, "enumerate", "--order", str(n), "--count-only")
        assert code == 0
        assert out == f"{sum(1 for _ in treegen.tree_stream(n))}\n"

    @pytest.mark.parametrize("emit", ["edgelist", "parents"])
    def test_count_only_rejects_emit(self, capsys, emit):
        code, out, _ = run_cli(capsys, "enumerate", "--order", "6", "--count-only", "--emit", emit)
        assert code == 2
        assert out == ""

    def test_parents_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--order", "4", "--emit", "parents")
        assert code == 0
        assert out.splitlines() == ["-1 0 1 0", "-1 0 0 0"]

    def test_order_15_parents_stream_pinned(self, capsys):
        # tree ids are stream positions, so the stream is part of the output
        code, out, _ = run_cli(capsys, "enumerate", "--order", "15", "--emit", "parents")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1558e7b5441bf47242c638205258bc4df3d14326d04bf03cc40ddbf3515724cb"
        )

    def test_edgelist_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--order", "3")
        assert code == 0
        assert out.splitlines() == ["0 1 0 2"]

    def test_order_12_edgelist_stream_pinned(self, capsys):
        # the default output, one edge list per tree in stream order
        code, out, _ = run_cli(capsys, "enumerate", "--order", "12")
        assert code == 0
        assert len(out.splitlines()) == 551
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "df5422bd62bcec0eec8bc22103b4474d18eaee60304eb0e644595d5dacee0aad"
        )

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--order", "0")
        assert code == 2


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-order", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_trees"] == 12
        assert payload["total_violations"] == 0
        assert payload["orders"]["6"]["trees"] == 6

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--max-order", "5", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["total_trees"] == 6

    def test_unwritable_output_fails_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        from distpoly import analysis

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(analysis, "verify_range", no_sweep)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "--max-order", "14", "--output", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("args", [("--max-order", "2"), ("--max-order", "5", "--jobs", "0")])
    def test_usage_error_leaves_the_output_file_unchanged(self, capsys, tmp_path, args):
        target = tmp_path / "report.json"
        target.write_bytes(b"an earlier report\n")
        code, out, err = run_cli(capsys, "verify", *args, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert target.read_bytes() == b"an earlier report\n"

    def test_per_tree_stream(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-order", "5", "--per-tree")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7  # six tree reports plus the aggregate
        reports = [json.loads(line) for line in lines]
        assert all(item["type"] == "tree_report" for item in reports[:-1])
        assert reports[-1]["type"] == "aggregate_report"

    def test_violation_exit_code(self, capsys, monkeypatch):
        from distpoly import analysis

        monkeypatch.setattr(
            analysis.sequences,
            "is_unimodal",
            lambda seq: False,
        )
        code, out, _ = run_cli(capsys, "verify", "--max-order", "4")
        assert code == 1
        payload = json.loads(out)
        assert payload["total_violations"] == 3
        assert payload["violations"][0]["failed"] == ["unimodal"]

    def test_jobs_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-order", "7", "--jobs", "2")
        assert code == 0
        assert json.loads(out)["total_trees"] == 23

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_enumeration_mismatch_exits_2(self, capsys, monkeypatch, jobs):
        from distpoly import analysis

        real = treegen.tree_count_recurrence
        monkeypatch.setattr(analysis.treegen, "tree_count_recurrence", lambda n: real(n) + (n == 5))
        code, out, err = run_cli(capsys, "verify", "--max-order", "6", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: enumeration mismatch at order 5:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_kernel_internal_error_exits_2(self, capsys, monkeypatch, jobs):
        from distpoly import analysis

        message = "internal error: tree kernel numerator is not 4 times a polynomial"

        def broken_fold(n):
            def fold(parent):
                raise RuntimeError(message)

            return fold

        monkeypatch.setattr(analysis.polynomials, "level_fold", broken_fold)
        code, out, err = run_cli(capsys, "verify", "--max-order", "5", "--per-tree", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_interrupted_sweep_exits_2(self, capsys, monkeypatch, jobs):
        # at --jobs 2 each worker sends its MemoryError down its pipe
        from distpoly import analysis

        real = treegen.tree_stream

        def exploding(n):
            if n == 5:
                raise MemoryError("simulated")
            return real(n)

        monkeypatch.setattr(analysis.treegen, "tree_stream", exploding)
        code, out, err = run_cli(capsys, "verify", "--max-order", "6", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep aborted after 3 trees; orders [3, 4] completed")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "distpoly.cli", "enumerate", "--order", "5", "--count-only"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"

    def test_late_interrupt_keeps_the_exit_status(self):
        # a Ctrl-C while the interpreter exits, sent here by an atexit hook
        script = textwrap.dedent(
            """
            import atexit, os, signal, sys
            from distpoly import cli

            atexit.register(os.kill, os.getpid(), signal.SIGINT)
            sys.argv[1:] = ["verify", "--max-order", "4"]
            cli.console_main()
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            timeout=60,  # a hang fails the test instead of stalling the suite
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["total_trees"] == 3

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
    def test_closed_stdout_ends_silently(self):
        # order 15 prints more than a pipe buffer holds, so the command is
        # still writing when the reader goes away; a child still running
        # after 60 s is killed, so that a hang cannot stall the suite
        proc = subprocess.Popen(
            [sys.executable, "-m", "distpoly.cli", "enumerate", "--order", "15", "--emit", "parents"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            assert proc.stdout.readline().startswith(b"-1 ")
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait() == -signal.SIGPIPE
        finally:
            timer.cancel()
        assert err == b""


class TestGoldenReports:
    """The analyze JSON schema is pinned by golden files in goldens/."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("p3", ("analyze", "--input", "@P3@")),
            ("s6", ("analyze", "--input", "@S6@")),
            ("heawood", ("analyze", "--builtin", "heawood")),
        ],
    )
    def test_matches_golden(self, capsys, tmp_path, name, argv):
        files = {
            "@P3@": "0 1\n1 2\n",
            "@S6@": "0 1\n0 2\n0 3\n0 4\n0 5\n",
        }
        resolved = []
        for arg in argv:
            if arg in files:
                path = tmp_path / f"{name}.edges"
                path.write_text(files[arg])
                resolved.append(str(path))
            else:
                resolved.append(arg)
        code, out, _ = run_cli(capsys, *resolved)
        assert code == 0
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert json.loads(out) == golden
