"""The four benchmark workloads.

Each workload is a closed loop: one caller, each operation issued only
after the previous one returned. A pass is short (a few tenths of a
second) so that a run holds dozens of them; see run.py for why. `items` is
the number of trees or graphs one pass completes. `prepare` builds the inputs (part of set-up). `run_pass` runs one timed
pass and checks its output afterwards, outside the timed region;
`latencies` holds one entry
per operation the loop issued, in the same order every pass: an
analyze_graph call, a generator `next`, or the whole verify_range /
cli.main call for the two sweeps.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle

SWEEP_ORDER = 11
ENUMERATE_ORDER = 15
VERIFY_ARGV = ["verify", "--max-order", str(SWEEP_ORDER), "--jobs", "1", "--per-tree"]


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0


def _aggregate_problems(payload: dict, expected: dict) -> list[str]:
    # `run` holds jobs and duration_seconds, which are outside the
    # determinism contract
    payload = json.loads(json.dumps({k: v for k, v in payload.items() if k != "run"}))
    if payload == expected:
        return []
    keys = sorted(k for k in set(payload) | set(expected) if payload.get(k) != expected.get(k))
    return [f"aggregate differs from the reference in {keys}"]


def parent_stream_sha256(parents) -> str:
    """SHA-256 of the stream `distpoly enumerate --emit parents` prints."""
    digest = hashlib.sha256()
    for parent in parents:
        digest.update((" ".join(map(str, parent)) + "\n").encode())
    return digest.hexdigest()


class Sweep:
    """verify_range(SWEEP_ORDER, jobs=1), aggregate only: the desk sweep."""

    name = f"sweep{SWEEP_ORDER}"
    operation = "verify_range call"

    def __init__(self, expected: dict, outdir: Path):
        self.expected = expected
        self.items = expected["sweep_trees"]

    def prepare(self, program, seed: int) -> None:
        pass

    def traffic(self) -> dict:
        return {"orders": f"3..{SWEEP_ORDER}", "trees": self.items, "jobs": 1}

    def run_pass(self, program) -> Pass:
        start = perf_counter()
        report = program.analysis.verify_range(SWEEP_ORDER, jobs=1)
        wall = perf_counter() - start
        problems = _aggregate_problems(
            program.analysis.aggregate_report_to_json(report), self.expected["aggregate"]
        )
        return Pass(wall, [wall], self.items if problems else 0, problems)

    def close(self) -> None:
        pass


class VerifyPerTree:
    """`distpoly verify --max-order SWEEP_ORDER --jobs 1 --per-tree`, in
    process, stdout sent to a file: the sweep plus per-tree JSON lines."""

    name = f"verify{SWEEP_ORDER}_pertree"
    operation = "cli.main call"

    def __init__(self, expected: dict, outdir: Path):
        self.expected = expected
        self.items = expected["sweep_trees"]
        self.path = outdir / f"verify-{os.getpid()}.jsonl"

    def prepare(self, program, seed: int) -> None:
        pass

    def traffic(self) -> dict:
        return {"argv": VERIFY_ARGV, "trees": self.items}

    def run_pass(self, program) -> Pass:
        start = perf_counter()
        with open(self.path, "w") as out, contextlib.redirect_stdout(out):
            code = program.cli.main(VERIFY_ARGV)
        wall = perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}"]
        digest = hashlib.sha256()
        lines = 0
        last = b""
        with open(self.path, "rb") as stream:
            for line in stream:
                if lines:
                    digest.update(last)
                last = line
                lines += 1
        if lines - 1 != self.items:
            problems.append(f"{lines - 1} per-tree lines, expected {self.items}")
        if digest.hexdigest() != self.expected["per_tree_sha256"]:
            problems.append("per-tree line stream differs from the reference")
        try:
            problems += _aggregate_problems(json.loads(last), self.expected["aggregate"])
        except json.JSONDecodeError:
            problems.append("last line is not the aggregate JSON")
        size = self.path.stat().st_size
        return Pass(wall, [wall], self.items if problems else 0, problems, size)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


class Enumerate:
    """Exhaust enumerate_trees(ENUMERATE_ORDER); the generator alone."""

    name = f"enumerate{ENUMERATE_ORDER}"
    operation = "generator next"

    def __init__(self, expected: dict, outdir: Path):
        self.expected = expected
        self.items = expected["enumerate_trees"]
        self.first: list | None = None

    def prepare(self, program, seed: int) -> None:
        pass

    def traffic(self) -> dict:
        return {"order": ENUMERATE_ORDER, "trees": self.items}

    def run_pass(self, program) -> Pass:
        clock = perf_counter
        latencies = []
        parents = []
        start = clock()
        trees = program.treegen.enumerate_trees(ENUMERATE_ORDER)
        while True:
            t0 = clock()
            tree = next(trees, None)
            t1 = clock()
            if tree is None:
                break
            latencies.append(t1 - t0)
            parents.append(tree.parent)
        wall = clock() - start
        problems = []
        recurrence = program.treegen.tree_count_recurrence(ENUMERATE_ORDER)
        if not len(parents) == recurrence == self.items:
            problems.append(f"{len(parents)} trees; recurrence {recurrence}; reference {self.items}")
        if self.first is None:
            # hashing costs a tenth of a pass; later passes must equal this one
            if parent_stream_sha256(parents) != self.expected["enumerate_parents_sha256"]:
                problems.append("parent-array stream differs from the reference")
            self.first = parents
        elif parents != self.first:
            problems.append("parent-array stream differs from the first pass")
        return Pass(wall, latencies, self.items if problems else 0, problems)

    def close(self) -> None:
        pass


class AnalyzeRandom:
    """One analyze_graph call per seeded random graph (see oracle.py)."""

    name = "analyze_random"
    operation = "analyze_graph call"

    def __init__(self, expected: dict, outdir: Path):
        self.specs: list[dict] = []
        self.graphs: list = []
        self.items = 0
        self.rng = random.Random()
        self.first: list | None = None
        self.verdicts: list[list[str]] = []

    def prepare(self, program, seed: int) -> None:
        self.specs = oracle.random_specs(seed)
        self.items = len(self.specs)
        self.rng = random.Random(seed)
        build = program.graphs.graph_from_edges
        self.graphs = [
            program.graphs.heawood() if s["kind"] == "heawood" else build(s["n"], s["edges"])
            for s in self.specs
        ]

    def traffic(self) -> dict:
        return oracle.traffic(self.specs)

    def run_pass(self, program) -> Pass:
        if self.first is not None:
            build = program.graphs.graph_from_edges
            self.graphs = [build(s["n"], oracle.relabeled(s, self.rng)) for s in self.specs]
        clock = perf_counter
        analyze = program.analysis.analyze_graph
        latencies = []
        reports = []
        start = clock()
        for g in self.graphs:
            t0 = clock()
            try:
                report = analyze(g)
            except Exception as exc:  # a failed operation is counted, not fatal
                report = exc
            latencies.append(clock() - t0)
            reports.append(report)
        wall = clock() - start
        if self.first is None:
            # the oracle checks the first pass; later passes analyze
            # relabeled copies and must reproduce its reports exactly
            self.first = reports
            self.verdicts = [
                [f"raised {r!r}"] if isinstance(r, Exception) else oracle.check_report(r, s)
                for r, s in zip(reports, self.specs)
            ]
        problems = []
        for i, (report, first, verdict) in enumerate(zip(reports, self.first, self.verdicts)):
            if isinstance(report, Exception) or report != first:
                problems.append(f"graph {i}: report differs from the first pass ({report!r:.80})")
            elif verdict:
                problems.append(f"graph {i}: " + "; ".join(verdict))
        return Pass(wall, latencies, len(problems), problems)

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Sweep, VerifyPerTree, AnalyzeRandom, Enumerate)}
