"""Show that the benchmark's checks reject wrong outputs.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute. Part one feeds the
analyze_random oracle reports with one coefficient corrupted, at every
position, and reports whose failed checks were tampered with. Part two
runs each workload for one pass with a fault injected into distpoly (by
module attribute, after import) and requires the run to report
`correct: false` and exit non-zero. Exits 0 when every corruption was
caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import oracle
import run

SRC = Path(__file__).resolve().parent.parent / "src"


def purge_program() -> None:
    for name in [m for m in sys.modules if m == "distpoly" or m.startswith("distpoly.")]:
        del sys.modules[name]


def oracle_rejects_corruption() -> list[str]:
    sys.path.insert(0, str(SRC))
    program = run.import_program()
    misses = []
    for spec in oracle.random_specs(seed=7):
        g = program.graphs.graph_from_edges(spec["n"], spec["edges"])
        report = program.analysis.analyze_graph(g)
        if oracle.check_report(report, spec):
            misses.append(f"oracle rejected a correct report on {spec['n']} vertices")
        for k in range(spec["n"]):
            coeffs = list(report.coefficients)
            coeffs[k] += 1
            bad = dataclasses.replace(report, coefficients=tuple(coeffs))
            if not oracle.check_report(bad, spec):
                misses.append(f"coefficient {k} + 1 accepted on {spec['n']} vertices")
        if spec["is_tree"] and not oracle.check_report(
            dataclasses.replace(report, failed=("unimodal",)), spec
        ):
            misses.append("a tree report with a failed check was accepted")
    purge_program()
    return misses


def corrupt_charpoly(program, order: int) -> None:
    original = program.polynomials.charpoly

    def charpoly(matrix):
        poly = original(matrix)
        if poly.n != order:
            return poly
        return program.polynomials.CharPoly(poly.n, (poly.coeffs[0] + 1,) + poly.coeffs[1:])

    program.polynomials.charpoly = charpoly


def drop_one_tree(program) -> None:
    original = program.treegen.enumerate_trees

    def enumerate_trees(n):
        for index, tree in enumerate(original(n)):
            if index != 1000:
                yield tree

    program.treegen.enumerate_trees = enumerate_trees


FAULTS = {
    "analyze_random": lambda program: corrupt_charpoly(program, 13),
    "sweep11": lambda program: corrupt_charpoly(program, 9),
    "verify11_pertree": lambda program: corrupt_charpoly(program, 9),
    "enumerate15": drop_one_tree,
}


def faulty_runs_fail() -> list[str]:
    misses = []
    clean_import = run.import_program
    for workload, fault in FAULTS.items():

        def faulty_import():
            program = clean_import()
            fault(program)
            return program

        run.import_program = faulty_import
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1"])
        finally:
            run.import_program = clean_import
            purge_program()
        result = json.loads(out.getvalue().splitlines()[-1])
        caught = code != 0 and not result["correct"] and result["failed"] > 0
        print(f"{workload}: exit {code}, failed {result['failed']} of {result['attempted']}")
        if not caught:
            misses.append(f"{workload}: injected fault not detected")
    return misses


def main() -> int:
    misses = oracle_rejects_corruption() + faulty_runs_fail()
    for miss in misses:
        print("MISSED " + miss)
    print("selftest " + ("failed" if misses else "passed"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
