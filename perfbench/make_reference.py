"""Write reference/expected.json, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run once, from the root of a checkout, at the commit that introduced the
benchmark. The references pin that commit's behaviour; a later change
must reproduce them, never regenerate them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from distpoly import analysis, cli, treegen  # noqa: E402

from workloads import ENUMERATE_ORDER, SWEEP_ORDER, VERIFY_ARGV, parent_stream_sha256  # noqa: E402


def main() -> None:
    aggregate = analysis.aggregate_report_to_json(analysis.verify_range(SWEEP_ORDER, jobs=1))
    del aggregate["run"]
    trees = sum(treegen.tree_count_recurrence(n) for n in range(3, SWEEP_ORDER + 1))
    assert aggregate["total_trees"] == trees and aggregate["total_violations"] == 0

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(VERIFY_ARGV) == 0
    lines = out.getvalue().splitlines(keepends=True)
    final = json.loads(lines[-1])
    del final["run"]
    assert final == aggregate and len(lines) == trees + 1

    parents = [t.parent for t in treegen.enumerate_trees(ENUMERATE_ORDER)]
    assert len(parents) == treegen.tree_count_recurrence(ENUMERATE_ORDER)

    expected = {
        "sweep_trees": trees,
        "aggregate": aggregate,
        "per_tree_sha256": hashlib.sha256("".join(lines[:-1]).encode()).hexdigest(),
        "enumerate_trees": len(parents),
        "enumerate_parents_sha256": parent_stream_sha256(parents),
    }
    (HERE / "reference" / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
