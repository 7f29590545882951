"""Command-line front end.

Exit codes: 0 on success (all checks pass or nothing to check), 1 when a
mathematical check failed on a tree input (the offending object is
serialized in the output), 2 on usage or input errors, on an interrupted
sweep and on an internal error (a RuntimeError, such as a tree count that
differs from the counting recurrence); each 2 prints one "error:" line.
A closed output pipe ends the command silently, as it does other filters.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from pathlib import Path

from . import analysis, graphs, treegen

_BUILTINS = {"heawood": graphs.heawood}


def _load_graph(path: str, fmt: str) -> graphs.Graph:
    text = Path(path).read_text()
    if fmt == "graph6":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise graphs.GraphParseError("no graph6 data in input file")
        if len(lines) > 1:
            raise graphs.GraphParseError(f"{len(lines)} graph6 lines: one graph per file")
        return graphs.from_graph6(lines[0])
    return graphs.from_edge_list(text)


def _cmd_charpoly(args) -> int:
    data = analysis.tree_report_to_json(
        analysis.analyze_graph(_load_graph(args.input, args.format))
    )
    payload = {key: data[key] for key in ("n", "coefficients", "delta", "d")}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_analyze(args) -> int:
    if args.builtin is not None:
        if args.builtin not in _BUILTINS:
            raise ValueError(
                f"unknown builtin {args.builtin!r}; available: {', '.join(sorted(_BUILTINS))}"
            )
        if args.format is not None:
            raise ValueError("--format applies to --input only")
        g = _BUILTINS[args.builtin]()
    else:
        g = _load_graph(args.input, args.format)
    report = analysis.analyze_graph(g)
    print(json.dumps(analysis.tree_report_to_json(report), indent=2))
    return 1 if report.failed else 0


def _cmd_enumerate(args) -> int:
    if args.order < 1:
        raise ValueError("order must be at least 1")
    if args.count_only:
        print(treegen.tree_count_recurrence(args.order))
        return 0
    trees = treegen.tree_stream(args.order)
    if args.emit == "parents":
        lines = (" ".join(map(str, parent)) + "\n" for parent in trees)
    else:  # sorted (parent[i], i) pairs, Graph.edges() order; the root's (-1, 0) sorts first
        edges = (sorted(zip(parent, range(args.order)))[1:] for parent in trees)
        lines = (" ".join(f"{p} {i}" for p, i in pairs) + "\n" for pairs in edges)
    sys.stdout.writelines(lines)
    return 0


def _cmd_verify(args) -> int:
    sink = None
    if args.per_tree:
        encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call

        def sink(item: dict) -> None:
            print(encode(item))

    # a usage error must leave an existing output file as it was
    analysis.check_sweep_args(args.max_order, args.jobs)
    # opened before the sweep, as a shell redirection is, so a bad path fails first
    with open(args.output, "w") if args.output else contextlib.nullcontext() as output:
        report = analysis.verify_range(args.max_order, jobs=args.jobs, per_tree_sink=sink)
        payload = analysis.aggregate_report_to_json(report)
        if output:
            output.write(json.dumps(payload, indent=2) + "\n")
        elif args.per_tree:
            # keep stdout line-oriented when a JSONL stream precedes the summary
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print(json.dumps(payload, indent=2))
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distpoly",
        description=(
            "Exact distance characteristic polynomials of graphs, their "
            "normalized coefficient sequences, and exhaustive unimodality "
            "and peak-bound verification over all free trees of small order."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="print polynomial and coefficient sequences")
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("analyze", help="full analysis report for one graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="graph file")
    source.add_argument("--builtin", help="named built-in graph (heawood)")
    # no default, so that --format given with --builtin can be rejected
    p.add_argument("--format", choices=("edgelist", "graph6"), help="default: edgelist")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="stream all free trees of one order")
    p.add_argument("--order", type=int, required=True)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--count-only", action="store_true")
    output.add_argument("--emit", choices=("edgelist", "parents"), help="default: edgelist")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustive sweep over orders 3..N")
    p.add_argument("--max-order", type=int, default=14)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", help="write the aggregate report to this file")
    p.add_argument("--per-tree", action="store_true", help="stream per-tree reports as JSON lines")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:  # SweepInterrupted is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # let a closed stdout (`| head`) end the process instead of raising
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    # interpreter exit resets a Python-level SIGINT handler to the default but
    # leaves SIG_IGN alone, so a late Ctrl-C cannot replace the exit status
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
