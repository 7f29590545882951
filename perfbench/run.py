"""distpoly benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

    for w in sweep11 verify11_pertree analyze_random enumerate15; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 || break
    done

Run from the root of a checkout. The package is imported from its src/
directory; without it the run stops with exit code 2 before printing a
result. Set-up (importing distpoly and building the inputs) is repeated
SETUP_REPEATS times and its median reported as setup_s. Short passes of
the workload then repeat until about S seconds of passes are measured.

Times are best-of-passes. On a shared 2-vCPU Xeon VM a fixed Python loop
ran up to 1.7x slower than its best from one second to the next, and
20-second means of it drifted by 15-25% from window to window, while the
best of many short repeats stayed within a few percent. So wall_s is the
fastest pass, and each operation's latency is its fastest time over the
passes (operations are aligned by position: the same graph, the same
tree of the stream); latency_ms_p50/p99 are percentiles of those. The two
vCPUs were slowed independently of each other (correlation 0.00) and a
process can sit on the slow one for a whole run, so a run alternates its
own CPU affinity between the CPUs it may use from pass to pass. Every
workload runs in this one process; a --jobs 2 sweep was left out because
its pool workers cannot be moved that way, and its best pass spread by up
to 19% of the median over ten runs.

With --trace 0 the result carries the end-to-end metrics. With --trace 1
untraced and traced passes alternate; the result carries the per-layer
metrics (each the best over traced passes) and trace.overhead_s, the
fastest traced minus the fastest untraced pass. The spans of the fastest
traced pass are written to .perfbench_out/ when the run ends.

Human-readable lines come first; the last line of stdout is the JSON
result. The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
PROGRAM_MODULES = ("analysis", "cli", "graphs", "polynomials", "sequences", "treegen")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def import_program() -> SimpleNamespace:
    modules = {m: importlib.import_module(f"distpoly.{m}") for m in PROGRAM_MODULES}
    return SimpleNamespace(package=sys.modules["distpoly"], **modules)


def set_up(workload, seed: int, baseline: set[str]):
    """Median time of a fresh import plus input generation, and the program.

    Every module imported since `baseline` is dropped before each repeat,
    so each one pays the package's whole import, standard-library modules
    it pulls in included. Repeats alternate between the CPUs, as passes do.
    """
    times = []
    cpus = sorted(os.sched_getaffinity(0))
    for i in range(SETUP_REPEATS):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        for name in [m for m in sys.modules if m not in baseline]:
            del sys.modules[name]
        start = perf_counter()
        program = import_program()
        workload.prepare(program, seed)
        times.append(perf_counter() - start)
    os.sched_setaffinity(0, cpus)
    return statistics.median(times), program


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(workload, program, seconds: float, tracer: tracing.Tracer | None):
    """Run passes until about `seconds` of them are measured.

    With a tracer, passes alternate untraced/traced, starting untraced, and
    at least one of each runs.
    """
    untraced, traced, layers = [], [], []
    spans: list[tuple] = []  # of the fastest traced pass
    best_latencies: list[float] | None = None
    problems: list[str] = []
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        tracing_pass = tracer is not None and len(traced) < len(untraced)
        # traced and untraced passes each cycle through the CPUs
        index = len(traced) if tracing_pass else len(untraced)
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        if tracing_pass:
            tracer.install(program)
        try:
            result = workload.run_pass(program)
        except Exception:
            problems.append(traceback.format_exc())
            attempted += workload.items
            failed += workload.items
            break
        finally:
            if tracing_pass:
                tracer.uninstall()
        attempted += workload.items
        failed += result.failed
        problems += result.problems
        if tracing_pass:
            pass_spans, counts = tracer.take()
            metrics = tracing.layer_metrics(pass_spans, counts)
            metrics["cli.output_bytes"] = result.output_bytes
            layers.append(metrics)
            if not traced or result.wall < min(p.wall for p in traced):
                spans = pass_spans
            traced.append(result)
        else:
            untraced.append(result)
            if best_latencies is None:
                best_latencies = result.latencies
            else:
                best_latencies = list(map(min, best_latencies, result.latencies))
        result.latencies = None  # keep memory flat; only the running best is needed
        if result.failed:
            break
        done = untraced + traced
        measured = sum(p.wall for p in done)
        typical = statistics.median(p.wall for p in done)
        if measured + typical / 2 >= seconds and (tracer is None or traced):
            break
    os.sched_setaffinity(0, cpus)
    return SimpleNamespace(
        untraced=untraced,
        traced=traced,
        best_latencies=best_latencies,
        layers=layers,
        spans=spans,
        problems=problems,
        attempted=attempted,
        failed=failed,
    )


def end_to_end(run, setup_s: float, items: int) -> dict[str, float]:
    wall = min(p.wall for p in run.untraced)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": items / wall,
        "latency_ms_p50": 1e3 * quantile(run.best_latencies, 0.50),
        "latency_ms_p99": 1e3 * quantile(run.best_latencies, 0.99),
        # Linux reports ru_maxrss in KiB; children is the largest waited-for child
        "peak_rss_mb": (usage + children) / 1024,
    }


def per_layer(run) -> dict[str, float]:
    metrics = {name: min(m[name] for m in run.layers) for name in run.layers[0]}
    metrics["trace.overhead_s"] = min(p.wall for p in run.traced) - min(
        p.wall for p in run.untraced
    )
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith((".calls", ".trees")):
        return "count"
    return "s"


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                "unknown",
            )
    except OSError:
        cpu = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "distpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": os.uname().machine,
        "git_commit": git_commit(root) or "unknown (checkout is not a git repository)",
        "src_sha256": digest.hexdigest(),
    }


def write_spans(path: Path, spans: list[tuple]) -> None:
    keys = ("id", "name", "start", "end", "parent")
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "distpoly" / "__init__.py").is_file():
        print(f"error: no distpoly package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    expected = json.loads((HERE / "reference" / "expected.json").read_text())
    history = json.loads((HERE / "reference" / "history.json").read_text())

    workload = workloads.WORKLOADS[args.workload](expected, outdir)
    setup_s, program = set_up(workload, args.seed, set(sys.modules))
    if Path(program.package.__file__).resolve().parent != src / "distpoly":
        print(f"error: distpoly imported from {program.package.__file__}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    try:
        run = measure(workload, program, args.seconds, tracer)
    finally:
        workload.close()

    print(f"# distpoly benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(ROOT)))
    print("reference " + json.dumps(history))
    print("traffic " + json.dumps(workload.traffic()))
    print(f"passes {len(run.untraced)} untraced, {len(run.traced)} traced")
    correct = run.failed == 0 and not run.problems and bool(run.untraced)
    if not run.untraced:
        metrics = {}
    elif args.trace and run.traced:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer(run).items()}
        path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, run.spans)
        print(f"spans of the fastest traced pass ({len(run.spans)}) written to "
              f"{path.relative_to(ROOT)}")
    elif args.trace:
        metrics = {}
        correct = False
    else:
        values = end_to_end(run, setup_s, workload.items)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"latency: {len(run.best_latencies)} operations "
              f"({workload.operation}), each the best of "
              f"{len(run.untraced)} passes; setup repeats {SETUP_REPEATS}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>18d}" if isinstance(value, int) else f"{value:>18.6f}"
        print(f"{name:40s} {shown} {metric['unit']}")
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'fail_ratio':40s} {fail_ratio:>18.6f} ratio ({run.failed} of {run.attempted})")
    for problem in run.problems[:20]:
        print("FAIL " + problem.rstrip(), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
