"""The benchmark's tracer (perfbench/tracing.py) wraps distpoly functions
by module attribute, and its workloads, self-test and reference writer
read more names of the package, so renaming or deleting one of them
breaks benchmark runs; these tests catch that without running the
benchmark."""

import importlib
import importlib.util
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the package's modules as the workloads and the self-test see them
# (program.<module>.<name>) and as the reference writer imports them
PROGRAM_NAME = re.compile(r"\bprogram\.(\w+)\.(\w+)")
IMPORTED_NAME = re.compile(r"(?<![\w.])(analysis|cli|graphs|polynomials|sequences|treegen)\.(\w+)")


def test_every_tracing_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"distpoly.{module}"), attr, None))
    ]
    assert len(tracing.TARGETS) > 0
    assert missing == []


def test_every_name_the_benchmark_reads_exists():
    names = set()
    for script in ("workloads.py", "selftest.py"):
        names |= set(PROGRAM_NAME.findall((PERFBENCH / script).read_text()))
    names |= set(IMPORTED_NAME.findall((PERFBENCH / "make_reference.py").read_text()))
    for expected in [
        ("treegen", "enumerate_trees"),
        ("polynomials", "CharPoly"),
        ("analysis", "aggregate_report_to_json"),
    ]:
        assert expected in names
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(names)
        if not hasattr(importlib.import_module(f"distpoly.{module}"), attr)
    ]
    assert missing == []
