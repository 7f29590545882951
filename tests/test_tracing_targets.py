"""The benchmark's tracer (perfbench/tracing.py) wraps distpoly functions
by module attribute, so renaming or deleting one of them breaks traced
benchmark runs; this test catches that without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_tracing_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"distpoly.{module}"), attr, None))
    ]
    assert len(tracing.TARGETS) > 0
    assert missing == []
