"""Every cnkit function the benchmark's tracer wraps still exists under the
name it looks up, so that a traced benchmark run cannot fail on a rename."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = tracer.TIMED + tracer.COUNTED
    assert named
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in named
        if not mod.__name__.startswith("cnkit") or not callable(getattr(mod, attr, None))
    ]
    assert missing == []
