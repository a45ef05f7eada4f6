"""The benchmark's tracer wraps package functions by name: each must exist.

``benchmarks/tracer.py`` lists a span it cannot resolve as missing and
leaves out every per-layer metric that span feeds, so renaming or
deleting one of these functions would quietly drop benchmark figures.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_names_a_package_callable():
    spans = load_tracer().SPANS
    assert spans
    missing = []
    for name, module_name, path, _ in spans:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):  # a function, or Class.method
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{name} ({module_name}.{path})")
    assert not missing, f"spans without a function: {missing}"
