"""The benchmark calls the package by name: each name must keep working.

``benchmarks/tracer.py`` lists a span it cannot resolve as missing and
leaves out every per-layer metric that span feeds, so renaming or
deleting one of these functions would quietly drop benchmark figures.
The benchmark also builds and walks trees through the package's tree
surface (``LabeledTree``, ``Corpus`` of a list, ``label``, ``children``,
``build_sentence_graph``), which one traced smoke run exercises.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_traced_smoke_run_ends_in_a_correct_result():
    out = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "train_bigru_att_sst",
         "--seed", "7", "--seconds", "1", "--trace", "1", "--scale", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert not [line for line in lines if line.startswith("absent")], out.stdout
    assert json.loads(lines[-1])["correct"] is True
