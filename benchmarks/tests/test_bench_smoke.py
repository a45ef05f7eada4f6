"""Smoke runs of the benchmark at small dimension, one per workload and mode.

They prove that the generator, the harness, the tracer and the
correctness gate work end to end; nothing here asserts a wall-clock
figure.  Run with:

    python -m pytest benchmarks/tests
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "bench.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def smoke(workload, trace):
    out = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--scale", "smoke")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if trace:
        calls = {name: result["metrics"][name]["value"] for name in
                 ("autodiff.backward_calls", "model.downward_pass.calls",
                  "model.attention_pool.calls", "model.upward_pass.calls")}
        assert calls["model.upward_pass.calls"] > 0
        if workload.startswith("infer"):
            assert calls["autodiff.backward_calls"] == 0
        else:
            assert calls["autodiff.backward_calls"] > 0
        if workload == "train_gru_deep":
            assert calls["model.downward_pass.calls"] == 0
            assert calls["model.attention_pool.calls"] == 0


def digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            h.update(name.encode() + handle.read())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_seeded(workload, tmp_path):
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        gen.generate(workload, seed, str(tmp_path / name), "smoke")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert digest(tmp_path / "a") != digest(tmp_path / "c")


@pytest.mark.parametrize("shape", ["sst", "deep"])
def test_every_block_has_the_same_lengths(shape, tmp_path):
    rng = gen.np.random.default_rng(0)
    lengths = gen.split_lengths(rng, shape, 10 * gen.BLOCKS["train"],
                                gen.BLOCKS["train"])
    blocks = lengths.reshape(10, -1)
    for block in blocks[1:]:
        assert sorted(block) == sorted(blocks[0])


def test_tracer_restores_the_program_and_lists_lost_functions(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from arbogru import cli, model, treebank
    original = treebank.load_corpus
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + [
        ("model.gone", "arbogru.model", "no_such_function", None)])
    spans = tracer.Tracer().install()
    try:
        assert cli.load_corpus is treebank.load_corpus is not original
        assert spans.missing == ["model.gone"]
        assert spans.has("model.upward_pass") and not spans.has("model.gone")
    finally:
        spans.uninstall()
    assert cli.load_corpus is treebank.load_corpus is original
    assert not hasattr(model.upward_pass, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "infer_bigru_att_sst", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
