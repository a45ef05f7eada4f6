"""tools/bench_pairs.py on hand-made run records of two checkouts."""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    return module


def write_run(checkout, seed, setup_s, trace=0, when=0.0, name=None, sent_per_s=70.0,
              layers=None, machine=None):
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "sent_per_s": {"value": sent_per_s, "unit": "1/s"}}
    metrics.update({name: {"value": value, "unit": ""}
                    for name, value in (layers or {}).items()})
    record = {"workload": "train_bigru_att_sst", "seed": seed, "seconds": 15.0,
              "trace": trace, "scale": "recipe",
              "env": {"nproc": 2, "git": None, **(machine or {})},
              "result": {"correct": True, "attempted": 10, "failed": 0,
                         "metrics": metrics}}
    path = out / (name or f"run-{seed}-{trace}.json")
    path.write_text(json.dumps(record))
    os.utime(path, (when, when))


def test_pairs_runs_by_seed_and_counts_wins(bench_pairs, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # seed 1: parent first; seed 2: change first; seed 3 ran on the parent only
    for seed, (p_time, c_time), (p_setup, c_setup) in [
            (1, (10, 20), (3.0, 2.0)), (2, (40, 30), (3.2, 3.2)), (3, (50, 0), (3.1, 0))]:
        write_run(parent, seed, p_setup, when=p_time)
        if c_time:
            write_run(change, seed, c_setup, when=c_time)
    write_run(parent, 9, 4.0, trace=1, when=60)
    assert bench_pairs.main(["--label", "t", "--parent", str(parent), "--change",
                             str(change), "--parent-commit", "aaa",
                             "--change-commit", "bbb"]) == 0
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (result["parent"]["commit"], result["change"]["commit"]) == ("aaa", "bbb")
    work = result["workloads"]["train_bigru_att_sst"]
    assert [(run["seed"], run["first"]) for run in work["runs"]] == [(1, "parent"),
                                                                    (2, "change")]
    setup = work["summary"]["setup_s"]
    assert (setup["wins"], setup["losses"], setup["ties"]) == (1, 0, 1)
    assert setup["parent"]["median"] == pytest.approx(3.1)
    assert setup["change"]["median"] == pytest.approx(2.6)
    assert work["summary"]["sent_per_s"]["ties"] == 2
    assert setup["verdict"] == work["summary"]["sent_per_s"]["verdict"] == "ok"
    assert [t["seed"] for t in work["traced"]["parent"]] == [9]
    assert work["traced"]["change"] == []
    assert work["traced_summary"] == {}  # the change has no traced run
    assert "wrote" in capsys.readouterr().out


def test_summarizes_each_layer_over_the_traced_seeds(bench_pairs, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, 1, 3.0)
    write_run(change, 1, 3.0)
    backward = {"parent": [150.0, 170.0, 190.0], "change": [140.0, 160.0, 145.0]}
    for side, checkout in (("parent", parent), ("change", change)):
        for seed, ms in enumerate(backward[side], start=10):
            layers = {"autodiff.backward_ms": ms, "training.evaluate_sent_per_s": 200.0}
            if side == "parent" and seed == 10:
                layers["model.downward_pass.calls"] = 4.0  # no change run has it
            write_run(checkout, seed, 3.0, trace=1, layers=layers)
    assert bench_pairs.main(["--label", "t", "--parent", str(parent), "--change",
                             str(change), "--parent-commit", "a",
                             "--change-commit", "b"]) == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text())[
        "workloads"]["train_bigru_att_sst"]["traced_summary"]
    assert set(summary) == {"autodiff.backward_ms", "training.evaluate_sent_per_s"}
    ms = summary["autodiff.backward_ms"]
    assert ms["better"] == "lower"
    assert ms["parent"] == {"median": 170.0, "q1": 160.0, "q3": 180.0, "n": 3}
    assert ms["change"] == {"median": 145.0, "q1": 142.5, "q3": 152.5, "n": 3}
    assert summary["training.evaluate_sent_per_s"]["better"] == "higher"
    assert "autodiff.backward_ms" in capsys.readouterr().out


def test_each_run_keeps_its_machine_state(bench_pairs, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, 1, 3.0, machine={"loadavg_1m_before": 0.5,
                                       "loadavg_1m_after": 1.25,
                                       "process.cpu_util": 0.98})
    write_run(change, 1, 3.0, machine={"loadavg_1m_after": 2.0})
    assert bench_pairs.main(["--label", "t", "--parent", str(parent), "--change",
                             str(change), "--parent-commit", "a",
                             "--change-commit", "b"]) == 0
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    (run,) = result["workloads"]["train_bigru_att_sst"]["runs"]
    machine = ("loadavg_1m_before", "loadavg_1m_after", "process.cpu_util")
    assert [run["parent"][key] for key in machine] == [0.5, 1.25, 0.98]
    assert [run["change"][key] for key in machine] == [None, 2.0, None]
    # the per-run state stays out of the checkouts' environments
    assert result["parent"]["env"] == result["change"]["env"] == [
        {"nproc": 2, "git": None}]


def test_refuses_a_checkout_without_records(bench_pairs, tmp_path, capsys):
    write_run(tmp_path / "parent", 1, 3.0)
    assert bench_pairs.main(["--label", "t", "--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "none"), "--parent-commit", "a",
                             "--change-commit", "b"]) == 2
    assert "no recipe records" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_refuses_two_records_of_one_run(bench_pairs, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, 1, 3.0)
    write_run(change, 1, 2.0)
    write_run(change, 1, 2.5, name="rerun.json")
    assert bench_pairs.main(["--label", "t", "--parent", str(parent), "--change",
                             str(change), "--parent-commit", "a",
                             "--change-commit", "b"]) == 2
    err = capsys.readouterr().err
    assert "rerun.json" in err and "run-1-0.json" in err and "seed 1 trace 0" in err
    assert not (tmp_path / "BENCH_t.json").exists()


def verdicts(bench_pairs, tmp_path, parent_runs, change_runs):
    """Each metric's verdict over runs given as (setup_s, sent_per_s)."""
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for seed, (setup, rate) in enumerate(runs):
            write_run(tmp_path / side, seed, setup, sent_per_s=rate)
    assert bench_pairs.main(["--label", "v", "--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--parent-commit", "a", "--change-commit", "b"]) == 0
    result = json.loads((tmp_path / "BENCH_v.json").read_text())
    summary = result["workloads"]["train_bigru_att_sst"]["summary"]
    return {metric: s["verdict"] for metric, s in summary.items()}


def test_verdict_worse_past_the_bound(bench_pairs, tmp_path, capsys):
    # BENCHMARK.json bounds both metrics at 0.25: setup 2.0 -> 2.6 s is
    # 30% worse, 70 -> 56 sent/s is 20% worse and within the bound
    got = verdicts(bench_pairs, tmp_path, [(2.0, 70.0)] * 3, [(2.6, 56.0)] * 3)
    assert got == {"setup_s": "worse", "sent_per_s": "ok"}
    assert "worse" in capsys.readouterr().out


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound(bench_pairs,
                                                                   tmp_path):
    # parent sent/s quartiles 60 and 80 around 70: a spread of 29% of the
    # median; the change's median is better, yet one change run loses to
    # a parent run.  Setup spreads by 40%, but every change run beats
    # every parent run.
    parent = [(1.5, 50.0), (2.5, 70.0), (3.5, 90.0)]
    change = [(1.2, 72.0), (1.3, 75.0), (1.4, 80.0)]
    assert verdicts(bench_pairs, tmp_path, parent, change) == {
        "setup_s": "ok", "sent_per_s": "unresolved"}
