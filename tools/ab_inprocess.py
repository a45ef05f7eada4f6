"""Time two checkouts of arbogru against each other in one process.

    python3 tools/ab_inprocess.py --parent PARENT_DIR --change CHANGE_DIR \
        [--workload train_gru_deep] [--seed 7] [--scale recipe]

Each checkout's ``src/arbogru`` is imported under its own package name
(``arbogru_parent``, ``arbogru_change``), so both run in one interpreter
with the same heap, BLAS threads and machine state.  The inputs are one
seed of a training workload from ``benchmarks/gen.py``, written to a
temporary directory and removed at the end; each side loads them with
its own treebank reader and draws the same parameters (random
embeddings, the workload's variant, ``--dim`` of the scale).

Batch i times ``sentence_gradients`` on the i-th 25 training sentences
(no dropout) and ``evaluate`` on the i-th 26 test sentences, wrapping
round when a split runs out, once per side, alternating which side goes
first.  ``WARMUP`` batches are run and not counted, then ``BATCHES``
are timed.  It prints, per call, each side's median milliseconds, the
change's speed-up (parent median over change median), how many batches
each side won, and the largest loss difference between the sides.
Nothing under ``benchmarks/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CALLS = ("sentence_gradients", "evaluate")
TRAIN_BLOCK = 25
WARMUP = 3
BATCHES = 40


def load_package(checkout: str, name: str):
    """``checkout``'s ``src/arbogru`` imported afresh as the package ``name``."""
    for loaded in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[loaded]
    package = os.path.join(checkout, "src", "arbogru")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_gen():
    spec = importlib.util.spec_from_file_location(
        "arbogru_bench_gen", os.path.join(ROOT, "benchmarks", "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout's package with its corpora, vocabulary and parameters."""

    def __init__(self, name: str, checkout: str, data_dir: str, spec: dict, dim: int,
                 seed: int):
        pkg = load_package(checkout, f"arbogru_{name}")
        self.training = pkg.training
        load = pkg.treebank.load_corpus
        self.train = load(os.path.join(data_dir, "train.txt"))
        self.test = load(os.path.join(data_dir, "test.txt"))
        self.vocab = pkg.embeddings.build_vocab(self.train)
        self.params = pkg.model.init_params(
            spec["variant"], dim, self.vocab, self.train.class_count, 2,
            np.random.default_rng(seed), attention=spec["attention"])

    def sentence_gradients(self, i: int) -> float:
        trees = self.train.trees[i * TRAIN_BLOCK:(i + 1) * TRAIN_BLOCK]
        losses, _ = self.training.sentence_gradients(trees, self.params, self.vocab)
        return float(losses.sum())

    def evaluate(self, i: int, size: int) -> float:
        trees = self.test.trees[i * size:(i + 1) * size]
        corpus = type(self.test)(trees, self.test.split_name, self.test.task,
                                 self.test.class_count)
        return self.training.evaluate(corpus, self.params, self.vocab).loss


def run(parent: str, change: str, workload: str, seed: int, scale: str) -> dict:
    """Per call and side, the timed milliseconds of every counted batch,
    plus the largest loss difference seen between the sides."""
    gen = load_gen()
    spec = gen.WORKLOADS[workload]
    if spec["mode"] != "train":
        raise SystemExit(f"ab_inprocess: {workload} is not a training workload")
    dim, test_block = gen.SCALES[scale]["dim"], gen.BLOCKS["test"]
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as data_dir:
        gen.generate(workload, seed, data_dir, scale)
        sides = {name: Side(name, path, data_dir, spec, dim, seed)
                 for name, path in zip(SIDES, (parent, change))}
    n_train = len(sides["parent"].train.trees) // TRAIN_BLOCK
    n_test = len(sides["parent"].test.trees) // test_block
    times = {call: {name: [] for name in SIDES} for call in CALLS}
    worst = 0.0
    for i in range(WARMUP + BATCHES):
        first = SIDES if i % 2 == 0 else SIDES[::-1]
        for call in CALLS:
            losses = {}
            for name in first:
                side = sides[name]
                start = time.perf_counter()
                losses[name] = (side.sentence_gradients(i % n_train) if call == CALLS[0]
                                else side.evaluate(i % n_test, test_block))
                if i >= WARMUP:
                    times[call][name].append(1e3 * (time.perf_counter() - start))
            worst = max(worst, abs(losses["parent"] - losses["change"]))
    return {"times": times, "worst_loss_diff": worst}


def report(result: dict) -> str:
    lines = []
    for call, by_side in result["times"].items():
        parent, change = by_side["parent"], by_side["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        lines.append(f"{call}: parent {p_med:.2f} ms, change {c_med:.2f} ms, "
                     f"x{p_med / c_med:.3f}; change won {wins}/{len(parent)}, "
                     f"parent won {sum(p < c for p, c in zip(parent, change))}")
    lines.append(f"largest loss difference: {result['worst_loss_diff']:.3g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent checkout")
    parser.add_argument("--change", required=True, help="the changed checkout")
    parser.add_argument("--workload", default="train_gru_deep")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", default="recipe")
    args = parser.parse_args(argv)
    print(report(run(args.parent, args.change, args.workload, args.seed, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
