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

Batch i times three calls, once per side, alternating which side goes
first; a split's blocks wrap round when it runs out:

- ``sentence_gradients`` on the i-th 25 training sentences (no dropout);
- ``evaluate`` on the i-th 26 test sentences;
- ``train``: one epoch on the i-th 25 training sentences with the i-th
  13 dev sentences, ``TrainConfig(..., epochs=1, seed=seed + i)``, as
  ``benchmarks/bench.py`` times it.  It trains a second parameter set,
  drawn like the first, so the other two calls keep the initial ones.

``WARMUP`` batches are run and not counted, then ``BATCHES`` are timed.
Then one more batch of each call is run per side under ``tracemalloc``,
untimed, for the peak of the memory it allocates: both sides run in one
heap, so the peaks compare like with like.  It prints, per call, each
side's median milliseconds, the change's speed-up (parent median over
change median) and how many batches each side won; per call, each side's
peak MiB; then the largest loss difference between the sides over every
timed call: the summed loss, the mean dev loss and the logged train
loss.  Nothing under ``benchmarks/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CALLS = ("sentence_gradients", "evaluate", "train")
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
    """One checkout's package with its corpora, vocabulary and two equal
    parameter sets, one to score and one to train."""

    def __init__(self, name: str, checkout: str, data_dir: str, spec: dict, dim: int,
                 seed: int, blocks: dict):
        pkg = load_package(checkout, f"arbogru_{name}")
        self.training = pkg.training
        load = pkg.treebank.load_corpus
        self.splits = {split: load(os.path.join(data_dir, f"{split}.txt"))
                       for split in blocks}
        self.blocks, self.spec, self.dim, self.seed = blocks, spec, dim, seed
        self.vocab = pkg.embeddings.build_vocab(self.splits["train"])
        self.params, self.trained = (pkg.model.init_params(
            spec["variant"], dim, self.vocab, self.splits["train"].class_count, 2,
            np.random.default_rng(seed), attention=spec["attention"]) for _ in range(2))

    def block(self, split: str, i: int):
        """The i-th block of ``split`` as a corpus, wrapping round."""
        corpus, size = self.splits[split], self.blocks[split]
        j = i % (len(corpus.trees) // size)
        return type(corpus)(corpus.trees[j * size:(j + 1) * size], corpus.split_name,
                            corpus.task, corpus.class_count)

    def sentence_gradients(self, i: int) -> float:
        losses, _ = self.training.sentence_gradients(self.block("train", i).trees,
                                                     self.params, self.vocab)
        return float(losses.sum())

    def evaluate(self, i: int) -> float:
        return self.training.evaluate(self.block("test", i), self.params, self.vocab).loss

    def train(self, i: int) -> float:
        training = self.training
        config = training.TrainConfig(variant=self.spec["variant"],
                                      attention=self.spec["attention"], dim=self.dim,
                                      epochs=1, seed=self.seed + i)
        data = training.SplitCorpora(self.block("train", i), self.block("dev", i))
        lines: list[str] = []
        training.train(config, data, self.trained, self.vocab, log_fn=lines.append)
        return float(lines[-1].split("\t")[2])


def run(parent: str, change: str, workload: str, seed: int, scale: str) -> dict:
    """Per call and side, the timed milliseconds of every counted batch
    and the traced peak MiB of one more, plus the largest loss difference
    seen between the sides."""
    gen = load_gen()
    spec = gen.WORKLOADS[workload]
    if spec["mode"] != "train":
        raise SystemExit(f"ab_inprocess: {workload} is not a training workload")
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as data_dir:
        gen.generate(workload, seed, data_dir, scale)
        sides = {name: Side(name, path, data_dir, spec, gen.SCALES[scale]["dim"], seed,
                            gen.BLOCKS)
                 for name, path in zip(SIDES, (parent, change))}
    times = {call: {name: [] for name in SIDES} for call in CALLS}
    worst = 0.0
    for i in range(WARMUP + BATCHES):
        first = SIDES if i % 2 == 0 else SIDES[::-1]
        for call in CALLS:
            losses = {}
            for name in first:
                timed = getattr(sides[name], call)
                start = time.perf_counter()
                losses[name] = timed(i)
                if i >= WARMUP:
                    times[call][name].append(1e3 * (time.perf_counter() - start))
            worst = max(worst, abs(losses["parent"] - losses["change"]))
    peaks = {call: {} for call in CALLS}
    for call in CALLS:
        for name in SIDES:
            tracemalloc.start()
            try:
                getattr(sides[name], call)(WARMUP + BATCHES)
                peaks[call][name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
    return {"times": times, "peaks": peaks, "worst_loss_diff": worst}


def report(result: dict) -> str:
    lines = []
    for call, by_side in result["times"].items():
        parent, change = by_side["parent"], by_side["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        lines.append(f"{call}: parent {p_med:.2f} ms, change {c_med:.2f} ms, "
                     f"x{p_med / c_med:.3f}; change won {wins}/{len(parent)}, "
                     f"parent won {sum(p < c for p, c in zip(parent, change))}")
    for call, by_side in result["peaks"].items():
        lines.append(f"{call} peak: parent {by_side['parent']:.1f} MiB, "
                     f"change {by_side['change']:.1f} MiB")
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
