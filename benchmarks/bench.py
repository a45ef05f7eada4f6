"""arbogru benchmark: seeded synthetic inputs, timed workloads, correctness gate.

    python3 benchmarks/bench.py --workload train_bigru_att_sst --seed 1 \
        --seconds 10 --trace 0

Each run generates its inputs from ``--seed`` in a child process
(``gen.py``), sets the program up several times, runs the workload's
timed work for about ``--seconds`` seconds, checks the outputs, and
prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's public
functions (see ``tracer.py``) and reports the per-layer metrics.  The
workloads, metrics and correctness checks are described in README.md.

Everything the run writes goes under ``.bench_out/`` at the checkout
root: a result file per run, and the generated inputs, deleted when the
run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracer import PROBES, Tracer  # noqa: E402

# the paper's recipe: 40 epochs of 8544 sentences, four dev evaluations
# of 1101 sentences per epoch; inference scores the 2210-sentence test split
RECIPE_EPOCHS = 40
RECIPE_TRAIN, RECIPE_DEV, RECIPE_TEST = 8544, 1101, 2210
EVALS_PER_EPOCH = 4

SETUP_REPEATS = 3
GRADCHECK_DIM = 4
GRADCHECK_THRESHOLD = 1e-4   # the program's own gradcheck threshold
ORACLE_TOLERANCE = 1e-9      # survives a change of summation order
ORACLE_SAMPLE = 4
PREDICT_REPEATS = 5          # predict calls on one test block after training

LAYERS = ("treebank", "embeddings", "checkpoint", "model", "autodiff",
          "training", "cli")
PASSES = ("upward_pass", "downward_pass", "attention_pool", "predict_nodes")


def import_program():
    """The package under test, from the checkout's ``src``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from arbogru import (autodiff, checkpoint, cli, embeddings, model,
                             training, treebank)
    except ImportError as err:
        raise SystemExit(f"bench: cannot import the arbogru package from "
                         f"{os.path.join(ROOT, 'src')}: {err}") from None
    return {"autodiff": autodiff, "checkpoint": checkpoint, "cli": cli,
            "embeddings": embeddings, "model": model, "training": training,
            "treebank": treebank}


class Gate:
    """Counts operations attempted and failed; every failure is reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, attempted: int, failed: int = 0, detail: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed {detail}")


class GcClock:
    """Time the program spends in the interpreter's cyclic garbage collector.

    Set-up leaves about a million tree objects alive.  Every full
    collection traverses them (about 0.9 s on SST-shaped corpora, 1.7 s
    on the deep ones on a 2-CPU x86 box), and one falls due every few
    dozen sentences.  Left alone, those pauses land in a few of the
    short timed calls of a run and make the figures bimodal.  So ``freeze``
    collects once after set-up, times that collection (reported as
    ``process.gc_full_ms``), and moves the survivors out of the
    collector's reach with ``gc.freeze``.  Collections during the timed
    work then see only the objects the work itself creates.
    """

    def __init__(self):
        self.seconds = 0.0
        self.full = 0
        self.freeze_seconds = 0.0
        self._start = 0.0
        self._freezing = False

    def __call__(self, phase, info):
        if self._freezing:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.full += info["generation"] == 2

    def freeze(self) -> None:
        self._freezing = True
        try:
            start = time.perf_counter()
            gc.collect()
            self.freeze_seconds = time.perf_counter() - start
            gc.freeze()
        finally:
            self._freezing = False

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def tree_shape(tree) -> tuple[int, int]:
    """(node count, height in levels) without recursion."""
    nodes, height, stack = 0, 0, [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        height = max(height, depth)
        stack.extend((child, depth + 1) for child in node.children)
    return nodes, height


class Run:
    def __init__(self, args, pkg, work: str):
        self.spec = gen.WORKLOADS[args.workload]
        self.scale = gen.SCALES[args.scale]
        self.seed = args.seed
        self.seconds = args.seconds
        self.pkg = pkg
        self.work = work
        self.gate = Gate()
        self.data: dict = {}
        self.timed_trees: list = []
        self.cpu_util = 0.0
        self.gc = GcClock()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def corpus(self, trees, like):
        return self.pkg["treebank"].Corpus(list(trees), like.split_name, like.task,
                                           like.class_count)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> dict:
        tb, emb, mdl = self.pkg["treebank"], self.pkg["embeddings"], self.pkg["model"]
        if self.spec["mode"] == "infer":  # what `arbogru eval` loads
            return {"params": self.pkg["checkpoint"].load_checkpoint(
                        self.path("checkpoint.bin")),
                    "vocab": emb.load_vocab(self.path("vocab.txt")),
                    "test": tb.load_corpus(self.path("test.txt"))}
        # what `arbogru train` loads, in its order
        corpora = self.pkg["training"].SplitCorpora(
            train=tb.load_corpus(self.path("train.txt")),
            dev=tb.load_corpus(self.path("dev.txt")),
            test=tb.load_corpus(self.path("test.txt")))
        vocab = emb.build_vocab(corpora.train)
        rng = np.random.default_rng(self.seed)
        vectors = emb.load_glove(self.path("glove.txt"), vocab, self.scale["dim"],
                                 rng, np.float64)
        params = mdl.init_params(self.spec["variant"], self.scale["dim"], vocab,
                                 corpora.train.class_count, 2, rng,
                                 attention=self.spec["attention"],
                                 embeddings=vectors, dtype=np.float64)
        return {"corpora": corpora, "vocab": vocab, "params": params,
                "test": corpora.test}

    def setup_repeated(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            self.data = {}
            start = time.perf_counter()
            self.data = self.setup()
            times.append(time.perf_counter() - start)
        with open(self.path("test.txt"), encoding="utf-8") as handle:
            self.test_lines = [line for line in handle if line.strip()]
        return statistics.median(times)

    # -- timed work ----------------------------------------------------------
    #
    # The timed work is a sequence of units that do identical amounts of
    # work (see gen.BLOCKS).  Each unit yields its own rate, and the run
    # reports medians, so a transient stall of the machine moves one
    # unit, not the run's figure.

    def timed(self, tracer: Tracer, unit: int) -> dict:
        """Run whole units of work for about ``seconds``; return the figures."""
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        gc0, full0 = self.gc.seconds, self.gc.full
        if self.spec["mode"] == "train":
            figures = self.timed_train(tracer, unit)
        else:
            figures = self.timed_infer()
        self.cpu_util = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
        figures["gc_seconds"] = self.gc.seconds - gc0
        figures["gc_full"] = self.gc.full - full0
        return figures

    def timed_train(self, tracer: Tracer, unit: int) -> dict:
        """Epochs of the schedule, one training block each."""
        training = self.pkg["training"]
        corpora, params, vocab = (self.data["corpora"], self.data["params"],
                                  self.data["vocab"])
        tb, db = gen.BLOCKS["train"], gen.BLOCKS["dev"]
        n_train = len(corpora.train.trees) // tb
        n_dev = len(corpora.dev.trees) // db
        figures = {"train_rates": [], "eval_rates": [], "copy_seconds": []}
        start = time.perf_counter()
        while True:
            i = unit
            unit += 1
            block = corpora.train.trees[(i % n_train) * tb:(i % n_train + 1) * tb]
            dev = corpora.dev.trees[(i % n_dev) * db:(i % n_dev + 1) * db]
            self.timed_trees = block
            config = training.TrainConfig(
                variant=self.spec["variant"], attention=self.spec["attention"],
                dim=self.scale["dim"], epochs=1, seed=self.seed + i)
            split = training.SplitCorpora(self.corpus(block, corpora.train),
                                          self.corpus(dev, corpora.dev))
            lines: list[str] = []
            mark = tracer.mark()
            call = time.perf_counter()
            try:
                result = training.train(config, split, params, vocab,
                                        log_fn=lines.append)
            except training.TrainingError as err:
                raise SystemExit(f"bench: training failed: {err}") from None
            call_seconds = time.perf_counter() - call
            evals = tracer.select("training.evaluate", mark)
            copies = tracer.select("model.copy", mark)
            schedule = (call_seconds - sum(s.seconds for s in evals)
                        - sum(s.seconds for s in copies))
            figures["train_rates"].append(len(block) / schedule)
            figures["eval_rates"] += [s.count / s.seconds for s in evals]
            figures["copy_seconds"] += [s.seconds for s in copies]
            self.best = result.best_params
            losses = [float(line.split("\t")[2]) for line in lines]
            self.gate.record("training sentences", len(block))
            self.gate.record("training losses", len(losses),
                             sum(not np.isfinite(x) for x in losses))
            if time.perf_counter() - start >= self.seconds:
                break
        figures["units"] = unit
        return figures

    def timed_infer(self) -> dict:
        """`evaluate` on test blocks for half the time, then `predict` on
        the same blocks for the other half."""
        test, params, vocab = self.data["test"], self.data["params"], self.data["vocab"]
        size = gen.BLOCKS["test"]
        figures = {"eval_rates": [], "predict_rates": []}
        hits = []
        start = time.perf_counter()
        for i in range(len(test.trees) // size):
            block = self.corpus(test.trees[i * size:(i + 1) * size], test)
            rate, block_hits = self.evaluate(block, params)
            figures["eval_rates"].append(rate)
            hits.append(block_hits)
            if time.perf_counter() - start >= self.seconds / 2:
                break
        self.timed_trees = test.trees[:len(hits) * size]
        start = time.perf_counter()
        for i, block_hits in enumerate(hits):
            rate, labels = self.predict(self.path("checkpoint.bin"),
                                        self.test_lines[i * size:(i + 1) * size])
            figures["predict_rates"].append(rate)
            self.check_agreement(test.trees[i * size:(i + 1) * size], labels,
                                 block_hits)
            if time.perf_counter() - start >= self.seconds / 2:
                break
        return figures

    def evaluate(self, corpus, params) -> tuple[float, int]:
        """(sentences per second, root hits) of one `evaluate` call."""
        start = time.perf_counter()
        metrics = self.pkg["training"].evaluate(corpus, params, self.data["vocab"])
        seconds = time.perf_counter() - start
        self.gate.record("eval sentences", len(corpus))
        return len(corpus) / seconds, round(metrics.root_accuracy * len(corpus))

    def predict(self, checkpoint_path: str, lines: list[str]) -> tuple[float, list[int]]:
        """(lines per second, root labels) of one `arbogru predict` call."""
        source = self.path("predict.txt")
        with open(source, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.pkg["cli"].main(["predict", "--checkpoint", checkpoint_path,
                                         "--input", source])
        seconds = time.perf_counter() - start
        rows = out.getvalue().splitlines()
        failed = max(len(lines) - len(rows), int(code != 0))
        self.gate.record("predict lines", len(lines), failed, f"(exit code {code})")
        return len(lines) / seconds, [int(row.split("\t")[0]) for row in rows]

    def check_agreement(self, trees, labels: list[int], eval_hits: int) -> None:
        """`evaluate`'s root accuracy must equal the one `predict` implies."""
        predicted = sum(int(label == tree.label) for label, tree in zip(labels, trees))
        self.gate.record("eval/predict root accuracy agreement", 1,
                         int(predicted != eval_hits),
                         f"(eval {eval_hits}, predict {predicted} of {len(trees)})")

    def after_training(self) -> dict:
        """Save the best-dev model as `arbogru train` does, send a test
        block through `arbogru predict` with it, and check `evaluate`
        against `predict` on that block."""
        run_dir = self.path("run")
        os.makedirs(run_dir, exist_ok=True)
        ckpt = os.path.join(run_dir, "checkpoint.bin")
        self.pkg["checkpoint"].save_checkpoint(ckpt, self.best)
        self.pkg["embeddings"].save_vocab(self.data["vocab"],
                                          os.path.join(run_dir, "vocab.txt"))
        size = gen.BLOCKS["test"]
        test = self.data["test"]
        block = self.corpus(test.trees[:size], test)
        eval_rate, hits = self.evaluate(block, self.best)
        predict_rates = []
        for _ in range(PREDICT_REPEATS):
            rate, labels = self.predict(ckpt, self.test_lines[:size])
            predict_rates.append(rate)
            self.check_agreement(block.trees, labels, hits)
        return {"eval_rates": [eval_rate], "predict_rates": predict_rates}

    # -- correctness checks (never traced) -----------------------------------

    def gradient_check(self) -> None:
        err = self.pkg["training"].gradient_check(
            self.spec["variant"], self.spec["attention"], GRADCHECK_DIM, seed=self.seed)
        self.gate.record("gradient check", 1, int(not err < GRADCHECK_THRESHOLD),
                         f"(max relative error {err:.3e})")

    def oracle_check(self) -> None:
        """Root distributions against the tape-free reference in tests/oracles.py."""
        params = self.best if self.spec["mode"] == "train" else self.data["params"]
        vocab = self.data["vocab"]
        trees = self.data["test"].trees[:ORACLE_SAMPLE]
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        try:
            import oracles
        except ImportError as err:
            self.gate.record("oracle forward", len(trees), len(trees), str(err))
            return
        t, bigru = params.tensors, params.variant == "treebigru"
        worst = 0.0
        for tree in trees:
            tape = self.pkg["autodiff"].Tape()
            got = self.pkg["training"].build_sentence_graph(
                tape, tree, params, vocab).preds.probs[0]
            up = oracles.upward_states(tree, t, vocab)
            down = oracles.downward_states(tree, up, t) if bigru else None
            pooled = None
            if params.attention:
                reps = ([np.concatenate([u["h"], d["h"]]) for u, d in zip(up, down)]
                        if bigru else [u["h"] for u in up])
                _, pooled = oracles.attention(reps, t)
            want = oracles.predictions(up, down, pooled, t, params.variant,
                                       params.attention)[0]
            worst = max(worst, float(np.max(np.abs(got - want))))
        self.gate.record("oracle forward", len(trees),
                         len(trees) if not worst <= ORACLE_TOLERANCE else 0,
                         f"(max abs difference {worst:.3e})")


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run: Run, setup_s: float, fig: dict) -> dict:
    median = statistics.median
    eval_rate = median(fig["eval_rates"])
    predict_rate = median(fig["predict_rates"])
    if run.spec["mode"] == "train":
        rate = median(fig["train_rates"])
        evals = RECIPE_EPOCHS * EVALS_PER_EPOCH
        # a best-dev snapshot after every evaluation bounds the real count
        recipe_s = (RECIPE_EPOCHS * RECIPE_TRAIN / rate
                    + evals * RECIPE_DEV / eval_rate
                    + (evals + 1) * median(fig["copy_seconds"]))
    else:
        # equal numbers of sentences through eval and through predict
        rate = 2.0 / (1.0 / eval_rate + 1.0 / predict_rate)
        recipe_s = RECIPE_TEST / eval_rate + RECIPE_TEST / predict_rate
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "sent_per_s": (rate, "1/s"),
        "eval_sent_per_s": (eval_rate, "1/s"),
        "predict_sent_per_s": (predict_rate, "1/s"),
        "recipe_h": (recipe_s / 3600.0, "h"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(run: Run, tracer: Tracer, figures: dict) -> tuple[dict, list]:
    """Per-layer figures from the traced pass; a metric whose span the
    program no longer has is left out."""
    sel = tracer.select
    secs = lambda spans: sum(s.seconds for s in spans)  # noqa: E731
    train_ctx = "training.sentence_gradients"
    sentences = sel(train_ctx)
    upward = sel("model.upward_pass")
    scored = [s for s in upward if not tracer.ancestor(s, train_ctx)]
    batches = sel("training.adagrad_step")
    schedule = sel("training.train")
    in_schedule = lambda name: [s for s in sel(name)  # noqa: E731
                                if tracer.ancestor(s, "training.train")]
    schedule_s = (secs(schedule) - secs(in_schedule("training.evaluate"))
                  - secs(in_schedule("model.copy")))
    backward = sel("autodiff.backward")
    corpora = sel("treebank.load_corpus")
    copies = sel("model.copy")
    loads, saves = sel("checkpoint.load"), sel("checkpoint.save")
    glove = sel("embeddings.load_glove")
    dev_evals = in_schedule("training.evaluate")
    parses = [s for s in sel("treebank.parse_tree")
              if tracer.ancestor(s, "cli.predict")]
    per = lambda total, n: total / n if n else 0.0  # noqa: E731
    shapes = [tree_shape(t) for t in run.timed_trees]

    rows = [
        ("treebank.load_corpus_s", "s", ["treebank.load_corpus"],
         lambda: secs(corpora) / SETUP_REPEATS),
        ("treebank.trees_per_s", "1/s", ["treebank.load_corpus"],
         lambda: per(sum(s.count for s in corpora), secs(corpora))),
        ("treebank.parse_tree_ms", "ms", ["treebank.parse_tree", "cli.predict"],
         lambda: 1e3 * per(secs(parses), len(parses))),
        ("embeddings.build_vocab_s", "s", ["embeddings.build_vocab"],
         lambda: secs(sel("embeddings.build_vocab")) / SETUP_REPEATS),
        ("embeddings.load_glove_s", "s", ["embeddings.load_glove"],
         lambda: secs(glove) / SETUP_REPEATS),
        ("embeddings.coverage", "ratio", ["embeddings.load_glove"],
         lambda: glove[-1].count if glove else 0.0),
        ("embeddings.vocab_size", "count", [], lambda: run.data["vocab"].size),
        ("checkpoint.load_s", "s", ["checkpoint.load"],
         lambda: per(secs(loads), len(loads))),
        ("checkpoint.save_s", "s", ["checkpoint.save"],
         lambda: per(secs(saves), len(saves))),
        ("checkpoint.bytes", "bytes", ["checkpoint.save"],
         lambda: saves[-1].count if saves else
         os.path.getsize(run.path("checkpoint.bin"))),
        ("model.init_params_s", "s", ["model.init_params"],
         lambda: secs(sel("model.init_params")) / SETUP_REPEATS),
    ]
    for name in PASSES:
        span = f"model.{name}"
        spans = sel(span)
        rows.append((f"{span}.train_ms", "ms", [span, train_ctx],
                     lambda spans=spans: 1e3 * per(
                         secs(s for s in spans if tracer.ancestor(s, train_ctx)),
                         len(sentences))))
        rows.append((f"{span}.eval_ms", "ms", [span, train_ctx],
                     lambda spans=spans: 1e3 * per(
                         secs(s for s in spans if not tracer.ancestor(s, train_ctx)),
                         len(scored))))
        rows.append((f"{span}.calls", "count", [span], lambda spans=spans: len(spans)))
    rows += [
        ("model.copy_ms", "ms", ["model.copy"], lambda: 1e3 * per(secs(copies), len(copies))),
        ("model.copy_count", "count", ["model.copy"], lambda: len(copies)),
        ("model.nodes_per_sent", "count", [],
         lambda: statistics.fmean(n for n, _ in shapes)),
        ("model.height_per_sent", "count", [],
         lambda: statistics.fmean(h for _, h in shapes)),
        ("autodiff.backward_ms", "ms", ["autodiff.backward"],
         lambda: 1e3 * per(secs(backward), len(backward))),
        ("autodiff.backward_calls", "count", ["autodiff.backward"], lambda: len(backward)),
        ("autodiff.backward_share", "ratio", ["autodiff.backward", "training.train"],
         lambda: per(secs(s for s in backward if tracer.ancestor(s, "training.train")),
                     schedule_s)),
        ("autodiff.tape_len", "count", ["autodiff.backward"],
         lambda: per(sum(s.count for s in backward), len(backward))),
        ("training.sentence_gradients_ms", "ms", [train_ctx],
         lambda: 1e3 * per(secs(sentences), len(sentences))),
        ("training.merge_ms", "ms", ["training.merge", "training.adagrad_step"],
         lambda: 1e3 * per(secs(sel("training.merge")), len(batches))),
        ("training.l2_ms", "ms",
         ["training.l2_penalty", "training.add_l2_gradients", "training.adagrad_step"],
         lambda: 1e3 * per(secs(sel("training.l2_penalty"))
                           + secs(sel("training.add_l2_gradients")), len(batches))),
        ("training.adagrad_step_ms", "ms", ["training.adagrad_step"],
         lambda: 1e3 * per(secs(batches), len(batches))),
        ("training.evaluate_sent_per_s", "1/s", ["training.evaluate", "training.train"],
         lambda: per(sum(s.count for s in dev_evals), secs(dev_evals))),
        ("training.batches", "count", ["training.adagrad_step"], lambda: len(batches)),
        ("training.evals", "count", ["training.evaluate", "training.train"],
         lambda: len(dev_evals)),
        ("process.cpu_util", "ratio", [], lambda: run.cpu_util),
        ("process.gc_s", "s", [], lambda: figures["gc_seconds"]),
        ("process.gc_full", "count", [], lambda: figures["gc_full"]),
        ("process.gc_full_ms", "ms", [], lambda: 1e3 * run.gc.freeze_seconds),
    ]
    self_time = tracer.self_seconds_by_layer()
    for layer in LAYERS:
        needs = [s[0] for s in tracer.specs if s[0].startswith(layer + ".")]
        rows.append((f"{layer}.self_s", "s", needs[:1],
                     lambda layer=layer: self_time.get(layer, 0.0)))

    metrics, absent = {}, []
    for name, unit, needs, value in rows:
        if any(not tracer.has(n) for n in needs):
            absent.append(name)
            continue
        metrics[name] = (float(value()), unit)
    return metrics, absent


# ---------------------------------------------------------------------------
# environment record

def blas_threads():
    """Thread count of the loaded OpenBLAS, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "blas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_build() -> str:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{config.get('name')} {config.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_hash():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None  # benchmark checkouts are plain file trees
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_build(),
            "blas_threads": blas_threads(), "git": git_hash()}


# ---------------------------------------------------------------------------

def generate_inputs(args, work: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--out", work, "--scale", args.scale],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=170)


def measure(args, pkg, work: str) -> tuple[dict, Run, dict]:
    run = Run(args, pkg, work)
    record: dict = {}
    traced = args.trace == 1
    with run.gc:
        run.gradient_check()
        tracer = Tracer(None if traced else PROBES).install()
        try:
            setup_s = run.setup_repeated()
            run.gc.freeze()
            figures = run.timed(tracer, 0)
            if run.spec["mode"] == "train":
                for key, value in run.after_training().items():
                    figures[key] = figures.get(key, []) + value
        finally:
            tracer.uninstall()
        metrics = end_to_end(run, setup_s, figures)
        if traced:
            layers, record["absent"] = per_layer(run, tracer, figures)
            # the same work again without the wrappers gives the tracing overhead
            probe = Tracer(PROBES).install()
            try:
                again = run.timed(probe, figures.get("units", 1))
            finally:
                probe.uninstall()
            untraced = end_to_end(run, setup_s, {**figures, **again})["sent_per_s"][0]
            layers["trace.overhead"] = (untraced / metrics["sent_per_s"][0] - 1.0, "ratio")
            record["spans"] = tracer.dump()
            metrics = layers
        run.oracle_check()
    record["figures"] = figures
    return metrics, run, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arbogru benchmark")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="approximate length of the timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the package's calls, report per-layer metrics")
    parser.add_argument("--scale", choices=sorted(gen.SCALES), default="recipe",
                        help="'smoke' shrinks every input to prove the harness")
    args = parser.parse_args(argv)
    pkg = import_program()

    env = environment()
    env["loadavg_1m_before"] = os.getloadavg()[0]
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        generate_inputs(args, work)
        metrics, run, record = measure(args, pkg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_after"] = os.getloadavg()[0]
    env["process.cpu_util"] = run.cpu_util

    gate = run.gate
    for problem in gate.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "scale": args.scale, "env": env, "result": result})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps({"env": env}))
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<34} {value:>14.6g} {unit}")
    if record.get("absent"):
        print("absent (span missing from the program): " + ", ".join(record["absent"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
