"""Command-line driver: train, eval, predict, gradcheck, params.

Exit codes: 0 success, 1 numerical/quality failure, 2 usage or format
error.  The environment variable ARBO_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import Tape
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .embeddings import build_vocab, load_glove, load_vocab, save_vocab
from .model import ATTENTION_NORMS, VARIANTS, init_params, itemize_parameters
from .training import (SCORE_CHUNK, SplitCorpora, TrainConfig, TrainingError,
                       build_forest_graph, evaluate, gradient_check, train)
from .treebank import (BINARY_CLASSES, FINE_CLASSES, TASK_BINARY, TASK_FINE,
                       Forest, TreebankError, load_corpus, open_text, parse_tree)

log = logging.getLogger("arbogru")

GRADCHECK_THRESHOLD = 1e-4
MAX_CHILDREN = 2  # K: trained models and the audit are binary-branching

# reference totals for the original 300-dim, 5-class sentiment-treebank
# configuration (vocab 21702, binary branching)
REFERENCE_DIMS = (300, 21702, 5)
REFERENCE_TOTALS = {
    ("treegru", False): 7_323_005,
    ("treegru", True): 7_413_605,
    ("treebigru", False): 8_135_405,
    ("treebigru", True): 8_317_810,
}
# the reference bidirectional counts exceed the implemented update rules by
# 3*d^2 = 270000, consistent with the downward gates also receiving an
# input-term matrix set; the audit surfaces the difference instead of
# guessing at undocumented tensors
DOWNWARD_COUNT_GAP = 270_000


class UsageError(ValueError):
    pass


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (TrainingError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _configure_logging() -> None:
    level = os.environ.get("ARBO_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbogru",
        description="Tree-structured GRU sentiment models over constituency trees")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a model and keep the best-dev checkpoint")
    _model_flags(p)
    _attention_norm_flag(p)
    p.add_argument("--data", required=True,
                   help="directory with train.txt and dev.txt treebank files "
                        "(test.txt is for eval)")
    p.add_argument("--glove", default=None,
                   help="pretrained vector file; omitted, embeddings are random")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--task", choices=("fine", "binary"), default=TrainConfig.task,
                   help="label scheme: 5-class or positive/negative")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="learning rate")
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                   help="minibatch size in sentences")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    p.add_argument("--l2", type=float, default=TrainConfig.l2, help="L2 strength")
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout,
                   help="dropout probability on input and classifier layers")
    p.add_argument("--evals-per-epoch", type=int, default=TrainConfig.evals_per_epoch,
                   help="dev evaluations per epoch")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="random seed")
    p.add_argument("--precision", choices=("f32", "f64"), default=TrainConfig.precision,
                   help="floating-point width for parameters")
    p.set_defaults(func=run_train)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="evaluate a checkpoint on a corpus split")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="treebank directory")
    p.add_argument("--split", choices=("train", "dev", "test"), default="test",
                   help="which split to score")
    p.set_defaults(func=run_eval)

    p = sub.add_parser("predict", formatter_class=fmt,
                       help="predict root sentiment for treebank-format lines")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--input", required=True,
                   help="file of treebank lines (labels may be dummy 0)")
    p.add_argument("--show-attention", action="store_true",
                   help="also print per-node attention weights")
    p.set_defaults(func=run_predict)

    p = sub.add_parser("gradcheck", formatter_class=fmt,
                       help="compare tape gradients against finite differences")
    _model_flags(p)
    _attention_norm_flag(p)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--trees", type=int, default=3,
                   help="number of random trees, checked as one forest")
    p.set_defaults(func=run_gradcheck)
    p.set_defaults(dim=8)

    p = sub.add_parser("params", formatter_class=fmt,
                       help="itemize trainable parameter counts")
    _model_flags(p)
    p.add_argument("--vocab", type=int, default=21702, help="vocabulary size")
    p.add_argument("--classes", type=int, default=5, help="sentiment classes")
    p.set_defaults(func=run_params)

    return parser


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANTS, default=TrainConfig.variant,
                   help="network variant")
    p.add_argument("--attention", action="store_true",
                   help="add the structural attention head")
    p.add_argument("--dim", type=int, default=TrainConfig.dim, help="state dimensionality")


def _attention_norm_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attention-norm", choices=ATTENTION_NORMS, default="softmax",
                   help="attention score normalization; stored in the checkpoint")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# subcommands

def run_train(args) -> int:
    _require(args.dim > 0, "--dim must be positive")
    _require(args.batch >= 1, "--batch must be at least 1")
    _require(args.epochs >= 1, "--epochs must be at least 1")
    _require(args.lr > 0, "--lr must be positive")
    _require(0.0 <= args.dropout < 1.0, "--dropout must lie in [0, 1)")
    _require(args.l2 >= 0.0, "--l2 must be nonnegative")
    _require(args.evals_per_epoch >= 1, "--evals-per-epoch must be at least 1")

    corpora = SplitCorpora(*(_load_split(args.data, split, args.task, MAX_CHILDREN)
                             for split in ("train", "dev")))
    config = TrainConfig(
        variant=args.variant, attention=args.attention, task=args.task,
        dim=args.dim, learning_rate=args.lr, batch_size=args.batch, l2=args.l2,
        dropout=args.dropout, epochs=args.epochs,
        evals_per_epoch=args.evals_per_epoch, seed=args.seed,
        precision=args.precision)
    dtype = config.dtype()
    vocab = build_vocab(corpora.train)
    rng = np.random.default_rng(args.seed)
    if args.glove:
        emb = load_glove(args.glove, vocab, args.dim, rng, dtype)
        log.info("pretrained coverage %.3f over %d words", emb.coverage, vocab.size)
    else:
        emb = None  # init_params draws random embeddings from rng
        log.warning("no pretrained vectors supplied; "
                    "random embeddings, coverage 0.0")

    classes = corpora.train.class_count
    params = init_params(args.variant, args.dim, vocab, classes, MAX_CHILDREN, rng,
                         attention=args.attention, embeddings=emb, dtype=dtype,
                         attention_norm=args.attention_norm)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "train.log", "w", encoding="utf-8") as log_file:
        def emit(line):
            log_file.write(line + "\n")
            log_file.flush()
            log.info("%s", line)

        result = train(config, corpora, params, vocab, log_fn=emit)

    with _replacing(out / "checkpoint.bin") as tmp:
        save_checkpoint(tmp, result.best_params)
    with _replacing(out / "vocab.txt") as tmp:
        save_vocab(vocab, tmp)
    manifest = asdict(config)
    manifest.update({
        "attention_norm": result.best_params.attention_norm,
        "max_children": result.best_params.max_children,
        "vocab_size": vocab.size,
        "classes": classes,
        "coverage": emb.coverage if emb else 0.0,
        "parameters": result.best_params.total_parameters(),
        "best_dev_accuracy": result.best_dev_accuracy,
        "best_step": result.best_step,
    })
    with _replacing(out / "manifest.json") as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")

    print(f"best dev root accuracy {result.best_dev_accuracy:.4f} "
          f"at step {result.best_step}")
    return 0


def _load_split(data: str, split: str, task: str, max_arity: int):
    """The corpus of treebank file ``<split>.txt`` under ``data``;
    UsageError if it is missing or holds no sentence the task keeps."""
    path = Path(data) / f"{split}.txt"
    _require(path.exists(), f"missing treebank file {path}")
    corpus = load_corpus(path, task, max_arity=max_arity)
    _require(len(corpus.trees) > 0, f"treebank file {path} holds no sentence" + (
        " with a non-neutral root" if task == TASK_BINARY else ""))
    return corpus


@contextmanager
def _replacing(path: Path):
    """Yield a temporary path next to ``path`` that replaces it once the
    block has written and synced it, so a crash leaves the old file whole."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
        _fsync(tmp)
        os.replace(tmp, path)
        _fsync(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _load_model(checkpoint_path):
    params = load_checkpoint(checkpoint_path)
    vocab_path = Path(checkpoint_path).parent / "vocab.txt"
    if not vocab_path.exists():
        raise UsageError(f"missing vocabulary file {vocab_path}")
    vocab = load_vocab(vocab_path)
    if vocab.size != params.vocab_size:
        raise CheckpointError(
            f"vocabulary size {vocab.size} does not match checkpoint "
            f"({params.vocab_size})")
    return params, vocab


def run_eval(args) -> int:
    params, vocab = _load_model(args.checkpoint)
    task = {FINE_CLASSES: TASK_FINE, BINARY_CLASSES: TASK_BINARY}.get(params.classes)
    _require(task is not None,
             f"checkpoint has {params.classes} classes; eval scores "
             f"{FINE_CLASSES}-class ({TASK_FINE}) or "
             f"{BINARY_CLASSES}-class ({TASK_BINARY}) models")
    corpus = _load_split(args.data, args.split, task, params.max_children)
    metrics = evaluate(corpus, params, vocab)
    print(f"root_accuracy {metrics.root_accuracy:.4f}")
    print(f"node_accuracy {metrics.node_accuracy:.4f}")
    return 0


def run_predict(args) -> int:
    params, vocab = _load_model(args.checkpoint)
    if args.show_attention and not params.attention:
        raise UsageError("--show-attention requires a checkpoint trained "
                         "with --attention")
    failures = 0
    chunk: list = []
    with open_text(args.input, UsageError) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                chunk.append(parse_tree(line, max_arity=params.max_children))
            except TreebankError as err:
                print(f"line {lineno}: {err}", file=sys.stderr)
                failures += 1
            if len(chunk) == SCORE_CHUNK:
                _print_predictions(chunk, params, vocab, args.show_attention)
                chunk = []
    if chunk:
        _print_predictions(chunk, params, vocab, args.show_attention)
    return 1 if failures else 0


def _print_predictions(trees, params, vocab, show_attention: bool) -> None:
    """Score ``trees`` as one forest and print a line per tree, in order:
    root class, root distribution and, if asked, the tree's attention
    weights."""
    forest = Forest.concat(trees)
    forest.gold[:] = -1  # unread, and may lie outside a binary model's classes
    tape = Tape()
    graph = build_forest_graph(tape, forest, params, vocab)
    offsets = graph.states.forest.offsets
    for root, end in zip(offsets[:-1], offsets[1:]):
        fields = [str(graph.preds.labels[root]),
                  " ".join(f"{p:.4f}" for p in graph.preds.probs[root])]
        if show_attention:
            weights = tape.value(graph.attn.weights)[root:end]
            fields.append(" ".join(f"{w:.4f}" for w in weights))
        print("\t".join(fields))


def run_gradcheck(args) -> int:
    _require(args.dim > 0, "--dim must be positive")
    _require(args.trees >= 1, "--trees must be at least 1")
    worst = gradient_check(args.variant, args.attention, args.dim, trees=args.trees,
                           seed=args.seed, attention_norm=args.attention_norm)
    ok = worst < GRADCHECK_THRESHOLD
    print(f"{'PASS' if ok else 'FAIL'} max_rel_err={worst:.3e} "
          f"(threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if ok else 1


def run_params(args) -> int:
    _require(args.dim > 0, "--dim must be positive")
    _require(args.vocab > 0, "--vocab must be positive")
    _require(args.classes >= 2, "--classes must be at least 2")
    items = itemize_parameters(args.variant, args.dim, args.vocab, args.classes,
                               MAX_CHILDREN, args.attention)
    name_w = max(len("reference total"),
                 max(len(name) for name, _, _ in items))
    print(f"{'tensor':<{name_w}}  {'shape':>12}  {'parameters':>12}")
    for name, shape, count in items:
        pretty = "x".join(str(s) for s in shape)
        print(f"{name:<{name_w}}  {pretty:>12}  {count:>12}")
    total = sum(count for _, _, count in items)
    print(f"{'total':<{name_w}}  {'':>12}  {total:>12}")

    key = (args.variant, args.attention)
    if (args.dim, args.vocab, args.classes) == REFERENCE_DIMS:
        reference = REFERENCE_TOTALS[key]
        print(f"{'reference total':<{name_w}}  {'':>12}  {reference:>12}")
        gap = reference - total
        if gap:
            print(f"{'discrepancy':<{name_w}}  {'':>12}  {gap:>12}")
            print(f"note: the reference counts exceed the implemented update rules "
                  f"by {DOWNWARD_COUNT_GAP} = 3*d^2, consistent with the "
                  f"downward gates also receiving an input-term matrix set; "
                  f"this audit reports the rules as implemented")
        else:
            print("matches the reference total exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
