"""Loss assembly, AdaGrad optimization, dropout, and the training loop.

The objective is the summed negative log-likelihood of every supervised
node label in a minibatch plus an L2 penalty (l2/2)*||theta||^2 over the
weight matrices and the embedding rows the batch touched; bias vectors
are exempt.  Optimization is plain AdaGrad.  A minibatch is one forest
on one tape, and evaluation scores a corpus in forests of SCORE_CHUNK
trees.  Training shuffles the sentences every epoch, evaluates dev root
accuracy a fixed number of times per epoch, and keeps the parameters
with the best dev score.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import model as m
from .autodiff import Tape
from .embeddings import Vocabulary, build_vocab
from .treebank import Corpus, Forest, random_tree

log = logging.getLogger("arbogru")

ADAGRAD_EPS = 1e-8
GRAD_NORM_WARN = 1e3
FD_EPSILON = 1e-5
REL_ERR_FLOOR = 1e-3  # below this magnitude FD noise dominates; compare absolutely
SCORE_CHUNK = 32  # trees per forest when scoring; bounds a scoring tape's memory

LOG_HEADER = "epoch\tstep\ttrain_loss\tdev_root_acc\twall_seconds"


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Complete experiment description; defaults are the reference recipe."""

    variant: str = m.VARIANT_TREEGRU
    attention: bool = False
    task: str = "fine"
    dim: int = 300
    learning_rate: float = 0.01
    batch_size: int = 25
    l2: float = 1e-4
    dropout: float = 0.5
    epochs: int = 40
    evals_per_epoch: int = 4
    seed: int = 1
    precision: str = "f64"

    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class SplitCorpora:
    train: Corpus
    dev: Corpus
    # never read by training; kept because benchmarks/bench.py builds
    # SplitCorpora(train=, dev=, test=) to hold its test split
    test: Optional[Corpus] = None


@dataclass
class Metrics:
    root_accuracy: float
    node_accuracy: float
    loss: float  # mean per-sentence data loss, penalty excluded


@dataclass
class TrainResult:
    best_params: m.ModelParams
    best_dev_accuracy: float
    best_step: int
    final_params: m.ModelParams
    log_lines: list[str]


@dataclass
class OptimizerState:
    """Per-parameter accumulated squared gradients; grows monotonically."""

    accumulators: dict[str, np.ndarray]
    eps: float = ADAGRAD_EPS

    @classmethod
    def for_params(cls, params: m.ModelParams) -> "OptimizerState":
        return cls({name: np.zeros_like(t) for name, t in params.tensors.items()})


class GradTable(dict):
    """Gradients keyed by tensor name; the ``"emb"`` entry holds only the
    embedding rows ``rows`` a batch touched, in that order.  The table
    owns its arrays, which the L2 term updates in place."""

    def __init__(self, grads=(), rows=()):
        super().__init__(grads)
        self.rows = np.asarray(rows, dtype=np.intp)

    def add(self, name: str, g: np.ndarray) -> None:
        """Accumulate ``g`` at ``name``: in place if the table holds a
        gradient there, else as a copy."""
        held = self.get(name)
        if held is None:
            self[name] = g.copy()
        else:
            held += g

    def norm(self) -> float:
        return math.sqrt(_squares(self.values()))


def _squares(arrays) -> float:
    """Summed squared entries of ``arrays``."""
    return sum(float(np.vdot(a, a)) for a in arrays)


def _scratch(size: int, dtype):
    """One buffer of ``size`` entries, lent out as a temporary shaped like
    any array up to that size."""
    buffer = np.empty(size, dtype=dtype)
    return lambda like: buffer[:like.size].reshape(like.shape)


# ---------------------------------------------------------------------------
# dropout

def dropout_mask(size: int, p_drop: float, rng, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask: zero with probability p, survivors 1/(1-p)."""
    if not 0.0 <= p_drop < 1.0:
        raise ValueError(f"dropout probability {p_drop} outside [0, 1)")
    if p_drop == 0.0:
        return np.ones(size, dtype=dtype)
    keep = rng.random(size) >= p_drop
    return keep.astype(dtype) / (1.0 - p_drop)


# ---------------------------------------------------------------------------
# loss

def _l2_terms(params: m.ModelParams, rows) -> dict[str, np.ndarray]:
    """Every weight matrix, plus the embedding ``rows`` as one block: L2
    covers the rows a batch touched, not all of ``emb``."""
    terms = {name: t for name, t in params.tensors.items()
             if name != "emb" and not m.is_bias(name)}
    terms["emb"] = params.tensors["emb"][np.asarray(rows, dtype=np.intp)]
    return terms


def l2_penalty(params: m.ModelParams, l2: float, rows=()) -> float:
    """(l2/2) * squared norm of the weight matrices plus the embedding
    ``rows``."""
    if l2 <= 0.0:
        return 0.0
    return 0.5 * l2 * _squares(_l2_terms(params, rows).values())


def add_l2_gradients(grads: GradTable, params: m.ModelParams, l2: float) -> None:
    """Add l2 * theta for every weight matrix and the embedding rows
    ``grads.rows``."""
    if l2 <= 0.0:
        return
    terms = _l2_terms(params, grads.rows)
    scratch = _scratch(max(t.size for t in terms.values()), params.dtype)
    for name, t in terms.items():
        grads.add(name, np.multiply(t, l2, out=scratch(t)))


# ---------------------------------------------------------------------------
# optimizer

def adagrad_step(params: m.ModelParams, grads: GradTable, opt: OptimizerState,
                 learning_rate: float) -> m.ModelParams:
    """In-place update: acc += g^2; theta -= lr * g / (sqrt(acc) + eps).

    The step aborts (nothing mutated) if any gradient is non-finite; a
    finite gradient whose square overflows still steps.  The embedding
    rows ``grads.rows`` are gathered, updated as one block and scattered
    back, and every temporary lives in one scratch buffer.
    """
    if not math.isfinite(_squares(grads.values())):
        for name, g in grads.items():
            bad = ~np.isfinite(g)
            if bad.any():
                row = f" row {grads.rows[bad.any(axis=1).argmax()]}" if name == "emb" else ""
                raise TrainingError(f"non-finite gradient for parameter {name!r}{row}")

    emb = params.tensors["emb"][grads.rows], opt.accumulators["emb"][grads.rows]
    blocks = [emb + (g,) if name == "emb" else
              (params.tensors[name], opt.accumulators[name], g) for name, g in grads.items()]
    scratch = _scratch(max((g.size for _, _, g in blocks), default=0), params.dtype)
    for theta, acc, g in blocks:
        s = scratch(g)
        np.multiply(g, g, out=s)
        acc += s
        np.sqrt(acc, out=s)
        s += opt.eps
        np.divide(g, s, out=s)
        s *= learning_rate
        theta -= s
    params.tensors["emb"][grads.rows], opt.accumulators["emb"][grads.rows] = emb
    return params


# ---------------------------------------------------------------------------
# forest graphs

@dataclass
class ForestGraph:
    states: m.NodeStates
    attn: Optional[m.AttentionResult]
    preds: m.NodePredictions
    tree_losses: Optional[ad.ValueRef]  # (trees,) summed node NLL per tree
    loss: Optional[ad.ValueRef]  # their sum; both None if nothing is supervised


def build_forest_graph(tape: Tape, forest: Forest, params: m.ModelParams,
                       vocab: Vocabulary, train_mode: bool = False,
                       dropout: float = 0.0, rng=None) -> ForestGraph:
    """Forward graph for the sentences of ``forest``: passes,
    classifiers, and data loss."""
    input_mask = None
    if train_mode and dropout > 0.0:
        if rng is None:
            raise ValueError("dropout requires a random generator")
        input_mask = partial(dropout_mask, p_drop=dropout, rng=rng, dtype=params.dtype)

    states = m.upward_pass(forest, params, tape, vocab, input_mask=input_mask)
    if params.variant == m.VARIANT_TREEBIGRU:
        m.downward_pass(states, params, tape)
    attn = None
    if params.attention:
        attn = m.attention_pool(states, params, tape)
    preds = m.predict_nodes(states, params, tape, attn=attn, feature_mask=input_mask)

    # one fused op over the logit matrix, plus one over the attention roots
    gold = forest.gold
    if not np.any(gold >= 0):
        return ForestGraph(states, attn, preds, None, None)
    terms = []
    if preds.root is not None:
        terms.append(ad.softmax_cross_entropy(tape, preds.root, gold[forest.roots],
                                              np.arange(len(forest) + 1)))
        gold = gold.copy()
        gold[forest.roots] = -1
    terms.append(ad.softmax_cross_entropy(tape, preds.logits, gold, forest.offsets))
    tree_losses = reduce(partial(ad.add, tape), terms)
    ones = tape.input(np.ones(len(forest), dtype=params.dtype))
    return ForestGraph(states, attn, preds, tree_losses,
                       ad.linear(tape, tree_losses, ones))


# a sentence is a forest of one; the name stays because
# benchmarks/bench.py scores single trees through it
build_sentence_graph = build_forest_graph


def sentence_gradients(forest: Forest, params: m.ModelParams,
                       vocab: Vocabulary, train_mode: bool = False,
                       dropout: float = 0.0, rng=None) -> tuple[np.ndarray, GradTable]:
    """One forward/backward sweep over ``forest``; returns each
    tree's data loss and the gradient table of their sum."""
    tape = Tape()
    graph = build_forest_graph(tape, forest, params, vocab, train_mode=train_mode,
                               dropout=dropout, rng=rng)
    if graph.loss is None:
        return np.zeros(len(forest)), GradTable()
    grads = ad.backward(tape, graph.loss)
    table = GradTable(rows=graph.states.rows)
    for name, ref in tape.keyed.items():
        g = grads[ref.index]
        if g is not None:
            table[name] = g
    return tape.value(graph.tree_losses), table


# ---------------------------------------------------------------------------
# training loop

def train(config: TrainConfig, data: SplitCorpora, params: m.ModelParams,
          vocab: Vocabulary,
          log_fn: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Run the full schedule; return the best-dev checkpoint and the log.

    One log line per evaluation, tab separated: epoch, global step, mean
    train loss since the previous evaluation, dev root accuracy, wall
    seconds.  Fixed seeds reproduce everything but the wall clock.
    """
    rng = np.random.default_rng(config.seed)
    opt = OptimizerState.for_params(params)
    sentences = data.train.trees
    if not sentences:
        raise TrainingError("empty training corpus")
    n_batches = math.ceil(len(sentences) / config.batch_size)
    eval_every = max(1, math.ceil(n_batches / config.evals_per_epoch))

    lines: list[str] = []

    def emit(line):
        lines.append(line)
        if log_fn is not None:
            log_fn(line)

    best = None  # the first evaluation always takes a snapshot
    best_acc = -1.0
    best_step = 0
    global_step = 0
    losses_since_eval: list[float] = []
    norms_over: list[float] = []  # of those batches, gradient norms > GRAD_NORM_WARN
    start = time.perf_counter()

    def run_eval(epoch):
        nonlocal best, best_acc, best_step
        metrics = evaluate(data.dev, params, vocab)
        if losses_since_eval:
            mean_loss = sum(losses_since_eval) / len(losses_since_eval)
        else:
            mean_loss = float("nan")
        if norms_over:
            log.warning("%d of %d batches since the last evaluation had a gradient "
                        "norm above %.0e, the largest %.3e (no clipping applied)",
                        len(norms_over), len(losses_since_eval), GRAD_NORM_WARN,
                        max(norms_over))
            norms_over.clear()
        losses_since_eval.clear()
        emit(f"{epoch}\t{global_step}\t{mean_loss:.6f}\t"
             f"{metrics.root_accuracy:.6f}\t{time.perf_counter() - start:.3f}")
        if metrics.root_accuracy > best_acc:
            best_acc = metrics.root_accuracy
            best = None  # never hold two snapshots at once
            best = params.copy()
            best_step = global_step

    order = np.arange(len(sentences))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        evaluated_last = False
        for b in range(n_batches):
            ids = order[b * config.batch_size:(b + 1) * config.batch_size]
            batch_loss, gnorm = _train_batch(ids, sentences, params, vocab, opt,
                                             config, rng)
            losses_since_eval.append(batch_loss)
            if gnorm > GRAD_NORM_WARN:
                norms_over.append(gnorm)
            global_step += 1
            evaluated_last = (b + 1) % eval_every == 0
            if evaluated_last:
                run_eval(epoch)
        if not evaluated_last:
            run_eval(epoch)

    return TrainResult(best, best_acc, best_step, params, lines)


def _train_batch(ids, sentences, params, vocab, opt, config,
                 rng) -> tuple[float, float]:
    """One AdaGrad step on the sentences ``ids``; returns the batch's
    objective and its gradient norm."""
    losses, total = sentence_gradients(sentences.select(ids), params, vocab,
                                       train_mode=True, dropout=config.dropout, rng=rng)
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise TrainingError(f"non-finite loss at sentence index {ids[bad[0]]}")
    batch_loss = float(losses.sum()) + l2_penalty(params, config.l2, total.rows)
    add_l2_gradients(total, params, config.l2)
    gnorm = total.norm()
    adagrad_step(params, total, opt, config.learning_rate)
    return batch_loss, gnorm


# ---------------------------------------------------------------------------
# evaluation

def evaluate(corpus: Corpus, params: m.ModelParams, vocab: Vocabulary) -> Metrics:
    """Dropout-free metrics: root accuracy over sentences, node accuracy
    over supervised nodes, mean per-sentence data loss."""
    if corpus.class_count != params.classes:
        raise ValueError(f"corpus has {corpus.class_count} classes, "
                         f"model has {params.classes}")
    if not corpus.trees:
        raise ValueError("cannot evaluate an empty corpus")

    root_ok = hits = supervised = 0
    loss = 0.0
    for start in range(0, len(corpus.trees), SCORE_CHUNK):
        tape = Tape()
        graph = build_forest_graph(tape, corpus.trees[start:start + SCORE_CHUNK],
                                   params, vocab)
        forest = graph.states.forest
        labels, gold = np.asarray(graph.preds.labels), forest.gold
        sup = gold >= 0
        roots = forest.roots
        root_ok += int(np.sum(sup[roots] & (labels[roots] == gold[roots])))
        hits += int(np.sum(labels[sup] == gold[sup]))
        supervised += int(sup.sum())
        if graph.loss is not None:
            loss += float(tape.value(graph.loss))
    n = len(corpus.trees)
    return Metrics(root_accuracy=root_ok / n, node_accuracy=hits / max(1, supervised),
                   loss=loss / n)


# ---------------------------------------------------------------------------
# gradient checking

_CHECK_TOKENS = ("brisk", "gloomy", "tender", "hollow", "vivid", "flat", "warm")


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gradient_check(variant: str, attention: bool, dim: int, trees: int = 3,
                   seed: int = 0, l2: float = 1e-4,
                   attention_norm: str = "softmax") -> float:
    """Compare tape gradients of the full objective over one forest of
    ``trees`` random trees against central finite differences over every
    parameter element; returns the max relative error.

    The objective is the forest's data loss plus the L2 penalty, without
    dropout.  Parameters are drawn uniformly (the identity-based init is
    too symmetric to exercise every path).
    """
    if dim > 16:
        raise ValueError("gradient checks are restricted to dim <= 16")
    rng = np.random.default_rng(seed)
    forest = Forest.concat([random_tree(rng, _CHECK_TOKENS) for _ in range(trees)])
    vocab = build_vocab(Corpus(forest, "check", "fine", 5))
    params = m.init_params(variant, dim, vocab, 5, 2, rng, attention=attention,
                           attention_norm=attention_norm)
    for name, t in params.tensors.items():
        params.tensors[name] = rng.uniform(-0.5, 0.5, t.shape)

    _, grads = sentence_gradients(forest, params, vocab)
    add_l2_gradients(grads, params, l2)
    analytic = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    for name, g in grads.items():
        analytic[name][grads.rows if name == "emb" else ...] = g

    def objective() -> float:
        probe = Tape()
        got = build_forest_graph(probe, forest, params, vocab)
        return float(probe.value(got.loss)) + l2_penalty(params, l2, grads.rows)

    worst = 0.0
    for name, t in params.tensors.items():
        flat = t.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + FD_EPSILON
            hi = objective()
            flat[i] = saved - FD_EPSILON
            lo = objective()
            flat[i] = saved
            fd[i] = (hi - lo) / (2.0 * FD_EPSILON)
        worst = max(worst, max_relative_error(analytic[name].reshape(-1), fd))
    return worst
