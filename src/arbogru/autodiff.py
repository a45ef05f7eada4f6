"""Reverse-mode automatic differentiation over dynamically built tapes.

A Tape records one computation graph: values are appended in
topological order and every derived value carries a closure mapping its
output gradient to gradients for its parents.  Tree topologies differ
per sentence, so one tape is built per forest (a minibatch, or a chunk
of a corpus being scored).  A tape is differentiated once: ``backward``
uses it up, dropping each derived value, its closure and its gradient
as soon as the sweep has passed it, so that what is left are the
leaves, their gradients and the loss value.  The
ops that work per sentence take ``offsets``: segment t of a forest's
node axis is ``offsets[t]:offsets[t+1]``.  Everything runs in the dtype
of the inputs (float64 for tests and gradient checks).  Every
node-indexed matrix is node-major: row j is node j.  Every leaf gets a
gradient; an array that needs none, such as a dropout mask, is an
argument of an op (``mask``), not a tape value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the requested op."""


@dataclass(frozen=True)
class ValueRef:
    """Handle to one value on a tape."""

    index: int
    shape: tuple[int, ...]


class Tape:
    """Append-only computation record; insertion order is topological order."""

    __slots__ = ("_values", "_parents", "_vjps", "keyed", "_swept")

    def __init__(self):
        self._values: list[Optional[np.ndarray]] = []
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[Optional[Callable]] = []
        self.keyed: dict[str, ValueRef] = {}  # tensor name -> leaf, in first-use order
        self._swept = False  # set by backward, which uses the tape up

    def __len__(self) -> int:
        return len(self._values)

    def input(self, value, key: Optional[str] = None) -> ValueRef:
        """Register a leaf value (a parameter or an input); a leaf keyed by a
        parameter tensor's name is registered on first use only, so all its
        uses share one gradient."""
        if key is None:
            return self.append(np.asarray(value), (), None)
        if key not in self.keyed:
            self.keyed[key] = self.append(np.asarray(value), (), None)
        return self.keyed[key]

    def value(self, ref: ValueRef) -> np.ndarray:
        return self._values[ref.index]

    def append(self, value, parents, vjp) -> ValueRef:
        """Record ``value``, computed from the values at the tape indices
        ``parents``; ``vjp`` maps its output gradient to one gradient per
        parent, in order (``vjp`` is None for a leaf)."""
        self._values.append(value)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return ValueRef(len(self._values) - 1, value.shape)


def _fail(op: str, *shapes) -> None:
    pretty = ", ".join(str(s) for s in shapes)
    raise ShapeMismatch(f"{op}: operand shapes do not conform: {pretty}")


def linear(tape: Tape, x: ValueRef, w: ValueRef,
           bias: Optional[ValueRef] = None) -> ValueRef:
    """``x @ w.T + bias``: each row of ``x`` is one input, ``w`` is an
    (out, in) matrix or an (in,) vector, and ``bias`` (one entry per
    output) is added to every row of a matrix result."""
    xv, wv = tape.value(x), tape.value(w)
    if not (0 < xv.ndim <= 2 and 0 < wv.ndim <= 2 and xv.shape[-1] == wv.shape[-1]):
        _fail("linear", xv.shape, wv.shape)
    out = xv @ wv.T
    parents = (x.index, w.index)
    if bias is not None:
        cv = tape.value(bias)
        if out.ndim != 2 or cv.shape != out.shape[1:]:
            _fail("linear", xv.shape, wv.shape, cv.shape)
        out = out + cv
        parents += (bias.index,)

    def vjp(g):
        grads = (g @ wv if wv.ndim == 2 else np.multiply.outer(g, wv),
                 g.T @ xv if xv.ndim == 2 else np.multiply.outer(g, xv))
        if bias is not None:
            grads += (g.sum(axis=0),)
        return grads

    return tape.append(np.asarray(out), parents, vjp)


def add(tape: Tape, a: ValueRef, b: ValueRef) -> ValueRef:
    av, bv = tape.value(a), tape.value(b)
    if av.shape != bv.shape:
        _fail("add", av.shape, bv.shape)
    return tape.append(av + bv, (a.index, b.index), lambda g: (g, g))


def mask(tape: Tape, x: ValueRef, m: np.ndarray) -> ValueRef:
    """``x`` times the plain array ``m`` elementwise, such as a dropout
    mask; ``m`` is no tape value and gets no gradient."""
    xv = tape.value(x)
    if xv.shape != m.shape:
        _fail("mask", xv.shape, m.shape)
    return tape.append(xv * m, (x.index,), lambda g: (g * m,))


def put_rows(tape: Tape, a: ValueRef, rows, b: ValueRef) -> ValueRef:
    """The matrix ``a`` with its rows ``rows`` (distinct) replaced by the
    rows of ``b``, in order."""
    av, bv = tape.value(a), tape.value(b)
    if av.ndim != 2 or bv.shape != (len(rows), av.shape[1]):
        _fail("put_rows", av.shape, bv.shape)
    out = av.copy()
    out[rows] = bv

    def vjp(g):
        ga = g.copy()
        ga[rows] = 0.0
        return ga, g[rows]

    return tape.append(out, (a.index, b.index), vjp)


def tanh(tape: Tape, a: ValueRef) -> ValueRef:
    y = np.tanh(tape.value(a))

    def vjp(g):
        return (g * (1.0 - y * y),)

    return tape.append(y, (a.index,), vjp)


def _segment_sum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of each segment of the first axis of ``x`` (segments are non-empty)."""
    return np.add.reduceat(x, offsets[:-1], axis=0)


def _spread(s: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each segment's entry of ``s`` repeated over the segment's positions."""
    return np.repeat(s, np.diff(offsets), axis=0)


def softmax(tape: Tape, a: ValueRef, offsets) -> ValueRef:
    """Exponential-normalized weighting of a vector, per segment
    (max-shifted for stability)."""
    x = tape.value(a)
    if x.ndim != 1:
        _fail("softmax", x.shape)
    e = np.exp(x - _spread(np.maximum.reduceat(x, offsets[:-1]), offsets))
    y = e / _spread(_segment_sum(e, offsets), offsets)

    def vjp(g):
        return (y * (g - _spread(_segment_sum(g * y, offsets), offsets)),)

    return tape.append(y, (a.index,), vjp)


def linear_norm(tape: Tape, a: ValueRef, offsets) -> ValueRef:
    """Literal linear normalization ``x / sum(x)`` per segment; sign-unsafe
    by design."""
    x = tape.value(a)
    if x.ndim != 1:
        _fail("linear_norm", x.shape)
    totals = _segment_sum(x, offsets)
    degenerate = np.flatnonzero(np.abs(totals) < 1e-12)
    if degenerate.size:
        raise FloatingPointError(
            f"linear_norm: scores of segment {degenerate[0]} sum to ~0")
    total = _spread(totals, offsets)
    y = x / total

    def vjp(g):
        return ((g - _spread(_segment_sum(g * y, offsets), offsets)) / total,)

    return tape.append(y, (a.index,), vjp)


def pool(tape: Tape, nodes: ValueRef, weights: ValueRef, offsets) -> ValueRef:
    """Per segment, the rows of ``nodes`` weighted by ``weights`` and
    summed: a segments x width matrix."""
    C, w = tape.value(nodes), tape.value(weights)
    if C.ndim != 2 or w.shape != C.shape[:1]:
        _fail("pool", C.shape, w.shape)

    def vjp(g):
        spread = _spread(g, offsets)  # each row's segment gradient
        return spread * w[:, None], np.einsum("ij,ij->i", C, spread)

    return tape.append(_segment_sum(C * w[:, None], offsets),
                       (nodes.index, weights.index), vjp)


def softmax_cross_entropy(tape: Tape, logits: ValueRef, gold, offsets) -> ValueRef:
    """Fused ``-log softmax(logits)[gold]`` via max-shifted log-sum-exp.

    ``logits`` is a nodes x classes matrix with one gold label per row; a
    negative label marks a row as unsupervised.  The loss is the vector
    of the sums over each segment of the rows.
    """
    x, labels = tape.value(logits), np.asarray(gold)
    if x.ndim != 2 or labels.shape != x.shape[:1]:
        _fail("softmax_cross_entropy", x.shape, labels.shape)
    if np.any(labels >= x.shape[1]):
        raise IndexError(f"gold label {labels.max()} outside {x.shape[1]} classes")
    supervised = labels >= 0
    sup = np.flatnonzero(supervised)
    cols = labels[sup]
    shifted = x - np.max(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    terms = np.zeros(x.shape[0], dtype=x.dtype)  # one per row
    terms[sup] = np.log(total[sup, 0]) - shifted[sup, cols]
    probs = e / total

    def vjp(g):
        per_row = supervised * _spread(g, offsets)
        grad = probs * per_row[:, None]
        grad[sup, cols] -= per_row[sup]
        return (grad,)

    return tape.append(_segment_sum(terms, offsets), (logits.index,), vjp)


def gather(tape: Tape, table: ValueRef, index) -> ValueRef:
    """Rows ``index`` of the matrix ``table``; the gradient of a repeated
    row is the sum of its rows' gradients."""
    t = tape.value(table)
    if t.ndim != 2:
        _fail("gather", t.shape)

    def vjp(g):
        # a stable sort puts each row's reads side by side, in index
        # order, and reduceat sums each run of them
        order = np.argsort(index, kind="stable")
        read = np.asarray(index)[order]
        starts = np.flatnonzero(np.diff(read, prepend=-1))
        grad = np.zeros_like(t)
        grad[read[starts]] = np.add.reduceat(g[order], starts, axis=0)
        return (grad,)

    return tape.append(t[index], (table.index,), vjp)


def concat(tape: Tape, refs: Sequence[ValueRef]) -> ValueRef:
    """Values joined along their last axis; the other axes must agree."""
    values = [tape.value(r) for r in refs]
    if not values or any(v.ndim == 0 or v.shape[:-1] != values[0].shape[:-1]
                         for v in values):
        _fail("concat", *[v.shape for v in values])
    offsets = np.cumsum([0] + [v.shape[-1] for v in values])

    def vjp(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(refs)))

    return tape.append(np.concatenate(values, axis=-1), tuple(r.index for r in refs), vjp)


def backward(tape: Tape, loss: ValueRef) -> list[Optional[np.ndarray]]:
    """Gradients of the sum of the entries of ``loss`` with respect to
    the leaves of ``tape``, which this uses up.

    Returns a list aligned with tape indices.  A leaf's entry is its
    gradient, ``None`` if the loss does not depend on it; every other
    entry is ``None``.  Contributions at fan-out points are summed, and
    the sweep is fully deterministic.  Once the sweep has passed a
    derived value, its closure, its gradient and, unless it is the loss,
    the value itself are dropped: the tape keeps its length, and its
    memory goes as the sweep goes.  A tape is differentiated once: a
    second call raises ValueError.
    """
    if tape._swept:
        raise ValueError("backward: this tape has already been differentiated")
    tape._swept = True
    grads: list[Optional[np.ndarray]] = [None] * len(tape)
    grads[loss.index] = np.ones(loss.shape, dtype=tape.value(loss).dtype)
    for i in range(loss.index, -1, -1):
        vjp = tape._vjps[i]
        if vjp is None:  # a leaf keeps its value and gradient
            continue
        g, grads[i], tape._vjps[i] = grads[i], None, None
        if i != loss.index:
            tape._values[i] = None
        if g is None:
            continue
        for parent, pg in zip(tape._parents[i], vjp(g)):
            if grads[parent] is None:
                grads[parent] = pg
            else:
                grads[parent] = grads[parent] + pg
    return grads
