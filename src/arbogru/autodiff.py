"""Reverse-mode automatic differentiation over dynamically built tapes.

A Tape records one computation graph: values are appended in
topological order and every derived value carries a closure mapping its
output gradient to gradients for its parents.  Tree topologies differ
per sentence, so one tape is built per forest (a minibatch, or a chunk
of a corpus being scored) and discarded after the backward sweep.  The
ops that work per sentence take ``offsets``: segment t of a forest's
node axis is ``offsets[t]:offsets[t+1]``.  Everything runs in the dtype
of the inputs (float64 for tests and gradient checks).
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

    __slots__ = ("_values", "_parents", "_vjps", "keyed", "_constants")

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[Optional[Callable]] = []
        self.keyed: dict[str, ValueRef] = {}  # tensor name -> leaf, in first-use order
        self._constants: set[int] = set()  # leaves that need no gradient

    def __len__(self) -> int:
        return len(self._values)

    def input(self, value, key: Optional[str] = None) -> ValueRef:
        """Register a leaf value (parameter or constant); a leaf keyed by a
        parameter tensor's name is registered on first use only, so all its
        uses share one gradient."""
        if key is None:
            return self.append(np.asarray(value), (), None)
        if key not in self.keyed:
            self.keyed[key] = self.append(np.asarray(value), (), None)
        return self.keyed[key]

    def constant(self, value) -> ValueRef:
        """Register a leaf that needs no gradient, such as a dropout mask:
        the ops that check ``needs_grad`` compute none for it."""
        ref = self.input(value)
        self._constants.add(ref.index)
        return ref

    def needs_grad(self, ref: ValueRef) -> bool:
        return ref.index not in self._constants

    def value(self, ref: ValueRef) -> np.ndarray:
        return self._values[ref.index]

    def append(self, value, parents, vjp) -> ValueRef:
        """Record ``value``, computed from the values at the tape indices
        ``parents``; ``vjp`` maps its output gradient to one gradient per
        parent, in order, None for a parent that needs none (``vjp`` is
        None for a leaf)."""
        self._values.append(value)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return ValueRef(len(self._values) - 1, value.shape)


def _fail(op: str, *shapes) -> None:
    pretty = ", ".join(str(s) for s in shapes)
    raise ShapeMismatch(f"{op}: operand shapes do not conform: {pretty}")


def matmul(tape: Tape, a: ValueRef, b: ValueRef,
           bias: Optional[ValueRef] = None) -> ValueRef:
    """``a @ b`` with numpy semantics on 1-D/2-D operands, plus an optional
    ``bias`` added to every column of the result."""
    av, bv = tape.value(a), tape.value(b)
    if not (0 < av.ndim <= 2 and 0 < bv.ndim <= 2 and av.shape[-1] == bv.shape[0]):
        _fail("matmul", av.shape, bv.shape)
    out = av @ bv
    parents = (a.index, b.index)
    if bias is not None:
        cv = tape.value(bias)
        if cv.shape != out.shape[:1]:
            _fail("matmul", av.shape, bv.shape, cv.shape)
        out = out + (cv[:, None] if out.ndim == 2 else cv)
        parents += (bias.index,)

    def vjp(g):
        grads = (g @ bv.T if bv.ndim == 2 else np.multiply.outer(g, bv),
                 av.T @ g if av.ndim == 2 else np.multiply.outer(av, g))
        if bias is not None:
            grads += (g.sum(axis=1) if g.ndim == 2 else g,)
        return grads

    return tape.append(np.asarray(out), parents, vjp)


def add(tape: Tape, a: ValueRef, b: ValueRef) -> ValueRef:
    av, bv = tape.value(a), tape.value(b)
    if av.shape != bv.shape:
        _fail("add", av.shape, bv.shape)
    return tape.append(av + bv, (a.index, b.index), lambda g: (g, g))


def mul(tape: Tape, a: ValueRef, b: ValueRef) -> ValueRef:
    """Elementwise (Hadamard) product; no gradient for a constant operand."""
    av, bv = tape.value(a), tape.value(b)
    if av.shape != bv.shape:
        _fail("mul", av.shape, bv.shape)
    grad_a, grad_b = tape.needs_grad(a), tape.needs_grad(b)

    def vjp(g):
        return g * bv if grad_a else None, g * av if grad_b else None

    return tape.append(av * bv, (a.index, b.index), vjp)


def tanh(tape: Tape, a: ValueRef) -> ValueRef:
    y = np.tanh(tape.value(a))

    def vjp(g):
        return (g * (1.0 - y * y),)

    return tape.append(y, (a.index,), vjp)


def _segments(offsets, n: int) -> np.ndarray:
    """Segment bounds along an axis of length ``n``; None is one segment."""
    return np.array([0, n]) if offsets is None else np.asarray(offsets)


def _segment_sum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of each segment of the last axis of ``x`` (segments are non-empty)."""
    return np.add.reduceat(x, offsets[:-1], axis=-1)


def _spread(s: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each segment's entry of ``s`` repeated over the segment's positions."""
    return np.repeat(s, np.diff(offsets), axis=-1)


def softmax(tape: Tape, a: ValueRef, offsets=None) -> ValueRef:
    """Exponential-normalized weighting of a vector, per segment
    (max-shifted for stability)."""
    x = tape.value(a)
    if x.ndim != 1:
        _fail("softmax", x.shape)
    seg = _segments(offsets, x.shape[0])
    e = np.exp(x - _spread(np.maximum.reduceat(x, seg[:-1]), seg))
    y = e / _spread(_segment_sum(e, seg), seg)

    def vjp(g):
        return (y * (g - _spread(_segment_sum(g * y, seg), seg)),)

    return tape.append(y, (a.index,), vjp)


def linear_norm(tape: Tape, a: ValueRef, offsets=None) -> ValueRef:
    """Literal linear normalization ``x / sum(x)`` per segment; sign-unsafe
    by design."""
    x = tape.value(a)
    if x.ndim != 1:
        _fail("linear_norm", x.shape)
    seg = _segments(offsets, x.shape[0])
    totals = _segment_sum(x, seg)
    degenerate = np.flatnonzero(np.abs(totals) < 1e-12)
    if degenerate.size:
        raise FloatingPointError(
            f"linear_norm: scores of segment {degenerate[0]} sum to ~0")
    total = _spread(totals, seg)
    y = x / total

    def vjp(g):
        return ((g - _spread(_segment_sum(g * y, seg), seg)) / total,)

    return tape.append(y, (a.index,), vjp)


def pool(tape: Tape, nodes: ValueRef, weights: ValueRef, offsets) -> ValueRef:
    """Per segment, the columns of ``nodes`` weighted by ``weights`` and
    summed: a rows x segments matrix."""
    C, w = tape.value(nodes), tape.value(weights)
    if C.ndim != 2 or w.shape != C.shape[1:]:
        _fail("pool", C.shape, w.shape)
    seg = np.asarray(offsets)

    def vjp(g):
        spread = _spread(g, seg)  # each column's segment gradient
        return spread * w, np.einsum("ij,ij->j", C, spread)

    return tape.append(_segment_sum(C * w, seg), (nodes.index, weights.index), vjp)


def softmax_cross_entropy(tape: Tape, logits: ValueRef, gold,
                          offsets=None) -> ValueRef:
    """Fused ``-log softmax(logits)[gold]`` via max-shifted log-sum-exp.

    ``logits`` is a vector with an int ``gold``, or a classes x nodes
    matrix with one gold label per column; a negative label marks a
    column as unsupervised.  The loss is the sum over the columns, or,
    given ``offsets``, the vector of the sums over each segment of them.
    """
    x = tape.value(logits)
    if x.ndim == 1 and np.ndim(gold) == 0:
        if not 0 <= gold < x.shape[0]:
            raise IndexError(f"gold label {gold} outside logits of length {x.shape[0]}")
        cols, labels = x[:, None], np.array([gold])
    elif x.ndim == 2 and np.shape(gold) == x.shape[1:]:
        cols, labels = x, np.asarray(gold)
        if np.any(labels >= x.shape[0]):
            raise IndexError(f"gold label {labels.max()} outside logits of length "
                             f"{x.shape[0]}")
    else:
        _fail("softmax_cross_entropy", x.shape, np.shape(gold))
    supervised = labels >= 0
    sup = np.flatnonzero(supervised)
    rows = labels[sup]
    shifted = cols - np.max(cols, axis=0)
    e = np.exp(shifted)
    total = e.sum(axis=0)
    terms = np.zeros(cols.shape[1], dtype=cols.dtype)  # one per column
    terms[sup] = np.log(total[sup]) - shifted[rows, sup]
    loss = np.asarray(terms.sum()) if offsets is None else _segment_sum(terms, offsets)
    probs = e / total

    def vjp(g):
        per_column = supervised * (g if offsets is None else _spread(g, offsets))
        grad = probs * per_column
        grad[rows, sup] -= per_column[sup]
        return (grad.reshape(x.shape),)

    return tape.append(loss, (logits.index,), vjp)


def gather(tape: Tape, table: ValueRef, index) -> ValueRef:
    """Rows ``index`` of the matrix ``table`` as the columns of a matrix;
    the gradient of a repeated row sums its columns in index order."""
    t = tape.value(table)
    if t.ndim != 2:
        _fail("gather", t.shape)

    def vjp(g):
        grad = np.zeros_like(t)
        np.add.at(grad, index, g.T)
        return (grad,)

    return tape.append(t[index].T, (table.index,), vjp)


def concat(tape: Tape, refs: Sequence[ValueRef]) -> ValueRef:
    """Values joined along their first axis; the other axes must agree."""
    values = [tape.value(r) for r in refs]
    if not values or any(v.ndim == 0 or v.shape[1:] != values[0].shape[1:]
                         for v in values):
        _fail("concat", *[v.shape for v in values])
    offsets = np.cumsum([0] + [v.shape[0] for v in values])

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(refs)))

    return tape.append(np.concatenate(values), tuple(r.index for r in refs), vjp)


def backward(tape: Tape, loss: ValueRef) -> list[Optional[np.ndarray]]:
    """Gradients of a scalar ``loss`` with respect to every tape value.

    Returns a list aligned with tape indices; entries are ``None`` for
    values the loss does not depend on and for constants.  Contributions
    at fan-out points are summed, and the sweep is fully deterministic.
    """
    if loss.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: list[Optional[np.ndarray]] = [None] * len(tape)
    grads[loss.index] = np.ones((), dtype=tape.value(loss).dtype)
    for i in range(loss.index, -1, -1):
        g = grads[i]
        vjp = tape._vjps[i]
        if g is None or vjp is None:
            continue
        for parent, pg in zip(tape._parents[i], vjp(g)):
            if pg is None:
                continue
            if grads[parent] is None:
                grads[parent] = pg
            else:
                grads[parent] = grads[parent] + pg
    return grads
