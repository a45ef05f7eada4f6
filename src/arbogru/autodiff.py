"""Reverse-mode automatic differentiation over per-sentence tapes.

A Tape records one dynamically built computation graph: values are
appended in topological order and every derived value carries a closure
mapping its output gradient to gradients for its parents.  Tree
topologies differ per sentence, so one tape is built per tree and
discarded after the backward sweep.  Everything runs in the dtype of
the inputs (float64 for tests and gradient checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

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

    __slots__ = ("_values", "_parents", "_vjps", "keyed")

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[Optional[Callable]] = []
        self.keyed: dict[Hashable, ValueRef] = {}  # key -> leaf, in first-use order

    def __len__(self) -> int:
        return len(self._values)

    def input(self, value, key: Optional[Hashable] = None) -> ValueRef:
        """Register a leaf value (parameter or constant); a keyed leaf is
        registered on first use only, so all its uses share one gradient."""
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
        parent, in order (None for a leaf)."""
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
    """Elementwise (Hadamard) product."""
    av, bv = tape.value(a), tape.value(b)
    if av.shape != bv.shape:
        _fail("mul", av.shape, bv.shape)

    def vjp(g):
        return g * bv, g * av

    return tape.append(av * bv, (a.index, b.index), vjp)


def tanh(tape: Tape, a: ValueRef) -> ValueRef:
    y = np.tanh(tape.value(a))

    def vjp(g):
        return (g * (1.0 - y * y),)

    return tape.append(y, (a.index,), vjp)


def softmax(tape: Tape, a: ValueRef) -> ValueRef:
    """Exponential-normalized weighting of a vector (max-shifted for stability)."""
    x = tape.value(a)
    if x.ndim != 1:
        _fail("softmax", x.shape)
    e = np.exp(x - np.max(x))
    y = e / e.sum()

    def vjp(g):
        return (y * (g - np.dot(g, y)),)

    return tape.append(y, (a.index,), vjp)


def linear_norm(tape: Tape, a: ValueRef) -> ValueRef:
    """Literal linear normalization ``x / sum(x)``; sign-unsafe by design."""
    x = tape.value(a)
    if x.ndim != 1:
        _fail("linear_norm", x.shape)
    total = x.sum()
    if abs(total) < 1e-12:
        raise FloatingPointError("linear_norm: scores sum to ~0")
    y = x / total

    def vjp(g):
        return ((g - np.dot(g, y)) / total,)

    return tape.append(y, (a.index,), vjp)


def softmax_cross_entropy(tape: Tape, logits: ValueRef, gold) -> ValueRef:
    """Fused ``-log softmax(logits)[gold]`` via max-shifted log-sum-exp.

    ``logits`` is a vector with an int ``gold``, or a classes x nodes
    matrix with one gold label per column; the loss is then the sum over
    the columns, and a negative label marks a column as unsupervised.
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
    sup = np.flatnonzero(labels >= 0)
    rows = labels[sup]
    shifted = cols - np.max(cols, axis=0)
    e = np.exp(shifted)
    total = e.sum(axis=0)
    loss = np.asarray(np.sum(np.log(total[sup]) - shifted[rows, sup]))
    probs = e / total

    def vjp(g):
        grad = np.zeros_like(cols)
        grad[:, sup] = probs[:, sup] * g
        grad[rows, sup] -= g
        return (grad.reshape(x.shape),)

    return tape.append(loss, (logits.index,), vjp)


def stack(tape: Tape, refs: Sequence[ValueRef]) -> ValueRef:
    """Equal-shaped values side by side along a new last axis: scalars
    give a vector, vectors the columns of a matrix."""
    values = [tape.value(r) for r in refs]
    if not values or any(v.shape != values[0].shape for v in values):
        _fail("stack", *[v.shape for v in values])

    def vjp(g):
        return tuple(g[..., i] for i in range(len(refs)))

    return tape.append(np.stack(values, axis=-1), tuple(r.index for r in refs), vjp)


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
    values the loss does not depend on.  Contributions at fan-out
    points are summed, and the sweep is fully deterministic.
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
            if grads[parent] is None:
                grads[parent] = pg
            else:
                grads[parent] = grads[parent] + pg
    return grads
