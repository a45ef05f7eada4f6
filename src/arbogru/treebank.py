"""Sentiment treebank trees: parsing, serialization, and task splits.

The input format is one parenthesized tree per line, e.g.
``(3 (2 good) (2 movie))``.  Every node opens with an integer sentiment
label; a leaf carries exactly one token and an internal node carries one
or more children.  Trees are kept lossless (tokens case-sensitive as
found in the file); any case folding happens at embedding lookup.
"""

from __future__ import annotations

import gc
import os
import re
from dataclasses import dataclass
from typing import Iterator, Optional

FINE_CLASSES = 5
BINARY_CLASSES = 2
TASK_FINE = "fine"
TASK_BINARY = "binary"

_NEUTRAL = 2
_TOKENS = re.compile(r"[()]|[^ \t()]+")  # parentheses and space-free words


class TreebankError(ValueError):
    """Malformed treebank input; ``offset`` is a byte offset into the line."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} at offset {offset}"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True, eq=False, repr=False)
class LabeledTree:
    """One node of a sentiment parse tree.

    A node carries either a ``token`` (leaf) or a non-empty ``children``
    tuple, never both.  ``label`` is ``None`` only for nodes excluded
    from supervision: neutral phrases kept for structure inside
    binary-task trees.  Trees compare, hash and print as their pre-order
    (label, token, arity) sequence, which determines the tree and takes
    no recursion.
    """

    label: Optional[int]
    token: Optional[str] = None
    children: tuple["LabeledTree", ...] = ()

    def __post_init__(self):
        if (self.token is not None) == bool(self.children):
            raise ValueError("a node must carry a token xor children")

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    @property
    def supervised(self) -> bool:
        return self.label is not None

    def _preorder(self) -> tuple:
        return tuple((n.label, n.token, len(n.children)) for n in iter_nodes(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())

    def __repr__(self) -> str:
        return f"LabeledTree({self._preorder()!r})"


@dataclass
class Corpus:
    trees: list[LabeledTree]
    split_name: str
    task: str
    class_count: int

    def __len__(self) -> int:
        return len(self.trees)


def iter_nodes(tree: LabeledTree) -> Iterator[LabeledTree]:
    """Yield nodes in pre-order (node before its children)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def parse_tree(line: str, num_classes: int = FINE_CLASSES,
               max_arity: Optional[int] = None) -> LabeledTree:
    """Parse one parenthesized tree.

    Raises TreebankError (with the byte offset) on unbalanced
    parentheses, non-integer labels, labels outside
    ``0..num_classes-1``, empty nodes, and nodes with more than
    ``max_arity`` children (if given; the offset is the node's closing
    parenthesis).  Open nodes wait on an explicit stack, so depth is
    limited only by memory.
    """
    tokens = _TOKENS.findall(line) + [""]  # "" marks the end of input
    if not tokens[0]:
        raise TreebankError("empty input", 0)
    open_nodes: list[tuple[int, list]] = []  # (label, children so far)
    i = 0
    while True:
        # a node opens: a first child follows, or a leaf token and ')'
        if tokens[i] != "(":
            raise TreebankError("expected '('", _offset(line, i))
        label = _parse_label(line, tokens, i + 1, num_classes)
        i += 2
        if tokens[i] == "(":
            open_nodes.append((label, []))
            continue
        if tokens[i] in ("", ")"):
            _close(line, tokens, i)  # an unbalanced end is reported as such
            raise TreebankError("empty node", _offset(line, i))
        node = LabeledTree(label, tokens[i])
        i = _close(line, tokens, i + 1)
        # hand the node to its parent, closing parents that have no next child
        while open_nodes:
            open_nodes[-1][1].append(node)
            if tokens[i] == "(":
                break
            i = _close(line, tokens, i)
            label, children = open_nodes.pop()
            if max_arity is not None and len(children) > max_arity:
                raise TreebankError(f"node arity {len(children)} exceeds K={max_arity}",
                                    _offset(line, i - 1))
            node = LabeledTree(label, children=tuple(children))
        else:
            if tokens[i]:
                raise TreebankError("trailing text after tree", _offset(line, i))
            return node


def _offset(line: str, i: int) -> int:
    """Byte offset of token ``i`` (the end of input past the last token)."""
    starts = [m.start() for m in _TOKENS.finditer(line)]
    return starts[i] if i < len(starts) else len(line)


def _parse_label(line: str, tokens: list, i: int, num_classes: int) -> int:
    text = tokens[i]
    if text in ("", "(", ")"):
        raise TreebankError("missing node label", _offset(line, i))
    try:
        label = int(text)
    except ValueError:
        raise TreebankError(f"non-integer label {text!r}", _offset(line, i)) from None
    if not 0 <= label < num_classes:
        raise TreebankError(f"label {label} outside 0..{num_classes - 1}",
                            _offset(line, i))
    return label


def _close(line: str, tokens: list, i: int) -> int:
    """Index past the ')' expected at token ``i``."""
    if tokens[i] != ")":
        pos = _offset(line, i)
        if not tokens[i]:
            raise TreebankError("unbalanced parentheses at end of input", pos)
        raise TreebankError(f"expected ')', found {line[pos]!r}", pos)
    return i + 1


def serialize_tree(tree: LabeledTree) -> str:
    """Inverse of parse_tree, single space between tokens, no trailing space."""
    parts = []
    pending: list = [tree]  # nodes, and the ")" of open ones
    while pending:
        node = pending.pop()
        if isinstance(node, str):
            parts.append(node)
        elif node.label is None:
            raise ValueError("cannot serialize an unsupervised (label-less) node")
        elif node.is_leaf:
            parts.append(f" ({node.label} {node.token})")
        else:
            parts.append(f" ({node.label}")
            pending.append(")")
            pending.extend(reversed(node.children))
    return "".join(parts)[1:]


def load_corpus(path, task: str = TASK_FINE, split_name: Optional[str] = None,
                max_arity: Optional[int] = None) -> Corpus:
    """Load a treebank file (one tree per line; blank lines skipped).

    The file is always in fine-grained (5-class) form; ``task="binary"``
    applies to_binary_task after loading.  Parse errors, including a
    node wider than ``max_arity``, are re-raised with the file and the
    offending line number.

    The cyclic garbage collector is paused while the trees are built:
    they hold no cycles, and each full collection would traverse every
    tree made so far.  The caller's collector state is restored.
    """
    if task not in (TASK_FINE, TASK_BINARY):
        raise ValueError(f"unknown task {task!r}")
    if split_name is None:
        split_name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    collecting = gc.isenabled()
    gc.disable()
    try:
        trees = []
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    trees.append(parse_tree(line, max_arity=max_arity))
                except TreebankError as err:
                    raise TreebankError(f"{path}, line {lineno}: {err}") from None
        corpus = Corpus(trees, split_name, TASK_FINE, FINE_CLASSES)
        if task == TASK_BINARY:
            corpus = to_binary_task(corpus)
    finally:
        if collecting:
            gc.enable()
    return corpus


def to_binary_task(corpus: Corpus) -> Corpus:
    """Fine-grained corpus -> binary task.

    Sentences with a neutral root are dropped.  In surviving trees the
    labels map {0,1}->0 and {3,4}->1; internal neutral nodes keep their
    place in the structure but lose their label (supervised == False),
    so they contribute to neither loss nor accuracy.
    """
    if corpus.task != TASK_FINE:
        raise ValueError("corpus is already binary")
    trees = [
        _map_binary(tree) for tree in corpus.trees if tree.label != _NEUTRAL
    ]
    return Corpus(trees, corpus.split_name, TASK_BINARY, BINARY_CLASSES)


def _map_binary(tree: LabeledTree) -> LabeledTree:
    mapped: dict[int, LabeledTree] = {}  # id(original node) -> mapped node
    for node in reversed(list(iter_nodes(tree))):  # children before parents
        if node.label == _NEUTRAL:
            label = None
        else:
            label = 0 if node.label < _NEUTRAL else 1
        children = tuple(mapped[id(child)] for child in node.children)
        mapped[id(node)] = LabeledTree(label, node.token, children)
    return mapped[id(tree)]


def random_tree(rng, tokens, max_nodes: int = 9,
                num_classes: int = FINE_CLASSES, leaf_prob: float = 0.3) -> LabeledTree:
    """Random small tree with arity <= 2, for diagnostics and gradient checks."""

    def build(budget):
        if budget <= 2 or rng.random() < leaf_prob:
            token = tokens[int(rng.integers(len(tokens)))]
            return LabeledTree(int(rng.integers(num_classes)), token=token), 1
        if budget >= 5 and rng.random() < 0.8:
            left, used_l = build((budget - 1) // 2)
            right, used_r = build(budget - 1 - used_l)
            kids, used = (left, right), used_l + used_r
        else:
            only, used = build(budget - 1)
            kids = (only,)
        return LabeledTree(int(rng.integers(num_classes)), children=kids), used + 1

    tree, _ = build(max_nodes)
    return tree
