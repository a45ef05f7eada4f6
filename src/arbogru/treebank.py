"""Sentiment treebank trees: parsing, serialization, and task splits.

The input format is one parenthesized tree per line, e.g.
``(3 (2 good) (2 movie))``.  Every node opens with an integer sentiment
label; a leaf carries exactly one token and an internal node carries one
or more children.  Trees are kept lossless (tokens case-sensitive as
found in the file); any case folding happens at embedding lookup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

FINE_CLASSES = 5
BINARY_CLASSES = 2
TASK_FINE = "fine"
TASK_BINARY = "binary"

_NEUTRAL = 2
_BREAK = " \t()"


class TreebankError(ValueError):
    """Malformed treebank input; ``offset`` is a byte offset into the line."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} at offset {offset}"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class LabeledTree:
    """One node of a sentiment parse tree.

    A node carries either a ``token`` (leaf) or a non-empty ``children``
    tuple, never both.  ``label`` is ``None`` only for nodes excluded
    from supervision: neutral phrases kept for structure inside
    binary-task trees.
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


def parse_tree(line: str, num_classes: int = FINE_CLASSES) -> LabeledTree:
    """Parse one parenthesized tree.

    Raises TreebankError (with the byte offset) on unbalanced
    parentheses, non-integer labels, labels outside
    ``0..num_classes-1``, and empty nodes.
    """
    pos = _skip_ws(line, 0)
    if pos == len(line):
        raise TreebankError("empty input", 0)
    tree, pos = _parse_node(line, pos, num_classes)
    pos = _skip_ws(line, pos)
    if pos != len(line):
        raise TreebankError("trailing text after tree", pos)
    return tree


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def _parse_node(line: str, pos: int, num_classes: int):
    if pos >= len(line) or line[pos] != "(":
        raise TreebankError("expected '('", pos)
    pos = _skip_ws(line, pos + 1)

    start = pos
    while pos < len(line) and line[pos] not in _BREAK:
        pos += 1
    text = line[start:pos]
    if not text:
        raise TreebankError("missing node label", start)
    try:
        label = int(text)
    except ValueError:
        raise TreebankError(f"non-integer label {text!r}", start) from None
    if not 0 <= label < num_classes:
        raise TreebankError(f"label {label} outside 0..{num_classes - 1}", start)
    pos = _skip_ws(line, pos)

    token = None
    children = []
    if pos < len(line) and line[pos] == "(":
        while pos < len(line) and line[pos] == "(":
            child, pos = _parse_node(line, pos, num_classes)
            children.append(child)
            pos = _skip_ws(line, pos)
    elif pos < len(line) and line[pos] != ")":
        start = pos
        while pos < len(line) and line[pos] not in _BREAK:
            pos += 1
        token = line[start:pos]
        pos = _skip_ws(line, pos)

    if pos >= len(line):
        raise TreebankError("unbalanced parentheses at end of input", pos)
    if line[pos] != ")":
        raise TreebankError(f"expected ')', found {line[pos]!r}", pos)
    if token is None and not children:
        raise TreebankError("empty node", pos)
    return LabeledTree(label, token, tuple(children)), pos + 1


def serialize_tree(tree: LabeledTree) -> str:
    """Inverse of parse_tree, single space between tokens, no trailing space."""
    if tree.label is None:
        raise ValueError("cannot serialize an unsupervised (label-less) node")
    if tree.is_leaf:
        return f"({tree.label} {tree.token})"
    inner = " ".join(serialize_tree(child) for child in tree.children)
    return f"({tree.label} {inner})"


def load_corpus(path, task: str = TASK_FINE, split_name: Optional[str] = None) -> Corpus:
    """Load a treebank file (one tree per line; blank lines skipped).

    The file is always in fine-grained (5-class) form; ``task="binary"``
    applies to_binary_task after loading.  Parse errors are re-raised
    with the offending line number.
    """
    if task not in (TASK_FINE, TASK_BINARY):
        raise ValueError(f"unknown task {task!r}")
    if split_name is None:
        split_name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    trees = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trees.append(parse_tree(line))
            except TreebankError as err:
                raise TreebankError(f"{path}, line {lineno}: {err}") from None
    corpus = Corpus(trees, split_name, TASK_FINE, FINE_CLASSES)
    if task == TASK_BINARY:
        corpus = to_binary_task(corpus)
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


def _map_binary(node: LabeledTree) -> LabeledTree:
    children = tuple(_map_binary(child) for child in node.children)
    if node.label == _NEUTRAL:
        label = None
    else:
        label = 0 if node.label < _NEUTRAL else 1
    return LabeledTree(label, node.token, children)


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
