"""Sentiment treebank trees: parsing, serialization, and task splits.

The input format is one parenthesized tree per line, e.g.
``(3 (2 good) (2 movie))``.  Every node opens with an integer sentiment
label; a leaf carries exactly one token and an internal node carries one
or two children (``MAX_CHILDREN``): the sentiment treebank's trees are
binarized.  Trees are kept lossless (tokens case-sensitive as
found in the file); any case folding happens at embedding lookup.

The one tree type is the ``Forest``: flat per-node columns in pre-order
and per-tree offsets, with no Python object per node, plus the list of
its leaf words.  A tree is a forest of one: ``parse_tree`` and
``random_tree`` return one.  ``Forest.concat`` joins forests, and
``select`` cuts trees out of one.
"""

from __future__ import annotations

import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

FINE_CLASSES = 5
MAX_CHILDREN = 2  # K: the treebank's trees are binarized
BINARY_CLASSES = 2
TASK_FINE = "fine"
TASK_BINARY = "binary"

_NEUTRAL = 2
_TOKENS = re.compile(r"[()]|[^ \t()]+")  # parentheses and space-free words
_FINE_LABELS = {str(label): label for label in range(FINE_CLASSES)}  # the common spellings


class TreebankError(ValueError):
    """Malformed treebank input; ``offset`` is a character offset into the
    line, surrounding whitespace removed."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} at offset {offset}"
        super().__init__(message)
        self.offset = offset


@dataclass(eq=False)
class Forest:
    """Trees as flat node columns, a sized sequence of trees.

    Tree t holds the rows ``offsets[t]:offsets[t+1]`` in pre-order, its
    root first; parents precede their children, so a subtree is a
    contiguous range of rows.  A tree is a forest of one: indexing,
    iteration and ``children`` give one-tree forests, and a slice or
    ``select`` gives the chosen trees' rows as a new forest.
    """

    parents: np.ndarray   # int32: row of the parent; -1 at a root
    slots: np.ndarray     # int32: the child slot a node fills (0 at a root)
    words: np.ndarray     # int32: index into ``lexicon`` at a leaf; -1 elsewhere
    gold: np.ndarray      # int16: label; -1 where unsupervised
    heights: np.ndarray   # int32: 0 at leaves
    depths: np.ndarray    # int32: 0 at the roots
    offsets: np.ndarray   # int64, (trees + 1,)
    lexicon: list[str]    # the leaf words; selected forests share it

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def node_count(self) -> int:
        return len(self.parents)

    @property
    def roots(self) -> np.ndarray:
        return self.offsets[:-1]

    def __getitem__(self, key: Union[int, slice]) -> "Forest":
        # an int past the end raises IndexError, which also ends iteration
        return self.select(np.atleast_1d(np.arange(len(self))[key]))

    def select(self, trees) -> "Forest":
        """The trees at the indices ``trees``, in that order."""
        trees = np.asarray(trees, dtype=np.intp)
        return self._cut(self.offsets[trees], self.offsets[trees + 1])

    def _cut(self, starts: np.ndarray, ends: np.ndarray) -> "Forest":
        """The subtrees at the rows ``starts[i]:ends[i]``, in order, as the
        trees of a new forest."""
        sizes = ends - starts
        offsets = np.cumsum(np.concatenate([[0], sizes]))
        roots = offsets[:-1]
        shift = np.repeat(roots - starts, sizes)
        rows = np.arange(offsets[-1]) - shift
        parents = (self.parents[rows] + shift).astype(np.int32)
        parents[roots] = -1
        slots = self.slots[rows]
        slots[roots] = 0
        depths = self.depths[rows] - np.repeat(self.depths[starts], sizes)
        return Forest(parents, slots, self.words[rows], self.gold[rows],
                      self.heights[rows], depths, offsets, self.lexicon)

    def _one(self) -> None:
        if len(self) != 1:
            raise ValueError(f"a forest of {len(self)} trees is not one tree")

    # the root of a forest of one: its label (None where unsupervised)
    # and its subtrees in slot order, for benchmarks/bench.py's tree walks
    @property
    def label(self) -> Optional[int]:
        self._one()
        return int(self.gold[0]) if self.gold[0] >= 0 else None

    @property
    def children(self) -> tuple["Forest", ...]:
        self._one()
        starts = np.flatnonzero(self.parents == 0)
        ends = np.append(starts[1:], self.node_count)
        return tuple(self._cut(starts[k:k + 1], ends[k:k + 1]) for k in range(len(starts)))

    @classmethod
    def concat(cls, forests: Sequence["Forest"]) -> "Forest":
        """The trees of ``forests``, in order, as one forest.  Its lexicon
        holds the words that their leaves use, in first-occurrence order."""
        forests = [_Columns().forest([0], []), *forests]  # typed when no forest is given
        sizes = [forest.node_count for forest in forests]

        def column(name):
            return np.concatenate([getattr(forest, name) for forest in forests])

        parents, words, lexicon = column("parents"), column("words"), {}
        shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
        words[words >= 0] = [lexicon.setdefault(forest.lexicon[w], len(lexicon))
                             for forest in forests
                             for w in forest.words[forest.words >= 0].tolist()]
        offsets = np.cumsum(np.concatenate([[0]] + [np.diff(f.offsets) for f in forests]))
        return cls(np.where(parents >= 0, parents + shift, -1).astype(np.int32),
                   column("slots"), words, column("gold"), column("heights"),
                   column("depths"), offsets, list(lexicon))


class _Columns:
    """The node columns of a forest while it is built, in pre-order, as
    typed arrays (no object per value)."""

    def __init__(self):
        self.parents, self.slots, self.words = array("i"), array("i"), array("i")
        self.gold, self.heights, self.depths = array("h"), array("i"), array("i")

    def forest(self, offsets, words: list[str]) -> Forest:
        """The forest of these columns; the arrays are shared, not copied."""
        return Forest(np.asarray(self.parents, np.int32), np.asarray(self.slots, np.int32),
                      np.asarray(self.words, np.int32), np.asarray(self.gold, np.int16),
                      np.asarray(self.heights, np.int32), np.asarray(self.depths, np.int32),
                      np.asarray(offsets, np.int64), words)


def parse_tree(line: str) -> Forest:
    """Parse one parenthesized tree into a forest of one.

    Raises TreebankError (with the character offset) on unbalanced
    parentheses, non-integer labels, labels outside
    ``0..FINE_CLASSES-1``, empty nodes, and nodes with more than
    ``MAX_CHILDREN`` children (the offset is the node's closing
    parenthesis).  Open nodes wait on an explicit stack, so depth is
    limited only by memory.
    """
    columns, lexicon = _Columns(), {}
    _parse_into(columns, line, lexicon)
    return columns.forest([0, len(columns.parents)], list(lexicon))


def LabeledTree(label: int, token: str) -> Forest:
    """A forest of one leaf; ``benchmarks/gen.py`` builds its vocabulary with it."""
    return parse_tree(f"({label} {token})")


def _parse_into(columns: _Columns, line: str, lexicon: dict) -> None:
    """Append the nodes of the tree ``line`` to ``columns``; a new word
    enters ``lexicon`` (word -> index) in first-occurrence order."""
    tokens = _tokens(line)
    tokens.append("")  # marks the end of input
    if not tokens[0]:
        raise TreebankError("empty input", 0)
    parents, heights = columns.parents, columns.heights
    add_parent, add_slot, add_word = parents.append, columns.slots.append, columns.words.append
    add_height, add_depth = heights.append, columns.depths.append
    add_gold, word_id = columns.gold.append, lexicon.setdefault
    open_nodes: list[list] = []  # [row, children so far, height so far]
    i = 0
    while True:
        # a node opens: a first child follows, or a leaf token and ')'
        if tokens[i] != "(":
            raise TreebankError("expected '('", _offset(line, i))
        label = _FINE_LABELS.get(tokens[i + 1])
        if label is None:
            label = _parse_label(line, tokens, i + 1)
        add_gold(label)
        add_height(0)
        add_depth(len(open_nodes))
        if open_nodes:
            parent = open_nodes[-1]
            add_parent(parent[0])
            add_slot(parent[1])
            parent[1] += 1
        else:
            add_parent(-1)
            add_slot(0)
        token = tokens[i + 2]
        if token == "(":
            add_word(-1)
            open_nodes.append([len(parents) - 1, 0, 0])
            i += 2
            continue
        if token == "" or token == ")":
            _close(line, tokens, i + 2)  # an unbalanced end is reported as such
            raise TreebankError("empty node", _offset(line, i + 2))
        add_word(word_id(token, len(lexicon)))
        if tokens[i + 3] != ")":
            _close(line, tokens, i + 3)
        i += 4
        # the closed node's height reaches its parent, closing parents
        # that have no next child
        height = 0
        while open_nodes:
            parent = open_nodes[-1]
            if parent[2] <= height:
                parent[2] = height + 1
            if tokens[i] == "(":
                break
            if tokens[i] != ")":
                _close(line, tokens, i)
            i += 1
            row, arity, height = open_nodes.pop()
            if arity > MAX_CHILDREN:
                raise TreebankError(f"node arity {arity} exceeds K={MAX_CHILDREN}",
                                    _offset(line, i - 1))
            heights[row] = height
        else:
            if tokens[i]:
                raise TreebankError("trailing text after tree", _offset(line, i))
            return


def _tokens(line: str) -> list[str]:
    """``_TOKENS.findall(line)``, by faster string operations."""
    spaced = line.replace("(", " ( ").replace(")", " ) ").replace("\t", " ")
    return list(filter(None, spaced.split(" ")))


def _offset(line: str, i: int) -> int:
    """Character offset of token ``i`` (the end of input past the last token)."""
    starts = [m.start() for m in _TOKENS.finditer(line)]
    return starts[i] if i < len(starts) else len(line)


def _parse_label(line: str, tokens: list, i: int) -> int:
    text = tokens[i]
    if text in ("", "(", ")"):
        raise TreebankError("missing node label", _offset(line, i))
    try:
        label = int(text)
    except ValueError:
        raise TreebankError(f"non-integer label {text!r}", _offset(line, i)) from None
    if not 0 <= label < FINE_CLASSES:
        raise TreebankError(f"label {label} outside 0..{FINE_CLASSES - 1}",
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


def serialize_tree(tree: Forest) -> str:
    """Inverse of parse_tree, single space between tokens, no trailing
    space.  Leaf j closes ``depths[j] - depths[j+1] + 1`` parentheses."""
    tree._one()
    if (tree.gold < 0).any():
        raise ValueError("cannot serialize an unsupervised (label-less) node")
    closes = tree.depths - np.append(tree.depths[1:], 0) + 1
    words = tree.lexicon
    return " ".join(f"({label}" if word < 0 else f"({label} {words[word]}" + ")" * close
                    for label, word, close in zip(tree.gold.tolist(), tree.words.tolist(),
                                                  closes.tolist()))


@dataclass
class Corpus:
    """One split; ``trees`` may be given as a list of forests and is kept
    as their ``Forest.concat``."""

    trees: Forest
    split_name: str
    task: str
    class_count: int

    def __post_init__(self):
        if not isinstance(self.trees, Forest):
            self.trees = Forest.concat(self.trees)

    def __len__(self) -> int:
        return len(self.trees)


@contextmanager
def open_text(path, error):
    """``path`` opened as UTF-8 text; a byte the block cannot decode raises
    ``error`` naming the line, found by rescanning the bytes only then."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        with open(path, "rb") as handle:  # text mode also ends a line at \r
            lines = (line for chunk in handle for line in chunk.splitlines())
            lineno = next((n for n, line in enumerate(lines, start=1)
                           if line.decode(errors="ignore").encode() != line), "?")
        raise error(f"{path}, line {lineno}: not UTF-8 text") from None


def load_corpus(path, task: str = TASK_FINE) -> Corpus:
    """Load a treebank file (one tree per line; blank lines skipped) as
    the split named by the file's base name.

    The file is always in fine-grained (5-class) form; ``task="binary"``
    applies to_binary_task after loading.  Parse errors, including a
    node wider than ``MAX_CHILDREN``, are re-raised with the file and the
    offending line number, and so is a line that is not UTF-8.  The trees
    are parsed straight into the columns of one forest.
    """
    if task not in (TASK_FINE, TASK_BINARY):
        raise ValueError(f"unknown task {task!r}")
    split_name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    columns, lexicon, offsets = _Columns(), {}, array("q", [0])
    with open_text(path, TreebankError) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                _parse_into(columns, line, lexicon)
            except TreebankError as err:
                raise TreebankError(f"{path}, line {lineno}: {err}") from None
            offsets.append(len(columns.parents))
    corpus = Corpus(columns.forest(offsets, list(lexicon)), split_name, TASK_FINE,
                    FINE_CLASSES)
    return to_binary_task(corpus) if task == TASK_BINARY else corpus


def to_binary_task(corpus: Corpus) -> Corpus:
    """Fine-grained corpus -> binary task.

    Sentences with a neutral root are dropped.  In surviving trees the
    labels map {0,1}->0 and {3,4}->1; internal neutral nodes keep their
    place in the structure but lose their label (gold -1),
    so they contribute to neither loss nor accuracy.
    """
    if corpus.task != TASK_FINE:
        raise ValueError("corpus is already binary")
    fine = corpus.trees
    kept = fine.select(np.flatnonzero(fine.gold[fine.roots] != _NEUTRAL))
    gold = kept.gold
    kept.gold = (gold > _NEUTRAL).astype(gold.dtype)
    kept.gold[(gold == _NEUTRAL) | (gold < 0)] = -1
    return Corpus(kept, corpus.split_name, TASK_BINARY, BINARY_CLASSES)


def random_tree(rng, tokens, max_nodes: int = 9) -> Forest:
    """Random small tree with arity <= 2, for diagnostics and gradient
    checks.  A node's label is drawn after its subtree; the tree is
    written as a line and parsed, so ``tokens`` must be treebank words."""

    def build(budget):
        if budget <= 2 or rng.random() < 0.3:
            token = tokens[int(rng.integers(len(tokens)))]
            return f"({int(rng.integers(FINE_CLASSES))} {token})", 1
        if budget >= 5 and rng.random() < 0.8:
            left, used_l = build((budget - 1) // 2)
            right, used_r = build(budget - 1 - used_l)
            kids, used = f"{left} {right}", used_l + used_r
        else:
            kids, used = build(budget - 1)
        return f"({int(rng.integers(FINE_CLASSES))} {kids})", used + 1

    return parse_tree(build(max_nodes)[0])
