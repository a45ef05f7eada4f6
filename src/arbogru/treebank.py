"""Sentiment treebank trees: parsing, serialization, and task splits.

The input format is one parenthesized tree per line, e.g.
``(3 (2 good) (2 movie))``.  Every node opens with an integer sentiment
label; a leaf carries exactly one token and an internal node carries one
or more children.  Trees are kept lossless (tokens case-sensitive as
found in the file); any case folding happens at embedding lookup.

A loaded corpus is a ``Forest``: flat per-node columns in pre-order and
per-tree offsets, with no Python object per node.  ``LabeledTree`` is
the interchange type of ``parse_tree`` and ``random_tree``; a forest
makes one on access and is built from a list of them in one walk.
"""

from __future__ import annotations

import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

FINE_CLASSES = 5
BINARY_CLASSES = 2
TASK_FINE = "fine"
TASK_BINARY = "binary"

_NEUTRAL = 2
_TOKENS = re.compile(r"[()]|[^ \t()]+")  # parentheses and space-free words
_FINE_LABELS = {str(label): label for label in range(FINE_CLASSES)}  # the common spellings


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
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append((node.label, node.token, len(node.children)))
            stack.extend(reversed(node.children))
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())

    def __repr__(self) -> str:
        return f"LabeledTree({self._preorder()!r})"


class Lexicon:
    """The distinct leaf words of a forest, in first-occurrence order.

    The forests selected from one forest share its lexicon, and with it
    the mapping of the words to a vocabulary's ids, made once per
    vocabulary.
    """

    __slots__ = ("words", "_mapped")

    def __init__(self, words: Sequence[str]):
        self.words = words
        self._mapped = (None, None)  # (vocabulary, ids) of the last lookup

    def ids(self, vocab) -> np.ndarray:
        """``vocab.lookup`` of every word, indexed like ``words``."""
        held, ids = self._mapped
        if held is not vocab:
            ids = np.array([vocab.lookup(word) for word in self.words], dtype=np.intp)
            self._mapped = (vocab, ids)
        return ids


@dataclass(eq=False)
class Forest:
    """Trees as flat node columns, a sized sequence of trees.

    Tree t holds the rows ``offsets[t]:offsets[t+1]`` in pre-order, its
    root first; parents precede their children.  Indexing with an int
    makes the tree's ``LabeledTree``; a slice or ``select`` gives the
    chosen trees' rows as a new forest with shifted offsets.
    """

    parents: np.ndarray   # int32: row of the parent; -1 at a root
    slots: np.ndarray     # int32: the child slot a node fills (0 at a root)
    words: np.ndarray     # int32: lexicon index at a leaf; -1 elsewhere
    gold: np.ndarray      # int16: label; -1 where unsupervised
    heights: np.ndarray   # int32: 0 at leaves
    depths: np.ndarray    # int32: 0 at the roots
    offsets: np.ndarray   # int64, (trees + 1,)
    lexicon: Lexicon

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def node_count(self) -> int:
        return len(self.parents)

    @property
    def roots(self) -> np.ndarray:
        return self.offsets[:-1]

    def __getitem__(self, key: Union[int, slice]):
        if isinstance(key, slice):
            return self.select(np.arange(len(self))[key])
        t = range(len(self))[key]  # an IndexError past the end stops iteration
        rows = slice(self.offsets[t], self.offsets[t + 1])
        return _make_tree((self.parents[rows] - self.offsets[t]).tolist(),
                          self.words[rows].tolist(), self.gold[rows].tolist(),
                          self.lexicon.words)

    def __iter__(self) -> Iterator[LabeledTree]:
        return (self[t] for t in range(len(self)))

    def select(self, trees) -> "Forest":
        """The trees at the indices ``trees``, in that order."""
        trees = np.asarray(trees, dtype=np.intp)
        starts = self.offsets[trees]
        sizes = self.offsets[trees + 1] - starts
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        shift = np.repeat(offsets[:-1] - starts, sizes)
        rows = np.arange(offsets[-1]) - shift
        parents = self.parents[rows]
        parents = np.where(parents >= 0, parents + shift, -1).astype(np.int32)
        return Forest(parents, self.slots[rows], self.words[rows], self.gold[rows],
                      self.heights[rows], self.depths[rows], offsets, self.lexicon)

    @classmethod
    def from_trees(cls, trees: Sequence[LabeledTree]) -> "Forest":
        """Flatten ``LabeledTree``s in one pre-order walk."""
        columns, lexicon, offsets = _Columns(), {}, [0]
        for tree in trees:
            stack = [(tree, -1, 0, 0)]
            while stack:
                node, parent, slot, depth = stack.pop()
                row = len(columns.parents)
                columns.parents.append(parent)
                columns.slots.append(slot)
                columns.words.append(-1 if node.token is None
                                     else lexicon.setdefault(node.token, len(lexicon)))
                columns.gold.append(-1 if node.label is None else node.label)
                columns.heights.append(0)
                columns.depths.append(depth)
                stack.extend((child, row, k, depth + 1)
                             for k, child in reversed(list(enumerate(node.children))))
            offsets.append(len(columns.parents))
        heights = columns.heights
        for j in range(len(heights) - 1, -1, -1):  # children before parents
            p = columns.parents[j]
            if p >= 0 and heights[p] <= heights[j]:
                heights[p] = heights[j] + 1
        return columns.forest(offsets, list(lexicon))


Trees = Union[Forest, Sequence[LabeledTree]]  # what the passes accept


def as_forest(trees: Trees) -> Forest:
    """``trees`` if it is a forest, else the forest of the listed trees."""
    return trees if isinstance(trees, Forest) else Forest.from_trees(trees)


class _Columns:
    """The node columns of a forest while it is built, in pre-order:
    lists for a few trees, typed arrays (no object per value) for a
    whole corpus."""

    def __init__(self, compact: bool = False):
        def column(typecode):
            return array(typecode) if compact else []

        self.parents, self.slots, self.words = column("i"), column("i"), column("i")
        self.gold, self.heights, self.depths = column("h"), column("i"), column("i")

    def forest(self, offsets, words: Sequence[str]) -> Forest:
        """The forest of these columns; typed arrays are shared, not copied."""
        return Forest(np.asarray(self.parents, np.int32), np.asarray(self.slots, np.int32),
                      np.asarray(self.words, np.int32), np.asarray(self.gold, np.int16),
                      np.asarray(self.heights, np.int32), np.asarray(self.depths, np.int32),
                      np.asarray(offsets, np.int64), Lexicon(words))


def _make_tree(parents: list, words: list, gold: list,
               lexicon: Sequence[str]) -> LabeledTree:
    """The ``LabeledTree`` of one tree's rows (tree-local parent rows)."""
    children: list[list] = [[] for _ in parents]
    for j in range(len(parents) - 1, -1, -1):  # children before parents
        label = gold[j] if gold[j] >= 0 else None
        if words[j] >= 0:
            node = LabeledTree(label, lexicon[words[j]])
        else:
            node = LabeledTree(label, children=tuple(reversed(children[j])))
        if parents[j] >= 0:
            children[parents[j]].append(node)
    return node


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
    columns, lexicon = _Columns(), {}
    _parse_into(columns, line, num_classes, max_arity, lexicon)
    return _make_tree(columns.parents, columns.words, columns.gold, list(lexicon))


def _parse_into(columns: _Columns, line: str, num_classes: int,
                max_arity: Optional[int], lexicon: dict) -> None:
    """Append the nodes of the tree ``line`` to ``columns``; a new word
    enters ``lexicon`` (word -> index) in first-occurrence order."""
    tokens = _tokens(line)
    tokens.append("")  # marks the end of input
    if not tokens[0]:
        raise TreebankError("empty input", 0)
    labels = _FINE_LABELS if num_classes == FINE_CLASSES else {}
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
        label = labels.get(tokens[i + 1])
        if label is None:
            label = _parse_label(line, tokens, i + 1, num_classes)
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
            if max_arity is not None and arity > max_arity:
                raise TreebankError(f"node arity {arity} exceeds K={max_arity}",
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


@dataclass
class Corpus:
    """One split; ``trees`` may be given as a list of ``LabeledTree``s
    and is kept as their forest."""

    trees: Forest
    split_name: str
    task: str
    class_count: int

    def __post_init__(self):
        self.trees = as_forest(self.trees)

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


def load_corpus(path, task: str = TASK_FINE, split_name: Optional[str] = None,
                max_arity: Optional[int] = None) -> Corpus:
    """Load a treebank file (one tree per line; blank lines skipped).

    The file is always in fine-grained (5-class) form; ``task="binary"``
    applies to_binary_task after loading.  Parse errors, including a
    node wider than ``max_arity``, are re-raised with the file and the
    offending line number, and so is a line that is not UTF-8.  The trees
    are parsed straight into the columns of one forest.
    """
    if task not in (TASK_FINE, TASK_BINARY):
        raise ValueError(f"unknown task {task!r}")
    if split_name is None:
        split_name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    columns, lexicon, offsets = _Columns(compact=True), {}, array("q", [0])
    with open_text(path, TreebankError) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                _parse_into(columns, line, FINE_CLASSES, max_arity, lexicon)
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
    place in the structure but lose their label (supervised == False),
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
