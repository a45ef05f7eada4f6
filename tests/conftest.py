"""Shared test helpers: deterministic synthetic corpora and random models.

The synthetic sentences are fully learnable: every word carries a fixed
sentiment score, leaves are labeled with their word's score, and each
internal node is labeled with the rounded mean of its children's
labels.  That keeps capacity/overfitting tests meaningful without
shipping a real treebank.
"""

import numpy as np
import pytest

from arbogru.embeddings import Vocabulary, build_vocab
from arbogru.model import init_params
from arbogru.treebank import Corpus, Forest, LabeledTree, parse_tree

WORD_SCORES = {
    "awful": 0, "dreadful": 0, "wretched": 0,
    "bad": 1, "dull": 1, "boring": 1,
    "the": 2, "a": 2, "movie": 2, "film": 2, "plot": 2, "score": 2,
    "good": 3, "solid": 3, "charming": 3,
    "great": 4, "superb": 4, "dazzling": 4,
}
WORDS = sorted(WORD_SCORES)


def synth_tree(rng, max_nodes=15) -> Forest:
    line, _, _ = _grow(rng, max_nodes)
    return parse_tree(line)


def _grow(rng, budget):
    """(line, label, node count) of a random subtree of at most ``budget``
    nodes; written as text and parsed once, which is far cheaper than
    joining a forest per node."""
    if budget <= 2 or rng.random() < 0.35:
        word = WORDS[int(rng.integers(len(WORDS)))]
        return f"({WORD_SCORES[word]} {word})", WORD_SCORES[word], 1
    if budget >= 5 and rng.random() < 0.85:
        left = _grow(rng, (budget - 1) // 2)
        kids = (left, _grow(rng, budget - 1 - left[2]))
    else:
        kids = (_grow(rng, budget - 1),)
    label = int(np.floor(np.mean([k[1] for k in kids]) + 0.5))
    line = f"({label} {' '.join(k[0] for k in kids)})"
    return line, label, sum(k[2] for k in kids) + 1


def full_binary_tree(rng, depth) -> Forest:
    """Every internal node has exactly two children."""
    if depth == 0:
        word = WORDS[int(rng.integers(len(WORDS)))]
        return LabeledTree(WORD_SCORES[word], token=word)
    kids = (full_binary_tree(rng, depth - 1), full_binary_tree(rng, depth - 1))
    label = int(np.floor(np.mean([k.label for k in kids]) + 0.5))
    return LabeledTree(label, children=kids)


def synth_corpus(n, seed, split="train", max_nodes=15) -> Corpus:
    rng = np.random.default_rng(seed)
    return Corpus([synth_tree(rng, max_nodes) for _ in range(n)],
                  split, "fine", 5)


def synth_vocab() -> Vocabulary:
    """Vocabulary covering every synthetic word: one tree whose leaves are
    the words in order."""
    line = "(2 " + " ".join(f"({WORD_SCORES[w]} {w})" for w in WORDS) + ")"
    return build_vocab(Corpus(parse_tree(line), "vocab", "fine", 5))


def random_params(variant, attention, dim, vocab, classes=5, seed=0, scale=0.5):
    """Fully randomized parameters (uniform); good for oracle comparisons."""
    rng = np.random.default_rng(seed)
    params = init_params(variant, dim, vocab, classes, 2, rng, attention=attention)
    for name, tensor in params.tensors.items():
        params.tensors[name] = rng.uniform(-scale, scale, tensor.shape)
    return params


# every variant, with each attention normalization where there is attention
FOREST_CASES = [(variant, attention, norm)
                for variant, attention in [("treegru", False), ("treegru", True),
                                           ("treebigru", False), ("treebigru", True)]
                for norm in (("softmax", "linear") if attention else ("softmax",))]


def mixed_forest(rng):
    """A one-leaf tree, a unary chain and trees of different heights, as
    one forest."""
    return Forest.concat([synth_tree(rng, max_nodes=9), parse_tree("(3 good)"),
                          parse_tree("(1 (1 (2 (1 dull))))"), full_binary_tree(rng, 3),
                          synth_tree(rng, max_nodes=15)])


def forest_params(variant, attention, norm, dim, seed):
    """``random_params`` scoring attention with ``norm``; linear scores are
    kept positive so the sum-normalization stays well conditioned."""
    params = random_params(variant, attention, dim, synth_vocab(), seed=seed)
    params.attention_norm = norm
    if norm == "linear":
        params.tensors["b_w"] = np.full_like(params.tensors["b_w"], 3.0)
        params.tensors["u_w"] = np.abs(params.tensors["u_w"]) + 0.1
    return params


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
