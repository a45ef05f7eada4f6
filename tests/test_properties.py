"""Property tests on random trees: parsing round-trips, and every
variant's distributions against the tape-free oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbogru.autodiff import Tape
from arbogru.model import child_slots
from arbogru.training import build_sentence_graph
from arbogru.treebank import (_TOKENS, Forest, _tokens, load_corpus, parse_tree,
                              serialize_tree)

import oracles
from conftest import WORDS, random_params, synth_vocab

VARIANT_CASES = [("treegru", False, "softmax"), ("treegru", True, "softmax"),
                 ("treegru", True, "linear"), ("treebigru", False, "softmax"),
                 ("treebigru", True, "softmax"), ("treebigru", True, "linear")]

# a node is (label, word) at a leaf and (label, [children]) elsewhere
labels = st.integers(0, 4)
nodes = st.recursive(
    st.tuples(labels, st.sampled_from(WORDS)),
    lambda kids: st.tuples(labels, st.lists(kids, min_size=1, max_size=2)),
    max_leaves=12)


def line_of(node):
    label, body = node
    if isinstance(body, str):
        return f"({label} {body})"
    return f"({label} {' '.join(line_of(child) for child in body)})"


trees = nodes.map(lambda node: parse_tree(line_of(node)))

# derandomized and without an example database, so runs are repeatable
# and leave no files behind
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(nodes)
def test_serialize_parse_roundtrip(node):
    line = line_of(node)
    assert serialize_tree(parse_tree(line)) == line


@PROPERTY
@given(st.text(alphabet=" \t()ab7\r\xa0", max_size=40))
def test_tokens_match_the_token_pattern(line):
    assert _tokens(line) == _TOKENS.findall(line)


def walk_index(trees, max_children=2):
    """Reference layout of a list of nodes by a pre-order walk: parents,
    children by slot, heights, depths, gold labels (-1 = unsupervised),
    leaf tokens and per-tree offsets."""
    parents, slots, depths, gold, tokens, offsets = [], [], [], [], [], [0]
    for tree in trees:
        stack = [(tree, -1, 0, 0)]
        while stack:
            (label, body), parent, position, depth = stack.pop()
            if parent >= 0:
                slots[parent][position] = len(parents)
            if isinstance(body, str):
                tokens.append(body)
            else:
                stack.extend((child, len(parents), k, depth + 1)
                             for k, child in reversed(list(enumerate(body))))
            parents.append(parent)
            slots.append([-1] * max_children)
            depths.append(depth)
            gold.append(-1 if label is None else label)
        offsets.append(len(parents))
    heights = [0] * len(parents)
    for j in range(len(parents) - 1, -1, -1):  # children first
        if parents[j] >= 0:
            heights[parents[j]] = max(heights[parents[j]], heights[j] + 1)
    return parents, slots, heights, depths, gold, tokens, offsets


def binary_tree(node):
    """The binary-task form of a fine-grained tree, node by node."""
    label, body = node
    label = None if label == 2 else int(label > 2)
    return label, body if isinstance(body, str) else [binary_tree(c) for c in body]


def forest_index(forest):
    leaves = forest.words[forest.words >= 0]
    return (forest.parents.tolist(), child_slots(forest).tolist(),
            forest.heights.tolist(), forest.depths.tolist(), forest.gold.tolist(),
            [forest.lexicon[w] for w in leaves], forest.offsets.tolist())


@PROPERTY
@given(forest=st.lists(nodes, min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=8),
       task=st.sampled_from(["fine", "binary"]))
def test_batch_from_corpus_rows_matches_a_walk(tmp_path_factory, forest, picks, task):
    # a batch is a row selection of the loaded corpus: its layout must be
    # the one a walk over the same trees gives
    path = tmp_path_factory.mktemp("corpus") / "train.txt"
    path.write_text("".join(line_of(node) + "\n" for node in forest))
    corpus = load_corpus(path, task=task)
    if task == "binary":
        forest = [binary_tree(node) for node in forest if node[0] != 2]
    assert len(corpus) == len(forest)
    ids = [p % len(forest) for p in picks] if forest else []
    batch = corpus.trees.select(ids)
    want = walk_index([forest[i] for i in ids])
    assert forest_index(batch) == want
    assert forest_index(Forest.concat(list(batch))) == want
    assert [forest_index(tree) for tree in batch] == [walk_index([forest[i]]) for i in ids]


@pytest.mark.parametrize("variant,attention,norm", VARIANT_CASES)
@PROPERTY
@given(tree=trees, seed=st.integers(0, 2 ** 16))
def test_distributions_match_oracles(variant, attention, norm, tree, seed):
    vocab = synth_vocab()
    params = random_params(variant, attention, 4, vocab, seed=seed)
    params.attention_norm = norm
    t = params.tensors
    if norm == "linear":
        # positive scores keep the sum-normalization well conditioned
        t["b_w"] = np.full_like(t["b_w"], 3.0)
        t["u_w"] = np.abs(t["u_w"]) + 0.1
    tape = Tape()
    graph = build_sentence_graph(tape, tree, params, vocab)

    up = oracles.upward_states(tree, t, vocab)
    down = oracles.downward_states(tree, up, t) if variant == "treebigru" else None
    sentence = None
    if attention:
        reps = ([np.concatenate([u["h"], d["h"]]) for u, d in zip(up, down)]
                if down else [u["h"] for u in up])
        weights, sentence = oracles.attention(reps, t, norm=norm)
        np.testing.assert_allclose(tape.value(graph.attn.weights), weights,
                                   rtol=0, atol=1e-12)
    want = oracles.predictions(up, down, sentence, t, variant, attention)
    np.testing.assert_allclose(graph.preds.probs, np.array(want), rtol=0, atol=1e-12)
    assert float(tape.value(graph.tree_losses).sum()) == pytest.approx(
        oracles.compute_loss(want, graph.states.forest.gold.tolist()), rel=1e-12)
