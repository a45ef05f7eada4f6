"""Property tests on random trees: parsing round-trips, and every
variant's distributions against the tape-free oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbogru.autodiff import Tape
from arbogru.training import build_sentence_graph
from arbogru.treebank import LabeledTree, parse_tree, serialize_tree

import oracles
from conftest import WORDS, random_params, synth_vocab

VARIANT_CASES = [("treegru", False, "softmax"), ("treegru", True, "softmax"),
                 ("treegru", True, "linear"), ("treebigru", False, "softmax"),
                 ("treebigru", True, "softmax"), ("treebigru", True, "linear")]

labels = st.integers(0, 4)
leaves = st.builds(lambda label, word: LabeledTree(label, token=word),
                   labels, st.sampled_from(WORDS))
trees = st.recursive(
    leaves,
    lambda kids: st.builds(lambda label, children: LabeledTree(label, children=tuple(children)),
                           labels, st.lists(kids, min_size=1, max_size=2)),
    max_leaves=12)

# derandomized and without an example database, so runs are repeatable
# and leave no files behind
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(trees)
def test_serialize_parse_roundtrip(tree):
    line = serialize_tree(tree)
    assert serialize_tree(parse_tree(line)) == line


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
    nodes = graph.states.index.nodes
    assert float(tape.value(graph.loss)) == pytest.approx(
        oracles.compute_loss(want, [n.label for n in nodes]), rel=1e-12)
