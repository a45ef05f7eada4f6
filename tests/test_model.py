import json
import warnings

import numpy as np
import pytest

from arbogru import autodiff as ad
from arbogru.autodiff import Tape
from arbogru.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from arbogru.embeddings import build_vocab, random_embeddings
from arbogru.model import (ModelError, _sigmoid, attention_pool, count_parameters,
                           child_slots, downward_pass, init_params,
                           itemize_parameters, predict_nodes, upward_pass)
from arbogru.treebank import Corpus, Forest, LabeledTree, parse_tree

import oracles
from conftest import (FOREST_CASES, WORDS, forest_params, full_binary_tree,
                      mixed_forest, random_params, synth_tree, synth_vocab)

VARIANT_CASES = [("treegru", False), ("treegru", True),
                 ("treebigru", False), ("treebigru", True)]


def forward(trees, params, vocab):
    tape = Tape()
    states = upward_pass(trees, params, tape, vocab)
    if params.variant == "treebigru":
        downward_pass(states, params, tape)
    attn = attention_pool(states, params, tape) if params.attention else None
    preds = predict_nodes(states, params, tape, attn=attn)
    return tape, states, attn, preds


# ---------------------------------------------------------------------------
# initialization

def test_init_recurrent_matrices_are_half_identity():
    vocab = synth_vocab()
    params = init_params("treebigru", 6, vocab, 5, 2, np.random.default_rng(0),
                         attention=True)
    for name in ("U_z", "U_r", "U_h", "W_z_1", "W_z_2", "W_r_1", "W_r_2",
                 "W_h_1", "W_h_2", "Ud_z", "Ud_r", "Ud_h", "Wd_z", "Wd_r", "Wd_h"):
        assert np.array_equal(params.tensors[name], 0.5 * np.eye(6)), name


def test_init_biases_zero():
    vocab = synth_vocab()
    params = init_params("treebigru", 4, vocab, 5, 2, np.random.default_rng(0),
                         attention=True)
    for name, tensor in params.tensors.items():
        if name.startswith("b"):
            assert np.all(tensor == 0.0), name


def test_init_classifier_and_attention_randomized():
    vocab = synth_vocab()
    params = init_params("treebigru", 8, vocab, 5, 2, np.random.default_rng(0),
                         attention=True)
    for name in ("W_s_up", "W_s_dn", "W_s_att", "W_w", "u_w"):
        tensor = params.tensors[name]
        assert not np.array_equal(tensor, np.zeros_like(tensor)), name
        assert np.max(np.abs(tensor)) < 0.1, name  # scaled-down normal


def test_init_deterministic():
    vocab = synth_vocab()
    one = init_params("treegru", 5, vocab, 5, 2, np.random.default_rng(42),
                      attention=True)
    two = init_params("treegru", 5, vocab, 5, 2, np.random.default_rng(42),
                      attention=True)
    for name in one.tensors:
        assert np.array_equal(one.tensors[name], two.tensors[name])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_init_adopts_embeddings_of_its_dtype(dtype):
    vocab = synth_vocab()
    emb = random_embeddings(vocab, 4, np.random.default_rng(0), np.float64)
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0),
                         embeddings=emb, dtype=dtype)
    tensor = params.tensors["emb"]
    assert tensor.dtype == dtype
    assert np.shares_memory(tensor, emb.vectors) == (dtype == np.float64)
    assert np.array_equal(tensor, emb.vectors.astype(dtype))


# ---------------------------------------------------------------------------
# upward pass

def test_upward_leaf_with_zero_embedding():
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    params.tensors["emb"][:] = 0.0
    tree = LabeledTree(2, token=WORDS[0])
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    assert np.allclose(states.z_up[0], 0.5)
    assert np.allclose(states.cand_up[0], 0.0)
    assert np.allclose(tape.value(states.H_up)[0], 0.0)


def test_upward_leaf_scalar_hand_values():
    # d=1, U = [[0.5]], x = [1], zero biases:
    #   z = sig(0.5) = 0.6224593
    #   cand = tanh(0.5) = 0.4621172
    #   h = (1 - z) * cand = 0.1744680
    tree = LabeledTree(2, token="word")
    vocab = build_vocab(Corpus([tree], "t", "fine", 5))
    params = init_params("treegru", 1, vocab, 5, 2, np.random.default_rng(0))
    params.tensors["emb"][vocab.lookup("word")] = 1.0
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    assert states.z_up[0, 0] == pytest.approx(0.6224593312, abs=1e-9)
    assert states.cand_up[0, 0] == pytest.approx(0.4621171573, abs=1e-9)
    assert tape.value(states.H_up)[0, 0] == pytest.approx(0.1744680, abs=1e-6)


def test_upward_rejects_wide_nodes():
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    wide = LabeledTree(2, children=tuple(
        LabeledTree(2, token=WORDS[i]) for i in range(3)))
    with pytest.raises(ModelError, match="arity"):
        upward_pass(wide, params, Tape(), vocab)


def test_upward_matches_oracle():
    vocab = synth_vocab()
    for seed in range(25):
        rng = np.random.default_rng(seed)
        tree = synth_tree(rng, max_nodes=7)
        params = random_params("treegru", False, 8, vocab, seed=seed)
        tape = Tape()
        states = upward_pass(tree, params, tape, vocab)
        expected = oracles.upward_states(tree, params.tensors, vocab)
        assert len(expected) == states.forest.node_count
        for j, slot in enumerate(expected):
            for ours, theirs in ((tape.value(states.H_up), "h"), (states.z_up, "z"),
                                 (states.r_up, "r"), (states.cand_up, "cand")):
                np.testing.assert_allclose(ours[j], slot[theirs],
                                           rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# downward pass

def test_downward_single_leaf_equals_upward():
    vocab = synth_vocab()
    params = random_params("treebigru", False, 6, vocab, seed=1)
    tree = LabeledTree(2, token=WORDS[0])
    tape = Tape()
    states = downward_pass(upward_pass(tree, params, tape, vocab), params, tape)
    assert np.array_equal(tape.value(states.H_down)[0], tape.value(states.H_up)[0])


def test_downward_zero_fixed_point():
    vocab = synth_vocab()
    params = init_params("treebigru", 5, vocab, 5, 2, np.random.default_rng(0))
    for name, tensor in params.tensors.items():
        params.tensors[name] = np.zeros_like(tensor)
    rng = np.random.default_rng(4)
    tree = synth_tree(rng, max_nodes=9)
    tape = Tape()
    states = downward_pass(upward_pass(tree, params, tape, vocab), params, tape)
    for j in range(states.forest.node_count):
        assert np.allclose(tape.value(states.H_up)[j], 0.0)
        assert np.allclose(tape.value(states.H_down)[j], 0.0)


def test_downward_matches_oracle():
    vocab = synth_vocab()
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        tree = synth_tree(rng, max_nodes=7)
        params = random_params("treebigru", False, 8, vocab, seed=seed)
        tape = Tape()
        states = downward_pass(upward_pass(tree, params, tape, vocab), params, tape)
        up = oracles.upward_states(tree, params.tensors, vocab)
        down = oracles.downward_states(tree, up, params.tensors)
        for j, slot in enumerate(down):
            np.testing.assert_allclose(tape.value(states.H_down)[j], slot["h"],
                                       rtol=0, atol=1e-12)
            if j > 0:
                np.testing.assert_allclose(states.z_down[j], slot["z"],
                                           rtol=0, atol=1e-12)


def test_downward_requires_bidirectional_params():
    vocab = synth_vocab()
    params = random_params("treegru", False, 4, vocab)
    tree = LabeledTree(2, token=WORDS[0])
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    with pytest.raises(ModelError, match="treebigru"):
        downward_pass(states, params, tape)


# ---------------------------------------------------------------------------
# the level-by-level recurrence op

# pre-order: 0 root, 1 unary node, 2 good, 3 binary node, 4 bad, 5 movie
SHAPED = "(3 (1 (2 good)) (4 (2 bad) (2 movie)))"


def test_sigmoid_in_place_matches_the_logistic_function():
    x = np.linspace(-800.0, 800.0, 160001)
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(x.copy())
        small = x[::1000].astype(np.float32)
        again = _sigmoid(small)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert again is small and again.dtype == np.float32


def test_index_tree_slots_heights_depths():
    idx = parse_tree(SHAPED)
    assert idx.parents.tolist() == [-1, 0, 1, 0, 3, 3]
    assert idx.slots.tolist() == [0, 0, 0, 1, 0, 1]
    assert child_slots(idx, 2).tolist() == [[1, 3], [2, -1], [-1, -1], [4, 5],
                                            [-1, -1], [-1, -1]]
    assert idx.heights.tolist() == [2, 1, 0, 1, 0, 0]
    assert idx.depths.tolist() == [0, 1, 2, 1, 2, 2]
    assert idx.gold.tolist() == [3, 1, 2, 4, 2, 2]
    with pytest.raises(ModelError, match="arity 2 exceeds K=1"):
        child_slots(idx, 1)


def test_index_tree_lays_out_a_forest():
    # a one-leaf tree between two copies of SHAPED: indices shift by the
    # tree's offset, -1 stays "none", and the roots sit at the offsets
    one = parse_tree(SHAPED)
    idx = Forest.concat([one, parse_tree("(0 awful)"), parse_tree(SHAPED)])
    slots, one_slots = child_slots(idx, 2), child_slots(one, 2)
    assert idx.offsets.tolist() == [0, 6, 7, 13]
    assert idx.roots.tolist() == [0, 6, 7]
    assert idx.parents.tolist() == [-1, 0, 1, 0, 3, 3, -1, -1, 7, 8, 7, 10, 10]
    assert slots[7:].tolist() == np.where(one_slots >= 0, one_slots + 7, -1).tolist()
    assert slots[6].tolist() == [-1, -1]
    assert idx.heights.tolist() == one.heights.tolist() + [0] + one.heights.tolist()
    assert idx.depths.tolist() == one.depths.tolist() + [0] + one.depths.tolist()
    assert idx.gold.tolist() == [3, 1, 2, 4, 2, 2, 0, 3, 1, 2, 4, 2, 2]


def test_index_tree_names_the_tree_with_a_wide_node():
    wide = LabeledTree(2, children=tuple(LabeledTree(2, token=w) for w in WORDS[:3]))
    with pytest.raises(ModelError, match="arity 3 exceeds K=2 in tree 2"):
        child_slots(Forest.concat([parse_tree(SHAPED), parse_tree("(0 awful)"), wide]), 2)


@pytest.mark.parametrize("variant,attention,norm", FOREST_CASES)
def test_forest_columns_match_oracles_per_tree(variant, attention, norm):
    # each tree's rows of a forest equal the oracles run on that tree
    vocab = synth_vocab()
    trees = mixed_forest(np.random.default_rng(41))
    params = forest_params(variant, attention, norm, 5, seed=8)
    t = params.tensors
    tape = Tape()
    states = upward_pass(trees, params, tape, vocab)
    if variant == "treebigru":
        downward_pass(states, params, tape)
    attn = attention_pool(states, params, tape) if attention else None
    preds = predict_nodes(states, params, tape, attn=attn)
    offsets = states.forest.offsets
    for i, tree in enumerate(trees):
        rows = slice(offsets[i], offsets[i + 1])
        up = oracles.upward_states(tree, t, vocab)
        want_up = np.array([slot["h"] for slot in up])
        np.testing.assert_allclose(tape.value(states.H_up)[rows], want_up,
                                   rtol=0, atol=1e-12)
        down = sentence = None
        if variant == "treebigru":
            down = oracles.downward_states(tree, up, t)
            want_down = np.array([slot["h"] for slot in down])
            np.testing.assert_allclose(tape.value(states.H_down)[rows], want_down,
                                       rtol=0, atol=1e-12)
        if attention:
            reps = ([np.concatenate([u["h"], d["h"]]) for u, d in zip(up, down)]
                    if down else [u["h"] for u in up])
            weights, sentence = oracles.attention(reps, t, norm=norm)
            np.testing.assert_allclose(tape.value(attn.weights)[rows], weights,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(tape.value(attn.sentence)[i], sentence,
                                       rtol=0, atol=1e-12)
        want = oracles.predictions(up, down, sentence, t, variant, attention)
        np.testing.assert_allclose(preds.probs[rows], np.array(want), rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant,attention", VARIANT_CASES)
def test_node_indexed_outputs_are_node_major_and_contiguous(variant, attention):
    # row j is node j (row t is tree t for the pooled sentences and root
    # logits), and no output is a transposed view: each is C-contiguous
    vocab = synth_vocab()
    trees = mixed_forest(np.random.default_rng(9))
    params = random_params(variant, attention, 4, vocab, seed=10)
    tape, states, attn, preds = forward(trees, params, vocab)
    nodes = states.forest.node_count
    directions = ("up", "down") if variant == "treebigru" else ("up",)
    outputs = [("logits", tape.value(preds.logits), (nodes, 5)),
               ("probs", preds.probs, (nodes, 5))]
    for direction in directions:
        outputs.append((f"H_{direction}", tape.value(getattr(states, f"H_{direction}")),
                        (nodes, 4)))
        outputs += [(f"{gate}_{direction}", getattr(states, f"{gate}_{direction}"),
                     (nodes, 4)) for gate in ("z", "r", "cand")]
    if attention:
        outputs += [("attn.sentence", tape.value(attn.sentence),
                     (len(trees), 4 * len(directions))),
                    ("root", tape.value(preds.root), (len(trees), 5))]
    for name, value, shape in outputs:
        assert value.shape == shape, name
        assert value.flags.c_contiguous, name


def recurrence_loss(trees, params, vocab, tape, probes):
    """sum(P_up * H_up) + sum(P_down * H_down) over the forest ``trees``:
    every state row counts."""
    states = downward_pass(upward_pass(trees, params, tape, vocab), params, tape)
    terms = []
    for H, probe in zip((states.H_up, states.H_down), probes):
        ones = [tape.input(np.ones(n, dtype=probe.dtype)) for n in probe.shape]
        weighted = ad.mul(tape, H, tape.input(probe))
        terms.append(ad.linear(tape, ad.linear(tape, weighted, ones[1]), ones[0]))
    return states, ad.add(tape, *terms)


def check_recurrence_gradients(trees, params, vocab, probes) -> Tape:
    """Every keyed gradient of ``recurrence_loss`` against central
    differences over the whole tensor (an embedding row the forest does
    not read has gradient 0); returns the tape."""
    tape = Tape()
    states, loss = recurrence_loss(trees, params, vocab, tape, probes)
    grads = ad.backward(tape, loss)

    def objective():
        probe_tape = Tape()
        return float(probe_tape.value(
            recurrence_loss(trees, params, vocab, probe_tape, probes)[1]))

    for key, ref in tape.keyed.items():
        analytic = grads[ref.index]
        if key == "emb":
            analytic = np.zeros_like(params.tensors[key])
            analytic[states.rows] = grads[ref.index]
        flat = params.tensors[key].reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + 1e-5
            hi = objective()
            flat[i] = saved - 1e-5
            lo = objective()
            flat[i] = saved
            fd[i] = (hi - lo) / 2e-5
        analytic = analytic.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-6, key
    return tape


def test_gru_tree_matches_finite_differences():
    # upward: the unary node's second child is the zero pad row;
    # downward: the root is a free row, and two pairs of siblings share
    # their parent's row, whose gradient must sum over both
    vocab = synth_vocab()
    params = random_params("treebigru", False, 3, vocab, seed=4, scale=0.8)
    probes = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 6, 3))
    tape = check_recurrence_gradients(parse_tree(SHAPED), params, vocab, probes)
    assert len(tape.keyed) == 12 + 9 + 1  # up and down tensors, emb


# heights 1 and 2 mix unary and binary nodes, so their second child slot
# is partly pad; height 3 holds only the chain's top, so it is all pad
PADDED_FOREST = ("(3 (2 (2 good) (2 movie)) (1 (1 dull)))", "(1 (1 (2 (1 bad))))")


def test_gru_tree_matches_finite_differences_over_pad_slots():
    vocab = synth_vocab()
    trees = Forest.concat([parse_tree(s) for s in PADDED_FOREST])
    second = [child_slots(trees, 2)[trees.heights == h, 1] for h in (1, 2, 3)]
    assert all((kids >= 0).any() and (kids < 0).any() for kids in second[:2])
    assert (second[2] < 0).all()
    params = random_params("treebigru", False, 3, vocab, seed=5, scale=0.8)
    probes = np.random.default_rng(1).uniform(-1.0, 1.0, (2, trees.node_count, 3))
    check_recurrence_gradients(trees, params, vocab, probes)


def test_unary_chains_give_second_child_weights_zero_gradient():
    vocab = synth_vocab()
    trees = Forest.concat([parse_tree(s) for s in ("(1 (1 (2 (1 bad))))", "(3 (3 good))",
                                                   "(2 movie)")])
    params = random_params("treebigru", False, 3, vocab, seed=6)
    probes = np.random.default_rng(2).uniform(-1.0, 1.0, (2, 7, 3))
    tape = Tape()
    _, loss = recurrence_loss(trees, params, vocab, tape, probes)
    grads = ad.backward(tape, loss)
    for gate in ("z", "r", "h"):
        assert np.all(grads[tape.keyed[f"W_{gate}_2"].index] == 0.0)
        assert np.any(grads[tape.keyed[f"W_{gate}_1"].index] != 0.0)


def test_downward_gates_of_every_root_are_zero():
    # the roots are in no downward level: their state is their upward one
    vocab = synth_vocab()
    params = random_params("treebigru", False, 4, vocab, seed=7)
    tape = Tape()
    states = upward_pass(mixed_forest(np.random.default_rng(3)), params, tape, vocab)
    downward_pass(states, params, tape)
    roots = states.forest.roots
    for gates in (states.z_down, states.r_down, states.cand_down):
        assert np.all(gates[roots] == 0.0)
        assert np.all(np.delete(gates, roots, axis=0) != 0.0)
    np.testing.assert_array_equal(tape.value(states.H_down)[roots],
                                  tape.value(states.H_up)[roots])


def test_gru_tree_keeps_float32():
    vocab = synth_vocab()
    params = random_params("treebigru", False, 3, vocab, seed=4)
    for name, tensor in params.tensors.items():
        params.tensors[name] = tensor.astype(np.float32)
    probes = np.ones((2, 6, 3), dtype=np.float32)
    tape = Tape()
    states, loss = recurrence_loss(parse_tree(SHAPED), params, vocab, tape, probes)
    for array in (tape.value(states.H_up), tape.value(states.H_down), states.z_up,
                  states.r_up, states.cand_up, states.z_down, states.r_down,
                  states.cand_down, tape.value(loss)):
        assert array.dtype == np.float32
    grads = ad.backward(tape, loss)
    for ref in tape.keyed.values():
        assert grads[ref.index].dtype == np.float32


def test_recurrence_tape_entries_do_not_grow_with_the_tree():
    # one op per direction: beyond its keyed leaves (one per tensor), a
    # pass records the same entries for 3 nodes as for 31
    vocab = synth_vocab()
    params = random_params("treebigru", False, 4, vocab, seed=1)
    counts = []
    for depth in (1, 4):
        tape = Tape()
        tree = full_binary_tree(np.random.default_rng(depth), depth)
        states = upward_pass(tree, params, tape, vocab)
        downward_pass(states, params, tape)
        counts.append(len(tape) - len(tape.keyed))
    assert counts[0] == counts[1] == 3  # leaf input gather, two ops


def test_upward_states_shared_between_variants():
    # the upward phase is one operation; downward weights cannot touch it
    vocab = synth_vocab()
    rng = np.random.default_rng(8)
    tree = synth_tree(rng, max_nodes=9)
    uni = random_params("treegru", False, 6, vocab, seed=3)
    bi = random_params("treebigru", False, 6, vocab, seed=99)
    for name, tensor in uni.tensors.items():
        if name in bi.tensors and not name.startswith(("W_s", "b_s")):
            bi.tensors[name] = tensor.copy()
    t1, t2 = Tape(), Tape()
    s1 = upward_pass(tree, uni, t1, vocab)
    s2 = upward_pass(tree, bi, t2, vocab)
    for j in range(s1.forest.node_count):
        np.testing.assert_allclose(t1.value(s1.H_up)[j], t2.value(s2.H_up)[j],
                                   rtol=0, atol=0)


def test_sibling_permutation_with_swapped_weights():
    vocab = synth_vocab()
    rng = np.random.default_rng(5)
    tree = full_binary_tree(rng, 3)
    params = random_params("treegru", False, 6, vocab, seed=7)
    swapped = params.copy()
    for gate in ("z", "r", "h"):
        swapped.tensors[f"W_{gate}_1"] = params.tensors[f"W_{gate}_2"].copy()
        swapped.tensors[f"W_{gate}_2"] = params.tensors[f"W_{gate}_1"].copy()

    def mirror(node):
        if node.token is not None:
            return node
        return LabeledTree(node.label,
                           children=tuple(mirror(c) for c in reversed(node.children)))

    mirrored_tree = mirror(tree)
    t1 = Tape()
    s1 = upward_pass(tree, params, t1, vocab)
    t2 = Tape()
    s2 = upward_pass(mirrored_tree, swapped, t2, vocab)
    # row i of the tree against row j of the mirror, children paired in
    # reverse slot order
    slots, mirrored_slots = child_slots(tree, 2), child_slots(mirrored_tree, 2)
    pairs = [(0, 0)]
    while pairs:
        i, j = pairs.pop()
        np.testing.assert_allclose(t1.value(s1.H_up)[i], t2.value(s2.H_up)[j],
                                   rtol=0, atol=1e-12)
        kids, mirrored_kids = slots[i][slots[i] >= 0], mirrored_slots[j][mirrored_slots[j] >= 0]
        assert len(kids) == len(mirrored_kids)
        pairs += zip(kids, mirrored_kids[::-1])


# ---------------------------------------------------------------------------
# attention

def test_attention_single_node():
    vocab = synth_vocab()
    params = random_params("treegru", True, 5, vocab, seed=2)
    tree = LabeledTree(2, token=WORDS[1])
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    attn = attention_pool(states, params, tape)
    assert np.allclose(tape.value(attn.weights), [1.0])
    np.testing.assert_allclose(tape.value(attn.sentence)[0],
                               tape.value(states.H_up)[0], rtol=0, atol=0)


def test_attention_identical_nodes_split_evenly():
    vocab = synth_vocab()
    params = random_params("treegru", True, 5, vocab, seed=3)
    # two leaves with the same token have identical representations
    tree = LabeledTree(2, children=(LabeledTree(2, token=WORDS[0]),
                                    LabeledTree(2, token=WORDS[0])))
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    attn = attention_pool(states, params, tape)
    weights = tape.value(attn.weights)
    assert weights[1] == pytest.approx(weights[2], abs=1e-12)


def test_attention_matches_oracle_treegru():
    vocab = synth_vocab()
    for seed in range(25):
        rng = np.random.default_rng(200 + seed)
        tree = synth_tree(rng, max_nodes=7)
        params = random_params("treegru", True, 4, vocab, seed=seed)
        tape = Tape()
        states = upward_pass(tree, params, tape, vocab)
        attn = attention_pool(states, params, tape)
        reps = [slot["h"] for slot in oracles.upward_states(tree, params.tensors, vocab)]
        weights, pooled = oracles.attention(reps, params.tensors)
        np.testing.assert_allclose(tape.value(attn.weights), weights,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(tape.value(attn.sentence)[0], pooled,
                                   rtol=0, atol=1e-12)


def test_attention_matches_oracle_treebigru():
    vocab = synth_vocab()
    for seed in range(25):
        rng = np.random.default_rng(300 + seed)
        tree = synth_tree(rng, max_nodes=7)
        params = random_params("treebigru", True, 4, vocab, seed=seed)
        tape = Tape()
        states = downward_pass(upward_pass(tree, params, tape, vocab), params, tape)
        attn = attention_pool(states, params, tape)
        up = oracles.upward_states(tree, params.tensors, vocab)
        down = oracles.downward_states(tree, up, params.tensors)
        reps = [np.concatenate([up[j]["h"], down[j]["h"]]) for j in range(len(up))]
        weights, pooled = oracles.attention(reps, params.tensors)
        np.testing.assert_allclose(tape.value(attn.weights), weights,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(tape.value(attn.sentence)[0], pooled,
                                   rtol=0, atol=1e-12)


def test_attention_weights_normalized():
    vocab = synth_vocab()
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        tree = synth_tree(rng, max_nodes=11)
        params = random_params("treegru", True, 6, vocab, seed=seed, scale=1.5)
        tape = Tape()
        attn = attention_pool(upward_pass(tree, params, tape, vocab), params, tape)
        weights = tape.value(attn.weights)
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-9


def test_attention_scores_shift_invariant():
    # adding a constant to every similarity score leaves the weights unchanged
    rng = np.random.default_rng(0)
    scores = rng.uniform(-2, 2, 6)
    t1, t2 = Tape(), Tape()
    a1 = ad.softmax(t1, t1.input(scores), [0, 6])
    a2 = ad.softmax(t2, t2.input(scores + 17.3), [0, 6])
    np.testing.assert_allclose(t1.value(a1), t2.value(a2), rtol=0, atol=1e-12)


def test_attention_linear_norm_matches_oracle():
    vocab = synth_vocab()
    rng = np.random.default_rng(77)
    tree = synth_tree(rng, max_nodes=7)
    params = random_params("treegru", True, 4, vocab, seed=6, scale=0.4)
    params.attention_norm = "linear"
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    attn = attention_pool(states, params, tape)
    reps = [slot["h"] for slot in oracles.upward_states(tree, params.tensors, vocab)]
    weights, pooled = oracles.attention(reps, params.tensors, norm="linear")
    np.testing.assert_allclose(tape.value(attn.weights), weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tape.value(attn.sentence)[0], pooled, rtol=0, atol=1e-12)
    assert tape.value(attn.weights).sum() == pytest.approx(1.0)


def test_attention_requires_attention_params():
    vocab = synth_vocab()
    params = random_params("treegru", False, 4, vocab)
    tree = LabeledTree(2, token=WORDS[0])
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    with pytest.raises(ModelError, match="attention"):
        attention_pool(states, params, tape)


# ---------------------------------------------------------------------------
# prediction

def test_predict_uniform_with_zero_classifier():
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    params.tensors["W_s"][:] = 0.0
    params.tensors["b_s"][:] = 0.0
    tree = parse_tree("(3 (2 good) (2 movie))")
    tape = Tape()
    preds = predict_nodes(upward_pass(tree, params, tape, vocab), params, tape)
    for dist, label in zip(preds.probs, preds.labels):
        np.testing.assert_allclose(dist, 0.2, rtol=0, atol=1e-12)
        assert label == 0  # tie-break to the lowest class


def test_predict_distributions_normalized():
    vocab = synth_vocab()
    for variant, attention in VARIANT_CASES:
        params = random_params(variant, attention, 5, vocab, seed=11, scale=1.0)
        rng = np.random.default_rng(31)
        tree = synth_tree(rng, max_nodes=9)
        _, _, _, preds = forward(tree, params, vocab)
        for dist in preds.probs:
            assert abs(dist.sum() - 1.0) <= 1e-9
            assert np.all(dist > 0.0)


def test_predict_argmax_matches_logits():
    vocab = synth_vocab()
    params = random_params("treegru", False, 5, vocab, seed=13, scale=1.0)
    rng = np.random.default_rng(17)
    tree = synth_tree(rng, max_nodes=9)
    tape, _, _, preds = forward(tree, params, vocab)
    logits = tape.value(preds.logits)
    assert logits.shape == (len(preds.labels), 5)
    for j, label in enumerate(preds.labels):
        assert label == int(np.argmax(logits[j]))


def test_predict_full_pipeline_matches_oracle():
    vocab = synth_vocab()
    for variant, attention in VARIANT_CASES:
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            tree = synth_tree(rng, max_nodes=9)
            params = random_params(variant, attention, 4, vocab, seed=seed)
            tape, states, attn, preds = forward(tree, params, vocab)
            up = oracles.upward_states(tree, params.tensors, vocab)
            down = None
            sentence = None
            if variant == "treebigru":
                down = oracles.downward_states(tree, up, params.tensors)
            if attention:
                if variant == "treebigru":
                    reps = [np.concatenate([up[j]["h"], down[j]["h"]])
                            for j in range(len(up))]
                else:
                    reps = [slot["h"] for slot in up]
                _, sentence = oracles.attention(reps, params.tensors)
            expected = oracles.predictions(up, down, sentence, params.tensors,
                                           variant, attention)
            for dist, want in zip(preds.probs, expected):
                np.testing.assert_allclose(dist, want, rtol=0, atol=1e-12)


def test_gates_bounded_and_finite():
    vocab = synth_vocab()
    for variant in ("treegru", "treebigru"):
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            tree = synth_tree(rng, max_nodes=11)
            params = random_params(variant, False, 6, vocab, seed=seed, scale=2.0)
            tape = Tape()
            states = upward_pass(tree, params, tape, vocab)
            if variant == "treebigru":
                downward_pass(states, params, tape)
            for j in range(states.forest.node_count):
                z = states.z_up[j]
                r = states.r_up[j]
                cand = states.cand_up[j]
                h = tape.value(states.H_up)[j]
                assert np.all((z > 0) & (z < 1))
                assert np.all((r > 0) & (r < 1))
                assert np.all((cand > -1) & (cand < 1))
                assert np.all(np.isfinite(h))
                if variant == "treebigru" and j > 0:
                    zd = states.z_down[j]
                    assert np.all((zd > 0) & (zd < 1))
                    assert np.all(np.isfinite(tape.value(states.H_down)[j]))


# ---------------------------------------------------------------------------
# parameter audit

def test_count_parameters_toy():
    assert count_parameters("treegru", 2, 3, 2, 2, False) == 54


def test_count_parameters_reference_config():
    assert count_parameters("treegru", 300, 21702, 5, 2, False) == 7_323_005
    assert count_parameters("treegru", 300, 21702, 5, 2, True) == 7_413_605
    assert count_parameters("treebigru", 300, 21702, 5, 2, False) == 7_865_405
    assert count_parameters("treebigru", 300, 21702, 5, 2, True) == 8_049_010


def test_itemize_matches_init():
    vocab = synth_vocab()
    for variant, attention in VARIANT_CASES:
        params = init_params(variant, 7, vocab, 5, 2, np.random.default_rng(0),
                             attention=attention)
        items = itemize_parameters(variant, 7, vocab.size, 5, 2, attention)
        assert [name for name, _, _ in items] == list(params.tensors)
        for name, shape, count in items:
            assert params.tensors[name].shape == shape
            assert params.tensors[name].size == count
        assert params.total_parameters() == sum(c for _, _, c in items)


def test_itemized_breakdown_treegru_reference():
    items = dict((name, count) for name, _, count in
                 itemize_parameters("treegru", 300, 21702, 5, 2, False))
    assert items["emb"] == 6_510_600
    assert items["U_z"] + items["U_r"] + items["U_h"] == 270_000
    assert sum(v for k, v in items.items() if k.startswith("W_") and k[2] in "zrh") \
        == 540_000
    assert items["b_z"] + items["b_r"] + items["b_h"] == 900
    assert items["W_s"] + items["b_s"] == 1_505


def test_attention_adds_expected_tensors():
    base = dict((n, c) for n, _, c in
                itemize_parameters("treegru", 300, 21702, 5, 2, False))
    with_att = dict((n, c) for n, _, c in
                    itemize_parameters("treegru", 300, 21702, 5, 2, True))
    added = {k: v for k, v in with_att.items() if k not in base}
    assert added == {"W_w": 90_000, "b_w": 300, "u_w": 300}


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bytes(tmp_path):
    vocab = synth_vocab()
    for variant, attention in VARIANT_CASES:
        params = random_params(variant, attention, 6, vocab, seed=21)
        params.attention_norm = "linear" if attention else "softmax"
        first = tmp_path / f"{variant}_{attention}.bin"
        save_checkpoint(first, params)
        loaded = load_checkpoint(first)
        assert loaded.variant == params.variant
        assert loaded.attention == params.attention
        assert loaded.attention_norm == params.attention_norm
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
        second = tmp_path / "again.bin"
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()


def test_checkpoint_float32_roundtrip(tmp_path):
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0),
                         dtype=np.float32)
    path = tmp_path / "f32.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.tensors["emb"].dtype == np.float32
    save_checkpoint(tmp_path / "f32b.bin", loaded)
    assert path.read_bytes() == (tmp_path / "f32b.bin").read_bytes()


def write_checkpoint_by_hand(path, manifest, tensors):
    with open(path, "wb") as handle:
        handle.write(b"ARBOCKPT1\n")
        handle.write(json.dumps(manifest).encode("utf-8") + b"\n")
        for t in tensors.values():
            handle.write(t.astype("<f8").tobytes())


def test_checkpoint_version_1_loads_as_softmax(tmp_path):
    # version 1 files carry no attention_norm; they were scored with softmax
    vocab = synth_vocab()
    params = random_params("treegru", True, 3, vocab, seed=4)
    manifest = {
        "format_version": 1, "variant": "treegru", "attention": True, "dim": 3,
        "vocab_size": vocab.size, "classes": 5, "max_children": 2,
        "tensors": [[name, list(t.shape), "<f8"] for name, t in params.tensors.items()],
    }
    path = tmp_path / "v1.bin"
    write_checkpoint_by_hand(path, manifest, params.tensors)
    loaded = load_checkpoint(path)
    assert loaded.attention_norm == "softmax"
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], t)

    manifest.update(format_version=2, attention_norm="cosine")
    write_checkpoint_by_hand(path, manifest, params.tensors)
    with pytest.raises(CheckpointError, match="attention norm"):
        load_checkpoint(path)
    manifest["format_version"] = 3
    write_checkpoint_by_hand(path, manifest, params.tensors)
    with pytest.raises(CheckpointError, match="format version 3"):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest,message", [
    ({"format_version": 2, "attention_norm": "softmax"}, "lacks the key 'variant'"),
    ([2], "not a JSON object"),
])
def test_checkpoint_incomplete_manifest(tmp_path, manifest, message):
    path = tmp_path / "partial.bin"
    write_checkpoint_by_hand(path, manifest, {})
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_manifest_types_checked(tmp_path):
    vocab = synth_vocab()
    params = random_params("treegru", False, 3, vocab, seed=4)
    good = {
        "format_version": 2, "variant": "treegru", "attention": False,
        "attention_norm": "softmax", "dim": 3, "vocab_size": vocab.size,
        "classes": 5, "max_children": 2,
        "tensors": [[name, list(t.shape), "<f8"] for name, t in params.tensors.items()],
    }
    path = tmp_path / "typed.bin"
    for key, bad in (("max_children", None), ("dim", "3"), ("attention", 1),
                     ("classes", True), ("tensors", {})):
        write_checkpoint_by_hand(path, dict(good, **{key: bad}), params.tensors)
        with pytest.raises(CheckpointError, match=f"'{key}' must be of type"):
            load_checkpoint(path)
    for entry in (["emb", 3], ["emb", [-1, 3], "<f8"]):
        broken = dict(good, tensors=[entry] + good["tensors"][1:])
        write_checkpoint_by_hand(path, broken, params.tensors)
        with pytest.raises(CheckpointError, match="malformed tensor entry"):
            load_checkpoint(path)
    write_checkpoint_by_hand(path, good, params.tensors)
    assert load_checkpoint(path).max_children == 2


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT\x00garbage")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    path = tmp_path / "ok.bin"
    save_checkpoint(path, params)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(clipped)


def test_checkpoint_cut_inside_a_tensor_names_it(tmp_path):
    params = init_params("treegru", 4, synth_vocab(), 5, 2, np.random.default_rng(0))
    path = tmp_path / "ok.bin"
    save_checkpoint(path, params)
    data = path.read_bytes()
    emb_end = len(data) - sum(t.nbytes for t in params.tensors.values()) \
        + params.tensors["emb"].nbytes
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(data[:emb_end - 8])
    with pytest.raises(CheckpointError, match="truncated tensor 'emb'"):
        load_checkpoint(clipped)


def test_node_representation_requires_downward():
    # attention and classifiers both read [H_up; H_down] for treebigru
    vocab = synth_vocab()
    params = random_params("treebigru", True, 4, vocab)
    tree = LabeledTree(2, token=WORDS[0])
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    with pytest.raises(ModelError, match="downward"):
        attention_pool(states, params, tape)
    params.attention = False
    with pytest.raises(ModelError, match="downward"):
        predict_nodes(states, params, tape)


# ---------------------------------------------------------------------------
# parameter leaves

def test_passes_register_each_parameter_slot_once():
    # one leaf per tensor; the emb leaf holds the distinct rows the leaves
    # read, ascending, though "movie" comes first and twice
    vocab = synth_vocab()
    params = random_params("treebigru", True, 3, vocab, seed=2)
    tree = parse_tree("(3 (2 movie) (3 (2 good) (2 movie)))")
    tape = Tape()
    states = upward_pass(tree, params, tape, vocab)
    downward_pass(states, params, tape)
    predict_nodes(states, params, tape, attn=attention_pool(states, params, tape))
    assert set(tape.keyed) == set(params.tensors)
    rows = sorted({vocab.lookup("good"), vocab.lookup("movie")})
    assert rows[0] != vocab.lookup("movie")
    assert states.rows.tolist() == rows
    np.testing.assert_array_equal(tape.value(tape.keyed["emb"]),
                                  params.tensors["emb"][rows])
    for key, ref in tape.keyed.items():
        if key != "emb":
            assert tape.value(ref) is params.tensors[key]
