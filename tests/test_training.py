import logging
import math

import numpy as np
import pytest

from arbogru import autodiff as ad
from arbogru import training
from arbogru.autodiff import Tape
from arbogru.model import downward_pass, init_params, upward_pass
from arbogru.training import (GradTable, SplitCorpora, TrainConfig,
                              TrainingError, adagrad_step,
                              build_forest_graph, build_sentence_graph,
                              dropout_mask, evaluate,
                              gradient_check, l2_penalty, max_relative_error,
                              sentence_gradients, train)
from arbogru.treebank import Corpus, Forest, parse_tree, to_binary_task

from conftest import (FOREST_CASES, WORDS, forest_params, full_binary_tree,
                      mixed_forest, random_params, synth_corpus, synth_tree,
                      synth_vocab)
from oracles import compute_loss

VARIANT_CASES = [("treegru", False), ("treegru", True),
                 ("treebigru", False), ("treebigru", True)]


# ---------------------------------------------------------------------------
# loss

def test_loss_perfect_prediction_is_zero():
    dist = np.array([0.0, 1.0, 0.0])
    assert compute_loss([dist], [1]) == pytest.approx(0.0)


def test_loss_uniform_five_class():
    dist = np.full(5, 0.2)
    assert compute_loss([dist], [3]) == pytest.approx(math.log(5.0))


def test_loss_additive_over_nodes():
    dist = np.full(5, 0.2)
    assert compute_loss([dist, dist], [0, 4]) == pytest.approx(2.0 * math.log(5.0))


def test_loss_includes_l2_penalty():
    # touched embedding rows add their own squared norms to the penalty
    vocab = synth_vocab()
    params = random_params("treegru", False, 3, vocab, seed=5)
    emb = params.tensors["emb"]
    bare = l2_penalty(params, 0.01)
    with_rows = l2_penalty(params, 0.01, [1, 2])
    assert bare > 0.0
    assert with_rows == pytest.approx(
        bare + 0.005 * (np.sum(emb[1] ** 2) + np.sum(emb[2] ** 2)))
    assert l2_penalty(params, 0.01, np.array([1, 2])) == with_rows
    assert l2_penalty(params, 0.0, [1, 2]) == 0.0


def test_l2_penalty_skips_biases_and_untouched_rows():
    vocab = synth_vocab()
    params = random_params("treegru", False, 3, vocab, seed=6)
    value = l2_penalty(params, 2.0, [0])
    expected = 0.0
    for name, t in params.tensors.items():
        if name == "emb" or name.startswith("b"):
            continue
        expected += np.sum(t * t)
    expected += np.sum(params.tensors["emb"][0] ** 2)
    assert value == pytest.approx(expected)  # l2/2 * 2.0 == 1.0 * sum


# ---------------------------------------------------------------------------
# optimizer

def make_tiny_params():
    vocab = synth_vocab()
    return init_params("treegru", 2, vocab, 5, 2, np.random.default_rng(0))


def zero_accumulators(params):
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


def test_adagrad_first_step_magnitude():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    g = np.full_like(params.tensors["b_z"], 3.0)
    before = params.tensors["b_z"].copy()
    adagrad_step(params, GradTable({"b_z": g}), acc, learning_rate=0.01)
    step = before - params.tensors["b_z"]
    assert np.allclose(step, 0.01, atol=1e-8)  # g / sqrt(g^2) = sign(g)


def test_adagrad_zero_gradient_is_identity():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    before = params.tensors["U_z"].copy()
    adagrad_step(params, GradTable({"U_z": np.zeros_like(before)}), acc, 0.01)
    assert np.array_equal(params.tensors["U_z"], before)
    assert np.all(acc["U_z"] == 0.0)


def test_adagrad_two_step_hand_values():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    name = "b_r"
    g1 = np.full_like(params.tensors[name], 3.0)
    g2 = np.full_like(params.tensors[name], 4.0)
    adagrad_step(params, GradTable({name: g1}), acc, 0.01)
    before = params.tensors[name].copy()
    adagrad_step(params, GradTable({name: g2}), acc, 0.01)
    assert np.allclose(acc[name], 25.0)
    assert np.allclose(before - params.tensors[name], 0.01 * 4.0 / 5.0, atol=1e-8)


def test_adagrad_accumulators_monotone():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    rng = np.random.default_rng(1)
    prev = acc["U_z"].copy()
    for _ in range(5):
        g = rng.normal(size=params.tensors["U_z"].shape)
        adagrad_step(params, GradTable({"U_z": g}), acc, 0.01)
        assert np.all(acc["U_z"] >= prev)
        prev = acc["U_z"].copy()


def test_adagrad_sparse_embedding_rows():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    emb_before = params.tensors["emb"].copy()
    g = np.array([1.0, -1.0])
    adagrad_step(params, GradTable({"emb": g[None]}, rows=[2]), acc, 0.01)
    changed = np.where(np.any(params.tensors["emb"] != emb_before, axis=1))[0]
    assert list(changed) == [2]


def test_adagrad_step_updates_row_and_tensor_alike():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    emb_before = params.tensors["emb"].copy()
    bias_before = params.tensors["b_z"].copy()
    rows = [1, 3]  # the block's row i is emb row rows[i]
    grads = GradTable({"emb": np.array([[3.0, -4.0], [-0.5, 1.0]]),
                       "b_z": np.array([2.0, 0.5])}, rows=rows)
    adagrad_step(params, grads, acc, 0.1)
    # first step: g / sqrt(g^2) = sign(g), so each coordinate moves by lr
    np.testing.assert_allclose(emb_before[rows] - params.tensors["emb"][rows],
                               [[0.1, -0.1], [-0.1, 0.1]], rtol=0, atol=1e-8)
    np.testing.assert_array_equal(acc["emb"][rows],
                                  [[9.0, 16.0], [0.25, 1.0]])
    np.testing.assert_allclose(bias_before - params.tensors["b_z"], [0.1, 0.1],
                               rtol=0, atol=1e-8)
    np.testing.assert_array_equal(acc["b_z"], [4.0, 0.25])
    others = ~np.isin(np.arange(len(emb_before)), rows)
    np.testing.assert_array_equal(params.tensors["emb"][others], emb_before[others])
    assert np.all(acc["emb"][others] == 0.0)
    # second step on row 1 alone: acc = (10, 16), step = lr * g / sqrt(acc)
    block_before = params.tensors["emb"][rows].copy()
    adagrad_step(params, GradTable({"emb": np.array([[1.0, 0.0]])}, rows=[1]), acc, 0.1)
    np.testing.assert_allclose(block_before[0] - params.tensors["emb"][1],
                               [0.1 / np.sqrt(10.0), 0.0], rtol=0, atol=1e-9)
    np.testing.assert_array_equal(acc["emb"][1], [10.0, 16.0])
    np.testing.assert_array_equal(params.tensors["emb"][3], block_before[1])
    np.testing.assert_array_equal(acc["emb"][3], [0.25, 1.0])
    np.testing.assert_array_equal(params.tensors["emb"][others], emb_before[others])


def test_adagrad_rejects_nonfinite_and_leaves_params_untouched():
    params = make_tiny_params()
    acc = zero_accumulators(params)
    snapshot = {k: v.copy() for k, v in params.tensors.items()}
    bad = GradTable({"b_z": np.ones_like(params.tensors["b_z"]),
                     "U_z": np.full_like(params.tensors["U_z"], np.nan)})
    with pytest.raises(TrainingError, match="parameter 'U_z'$"):
        adagrad_step(params, bad, acc, 0.01)
    bad_row = GradTable({"b_z": np.ones_like(params.tensors["b_z"]),
                         "emb": np.array([[1.0, 2.0], [0.0, np.inf]])}, rows=[1, 3])
    with pytest.raises(TrainingError, match="parameter 'emb' row 3$"):
        adagrad_step(params, bad_row, acc, 0.01)
    for name, t in params.tensors.items():
        assert np.array_equal(t, snapshot[name])
    assert all(np.all(a == 0.0) for a in acc.values())


def test_adagrad_steps_when_only_the_squares_overflow():
    # every entry is finite, so the step must not abort; the huge entry's
    # accumulator saturates and only the others move
    params = make_tiny_params()
    acc = zero_accumulators(params)
    before = params.tensors["b_z"].copy()
    with np.errstate(over="ignore"):
        adagrad_step(params, GradTable({"b_z": np.array([1e200, 2.0])}), acc, 0.1)
    assert acc["b_z"].tolist() == [np.inf, 4.0]
    np.testing.assert_allclose(before - params.tensors["b_z"], [0.0, 0.1],
                               rtol=0, atol=1e-8)


def test_dropout_masks_get_no_gradient():
    # a mask is no tape value: dropout adds one op per masked matrix (the
    # input and the three classifier inputs) and no leaf, and every leaf
    # is a parameter tensor and gets a gradient
    vocab = synth_vocab()
    params = random_params("treebigru", True, 4, vocab, seed=3)
    forest = mixed_forest(np.random.default_rng(0))
    plain, tape = Tape(), Tape()
    build_forest_graph(plain, forest, params, vocab)
    graph = build_forest_graph(tape, forest, params, vocab, dropout=0.5,
                               rng=np.random.default_rng(1))
    assert len(tape) == len(plain) + 4
    grads = ad.backward(tape, graph.tree_losses)
    leaves = [i for i in range(len(tape)) if not tape._parents[i]]
    assert leaves == [ref.index for ref in tape.keyed.values()]
    assert all(grads[i] is not None for i in leaves)


@pytest.mark.parametrize("variant,attention", VARIANT_CASES)
def test_unsupervised_forest_has_zero_loss_and_full_zero_gradients(variant, attention):
    # a forest without a gold label still ends in the loss op: each tree
    # contributes 0, and every tensor gets an all-zero gradient
    vocab = synth_vocab()
    params = random_params(variant, attention, 4, vocab, seed=3)
    forest = mixed_forest(np.random.default_rng(0))
    forest.gold[:] = -1
    losses, table = sentence_gradients(forest, params, vocab)
    assert losses.tolist() == [0.0] * len(forest)
    assert set(table) == set(params.tensors)
    assert table["emb"].shape == (len(table.rows), 4)
    assert not any(g.any() for g in table.values())


# ---------------------------------------------------------------------------
# dropout

def test_dropout_zero_probability_identity():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    mask = dropout_mask(32, 0.0, rng, np.float32)
    assert mask.dtype == np.float32
    assert np.array_equal(mask, np.ones(32))
    assert rng.bit_generator.state == state  # no draws spent


def test_dropout_eval_mode_identity():
    # a graph without dropout, as evaluate and predict build theirs,
    # draws no mask even when handed a generator
    vocab = synth_vocab()
    params = random_params("treegru", True, 5, vocab, seed=22)
    tree = synth_tree(np.random.default_rng(4), max_nodes=9)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    plain, evalmode = Tape(), Tape()
    want = build_sentence_graph(plain, tree, params, vocab)
    got = build_sentence_graph(evalmode, tree, params, vocab, dropout=0.0, rng=rng)
    assert rng.bit_generator.state == state
    assert len(evalmode) == len(plain)
    for p, q in zip(got.preds.probs, want.preds.probs):
        assert np.array_equal(p, q)


def test_dropout_statistics():
    rng = np.random.default_rng(123)
    mask = dropout_mask(1_000_000, 0.5, rng)
    survivors = mask[mask != 0.0]
    assert len(survivors) / len(mask) == pytest.approx(0.5, abs=0.01)
    assert np.all(survivors == 2.0)


def test_dropout_rejects_bad_probability():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dropout_mask(3, 1.0, rng)
    with pytest.raises(ValueError):
        dropout_mask(3, -0.1, rng)


# ---------------------------------------------------------------------------
# gradients

def test_l2_only_gradient_matches_fd_exactly():
    # the penalty is quadratic, so central differences are exact
    vocab = synth_vocab()
    params = random_params("treegru", False, 3, vocab, seed=9)
    l2 = 1e-4
    touched = [0, 1]
    eps = 1e-5
    for name in ("U_z", "W_s"):
        t = params.tensors[name]
        analytic = l2 * t
        fd = np.zeros_like(t)
        flat, fdf = t.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = l2_penalty(params, l2, touched)
            flat[i] = saved - eps
            lo = l2_penalty(params, l2, touched)
            flat[i] = saved
            fdf[i] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(analytic, fd, rtol=1e-8, atol=1e-8)


def assert_relative(got, want, tol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= tol * scale


def dense_gradients(table, params):
    """``table`` with its embedding row block scattered into a zero matrix
    shaped like ``emb``."""
    dense = dict(table)
    if "emb" in table:
        dense["emb"] = np.zeros_like(params.tensors["emb"])
        dense["emb"][table.rows] = table["emb"]
    return dense


def test_batch_gradient_equals_sum_of_sentence_gradients():
    # one forest on one tape must agree with one tape per sentence
    vocab = synth_vocab()
    trees = mixed_forest(np.random.default_rng(9))
    for variant, attention, norm in FOREST_CASES:
        params = forest_params(variant, attention, norm, 6, seed=3)
        losses, forest = sentence_gradients(trees, params, vocab)
        assert losses.shape == (len(trees),)
        summed, rows = {}, set()
        for t, tree in enumerate(trees):
            loss, table = sentence_gradients(tree, params, vocab)
            assert_relative(losses[t], loss[0])
            rows.update(table.rows.tolist())
            for key, g in dense_gradients(table, params).items():
                summed[key] = summed[key] + g if key in summed else g
        assert set(forest) == set(summed) == set(params.tensors), (variant, attention,
                                                                    norm)
        assert forest.rows.tolist() == sorted(rows)
        dense = dense_gradients(forest, params)
        for row in range(vocab.size):  # embedding rows one by one
            assert_relative(dense["emb"][row], summed["emb"][row])
        for key, g in forest.items():
            if key != "emb":
                assert_relative(g, summed[key])


@pytest.mark.parametrize("variant,attention", VARIANT_CASES)
def test_training_batch_tape_has_one_leaf_per_tensor(variant, attention):
    # 25 trees of one shape, reading one word or every word of the
    # vocabulary: the embedding rows are one leaf, so the tape is as long
    vocab = synth_vocab()
    params = random_params(variant, attention, 4, vocab, seed=4)
    shape = "(2 (2 (2 {}) (2 {})) (2 {}))"
    words = [WORDS[i % len(WORDS)] for i in range(75)]
    lengths = []
    for batch in (["good"] * 75, words):
        trees = Forest.concat([parse_tree(shape.format(*batch[3 * t:3 * t + 3]))
                               for t in range(25)])
        tape = Tape()
        graph = build_forest_graph(tape, trees, params, vocab, dropout=0.5,
                                   rng=np.random.default_rng(0))
        assert set(tape.keyed) == set(params.tensors)
        assert graph.states.rows.size == len(set(batch))
        lengths.append(len(tape))
    assert lengths[0] == lengths[1]


@pytest.mark.parametrize("variant,attention", VARIANT_CASES)
def test_gradient_check_all_variants(variant, attention):
    err = gradient_check(variant, attention, dim=8, seed=7)
    assert err < 1e-4


def test_gradient_check_rejects_large_dim():
    with pytest.raises(ValueError):
        gradient_check("treegru", False, dim=64)


def test_max_relative_error_floors_small_values():
    a = np.array([1e-9, 1.0])
    b = np.array([0.0, 1.0])
    assert max_relative_error(a, b) < 1e-5


# ---------------------------------------------------------------------------
# training loop

def tiny_setup(variant="treegru", attention=False, n=12, dim=6, seed=0):
    corpus = synth_corpus(n, seed=seed, max_nodes=11)
    dev = synth_corpus(max(2, n // 3), seed=seed + 1, max_nodes=11)
    vocab = synth_vocab()
    rng = np.random.default_rng(seed)
    params = init_params(variant, dim, vocab, 5, 2, rng, attention=attention)
    return SplitCorpora(corpus, dev), params, vocab


def test_train_is_deterministic():
    config = TrainConfig(variant="treegru", dim=6, batch_size=4, epochs=2,
                         dropout=0.5, seed=11)
    runs = []
    for _ in range(2):
        data, params, vocab = tiny_setup(seed=2)
        lines = []
        result = train(config, data, params, vocab, log_fn=lines.append)
        runs.append((lines, params, result))
    strip = lambda lines: ["\t".join(l.split("\t")[:4]) for l in lines]
    (lines_a, final_a, result_a), (lines_b, final_b, result_b) = runs
    assert strip(lines_a) == strip(lines_b)
    for name in final_a.tensors:
        np.testing.assert_array_equal(final_a.tensors[name], final_b.tensors[name])
        np.testing.assert_array_equal(result_a.best_params.tensors[name],
                                      result_b.best_params.tensors[name])


def test_train_returns_best_dev_checkpoint():
    config = TrainConfig(variant="treegru", dim=6, batch_size=4, epochs=3,
                         dropout=0.3, seed=5)
    data, params, vocab = tiny_setup(seed=4)
    lines = []
    result = train(config, data, params, vocab, log_fn=lines.append)
    logged = [float(line.split("\t")[3]) for line in lines]
    assert result.best_dev_accuracy == pytest.approx(max(logged))
    best_eval = evaluate(data.dev, result.best_params, vocab)
    final_eval = evaluate(data.dev, params, vocab)  # train updates params in place
    assert best_eval.root_accuracy == pytest.approx(result.best_dev_accuracy)
    assert best_eval.root_accuracy >= final_eval.root_accuracy


def test_train_evaluation_schedule():
    cases = [
        # 12 sentences, batch 4 -> 3 batches; ceil(3/4)=1 -> eval after every batch
        (12, 4, [1, 2, 3, 4, 5, 6], [1, 1, 1, 2, 2, 2]),
        # 20 sentences, batch 2 -> 10 batches; ceil(10/4)=3 -> eval after
        # batches 3, 6 and 9 and after the epoch's last
        (20, 2, [3, 6, 9, 10, 13, 16, 19, 20], [1, 1, 1, 1, 2, 2, 2, 2]),
    ]
    for n, batch, steps, epochs in cases:
        config = TrainConfig(variant="treegru", dim=4, batch_size=batch, epochs=2,
                             dropout=0.0, seed=1)
        data, params, vocab = tiny_setup(n=n, seed=6, dim=4)
        lines = []
        result = train(config, data, params, vocab, log_fn=lines.append)
        fields = [line.split("\t") for line in lines]
        assert [int(f[1]) for f in fields] == steps
        assert [int(f[0]) for f in fields] == epochs
        assert result.step == steps[-1]
        # the first evaluation to reach the best accuracy keeps its snapshot
        accuracies = [float(f[3]) for f in fields]
        assert result.best_step == steps[accuracies.index(max(accuracies))]


@pytest.mark.parametrize("variant,attention", VARIANT_CASES)
def test_loss_decreases_over_first_epochs(variant, attention):
    config = TrainConfig(variant=variant, attention=attention, dim=8,
                         learning_rate=0.05, batch_size=6, epochs=5,
                         dropout=0.0, l2=0.0, seed=3,
                         evals_per_epoch=1)
    data, params, vocab = tiny_setup(variant, attention, n=12, dim=8, seed=8)
    lines = []
    train(config, data, params, vocab, log_fn=lines.append)
    losses = [float(line.split("\t")[2]) for line in lines]
    assert losses[-1] < losses[0]


def test_gradient_norm_warning_once_per_evaluation(caplog, monkeypatch):
    # 12 sentences in batches of 4, one evaluation per epoch: every batch
    # exceeds the threshold, and each evaluation warns once with the count
    config = TrainConfig(variant="treegru", dim=4, batch_size=4, epochs=2,
                         dropout=0.0, seed=1, evals_per_epoch=1)
    monkeypatch.setattr(training, "GRAD_NORM_WARN", 0.0)
    data, params, vocab = tiny_setup(seed=6, dim=4)
    lines = []
    with caplog.at_level(logging.WARNING, logger="arbogru"):
        train(config, data, params, vocab, log_fn=lines.append)
    messages = [r.getMessage() for r in caplog.records if "gradient norm" in r.getMessage()]
    assert len(messages) == len(lines) == 2
    assert all(message.startswith("3 of 3 batches") for message in messages)

    caplog.clear()
    monkeypatch.setattr(training, "GRAD_NORM_WARN", math.inf)
    data, params, vocab = tiny_setup(seed=6, dim=4)
    with caplog.at_level(logging.WARNING, logger="arbogru"):
        train(config, data, params, vocab)
    assert not caplog.records


def test_train_propagates_nonfinite_loss():
    data, params, vocab = tiny_setup(seed=9)
    params.tensors["emb"][:] = np.nan
    config = TrainConfig(variant="treegru", dim=6, batch_size=4, epochs=1,
                         dropout=0.0, seed=1)
    with pytest.raises(TrainingError, match="sentence"):
        train(config, data, params, vocab)


def test_train_names_the_sentence_with_a_nonfinite_loss():
    # one word's row is NaN: only the sentence holding it loses finiteness,
    # and the error names its corpus index whatever the batch order
    vocab = synth_vocab()
    lines = ["(3 good)", "(2 (2 the) (1 dull))", "(1 (2 plot) (0 awful))",
             "(4 superb)", "(3 (3 solid) (2 film))"]
    corpus = Corpus([parse_tree(line) for line in lines], "train", "fine", 5)
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    params.tensors["emb"][vocab.lookup("awful")] = np.nan
    config = TrainConfig(variant="treegru", dim=4, batch_size=5, epochs=1,
                         dropout=0.0, seed=1)
    with pytest.raises(TrainingError, match="sentence index 2$"):
        train(config, SplitCorpora(corpus, corpus), params, vocab)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_always_right_class():
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    params.tensors["W_s"][:] = 0.0
    params.tensors["b_s"][:] = 0.0
    params.tensors["b_s"][3] = 5.0  # force every prediction to class 3
    trees = [parse_tree("(3 (2 good) (2 movie))"), parse_tree("(3 nice)")]
    corpus = Corpus(trees, "dev", "fine", 5)
    metrics = evaluate(corpus, params, vocab)
    assert metrics.root_accuracy == 1.0
    node_labels = [2, 2, 3, 3]
    assert metrics.node_accuracy == pytest.approx(
        sum(1 for l in node_labels if l == 3) / len(node_labels))


def test_evaluate_deterministic():
    vocab = synth_vocab()
    params = random_params("treegru", True, 5, vocab, seed=15)
    corpus = synth_corpus(8, seed=3)
    one = evaluate(corpus, params, vocab)
    two = evaluate(corpus, params, vocab)
    assert one == two


def test_evaluate_rejects_class_mismatch():
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 2, 2, np.random.default_rng(0))
    corpus = synth_corpus(3, seed=1)  # fine-grained, 5 classes
    with pytest.raises(ValueError, match="class"):
        evaluate(corpus, params, vocab)


def test_evaluate_binary_task_skips_unsupervised_nodes():
    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 2, 2, np.random.default_rng(0))
    fine = Corpus([parse_tree("(4 (2 the) (3 good))")], "dev", "fine", 5)
    binary = to_binary_task(fine)
    metrics = evaluate(binary, params, vocab)
    # 3 nodes, 1 unsupervised: accuracy denominators must use 2 and 1
    assert 0.0 <= metrics.node_accuracy <= 1.0
    assert metrics.root_accuracy in (0.0, 1.0)


def test_evaluate_in_chunks_equals_per_tree_scoring():
    # two full chunks and a partial one
    from arbogru.training import SCORE_CHUNK

    vocab = synth_vocab()
    corpus = synth_corpus(2 * SCORE_CHUNK + 5, seed=14, max_nodes=9)
    assert len(corpus) % SCORE_CHUNK
    for variant, attention in VARIANT_CASES:
        params = random_params(variant, attention, 4, vocab, seed=16)
        root_ok = hits = supervised = 0
        loss = 0.0
        for tree in corpus.trees:
            tape = Tape()
            graph = build_sentence_graph(tape, tree, params, vocab)
            labels, gold = np.asarray(graph.preds.labels), graph.states.forest.gold
            root_ok += int(labels[0] == gold[0])
            hits += int(np.sum(labels == gold))
            supervised += len(gold)
            loss += float(tape.value(graph.tree_losses).sum())
        got = evaluate(corpus, params, vocab)
        assert got.root_accuracy == root_ok / len(corpus)
        assert got.node_accuracy == hits / supervised
        assert got.loss == pytest.approx(loss / len(corpus), rel=1e-12)


def test_eval_mode_ignores_dropout_config():
    # dropout is a training-only concern; evaluation never draws masks
    vocab = synth_vocab()
    params = random_params("treegru", False, 5, vocab, seed=20)
    corpus = synth_corpus(5, seed=5)
    assert evaluate(corpus, params, vocab) == evaluate(corpus, params, vocab)


def test_build_sentence_graph_loss_matches_compute_loss():
    vocab = synth_vocab()
    params = random_params("treegru", False, 5, vocab, seed=21)
    rng = np.random.default_rng(2)
    tree = synth_tree(rng, max_nodes=9)
    tape = Tape()
    graph = build_sentence_graph(tape, tree, params, vocab)
    gold = graph.states.forest.gold
    supervised = np.flatnonzero(gold >= 0)
    dists = [graph.preds.probs[j] for j in supervised]
    labels = gold[supervised].tolist()
    assert float(tape.value(graph.tree_losses).sum()) == pytest.approx(
        compute_loss(dists, labels), rel=1e-12)


@pytest.mark.parametrize("variant,attention", VARIANT_CASES)
def test_head_and_loss_tape_entries_do_not_grow_with_nodes(variant, attention):
    # attention, classifiers and loss work on whole node matrices
    vocab = synth_vocab()
    params = random_params(variant, attention, 4, vocab, seed=8)
    rng = np.random.default_rng(12)

    def head_entries(tree):
        passes = Tape()
        states = upward_pass(tree, params, passes, vocab)
        if variant == "treebigru":
            downward_pass(states, params, passes)
        full = Tape()
        build_sentence_graph(full, tree, params, vocab)
        return len(full) - len(passes)

    small, large = full_binary_tree(rng, 1), full_binary_tree(rng, 4)
    assert head_entries(small) == head_entries(large)
