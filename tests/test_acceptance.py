"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL
lines.  Criteria that need the real treebank and pretrained vectors
read them from the environment:

    ARBO_SST_DIR  directory with train.txt / dev.txt / test.txt
    ARBO_GLOVE    path to the 300-dimensional pretrained vector file

and are skipped with instructions when unset.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from arbogru.cli import main as cli_main
from arbogru.embeddings import build_vocab, load_glove
from arbogru.model import (attention_pool, downward_pass, init_params, param_shapes,
                           upward_pass)
from arbogru.autodiff import Tape
from arbogru.training import (SplitCorpora, TrainConfig, build_forest_graph,
                              evaluate, gradient_check, train)
from arbogru.treebank import Corpus, load_corpus, to_binary_task

import oracles
from conftest import (WORD_SCORES, negation_tree, random_params, synth_corpus,
                      synth_tree, synth_vocab)

ALL_VARIANTS = [("treegru", False), ("treegru", True),
                ("treebigru", False), ("treebigru", True)]

SST_ENV = "ARBO_SST_DIR"
GLOVE_ENV = "ARBO_GLOVE"


@contextmanager
def criterion(number, summary):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"ACCEPTANCE {number} SKIP: {summary} ({exc})")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {summary}")
        raise
    print(f"ACCEPTANCE {number} PASS: {summary}")


def sst_path():
    root = os.environ.get(SST_ENV)
    if not root:
        return None
    return root


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradients match finite differences for all variants"):
        start = time.perf_counter()
        worst = 0.0
        for variant, attention in ALL_VARIANTS:
            for i in range(5):  # 5 forests x 4 variants, 3 random trees each
                err = gradient_check(variant, attention, dim=8, seed=1000 + i)
                worst = max(worst, err)
        elapsed = time.perf_counter() - start
        print(f"  max relative error {worst:.3e} over 20 forests of 3 trees "
              f"in {elapsed:.1f}s")
        assert worst < 1e-4
        assert elapsed < 60.0


def test_criterion_2_forward_oracle_equivalence():
    with criterion(2, "forward passes equal tape-free oracles to 1e-12"):
        start = time.perf_counter()
        vocab = synth_vocab()
        pairs = 0
        for variant, attention in ALL_VARIANTS:
            for seed in range(25):
                rng = np.random.default_rng(2000 + seed)
                tree = synth_tree(rng, max_nodes=9)
                params = random_params(variant, attention, 6, vocab, seed=seed)
                tape = Tape()
                states = upward_pass(tree, params, tape, vocab)
                up = oracles.upward_states(tree, params.tensors, vocab)
                for j, slot in enumerate(up):
                    np.testing.assert_allclose(tape.value(states.H_up)[j],
                                               slot["h"], rtol=0, atol=1e-12)
                down = None
                if variant == "treebigru":
                    downward_pass(states, params, tape)
                    down = oracles.downward_states(tree, up, params.tensors)
                    for j, slot in enumerate(down):
                        np.testing.assert_allclose(tape.value(states.H_down)[j],
                                                   slot["h"], rtol=0, atol=1e-12)
                if attention:
                    attn = attention_pool(states, params, tape)
                    if variant == "treebigru":
                        reps = [np.concatenate([up[j]["h"], down[j]["h"]])
                                for j in range(len(up))]
                    else:
                        reps = [slot["h"] for slot in up]
                    weights, pooled = oracles.attention(reps, params.tensors)
                    np.testing.assert_allclose(tape.value(attn.weights), weights,
                                               rtol=0, atol=1e-12)
                    np.testing.assert_allclose(tape.value(attn.sentence)[0], pooled,
                                               rtol=0, atol=1e-12)
                pairs += 1
        elapsed = time.perf_counter() - start
        print(f"  {pairs} (params, tree) pairs in {elapsed:.1f}s")
        assert pairs == 100
        assert elapsed < 10.0


def test_criterion_3_parameter_audit(capsys):
    with criterion(3, "parameter audit reproduces the reference totals"):
        for attention, total in ((False, 7_323_005), (True, 7_413_605)):
            shapes = param_shapes("treegru", 300, 21702, 5, attention)
            assert sum(math.prod(shape) for shape in shapes.values()) == total

        assert cli_main(["params", "--variant", "treegru"]) == 0
        out = capsys.readouterr().out
        assert "7323005" in out

        assert cli_main(["params", "--variant", "treegru", "--attention"]) == 0
        out = capsys.readouterr().out
        assert "7413605" in out

        # bidirectional rows: the report must state the computed totals and
        # the documented 270000-parameter gap against the reference counts
        assert cli_main(["params", "--variant", "treebigru"]) == 0
        out = capsys.readouterr().out
        assert "7865405" in out and "8135405" in out and "270000" in out

        assert cli_main(["params", "--variant", "treebigru", "--attention"]) == 0
        out = capsys.readouterr().out
        assert "8049010" in out and "8317810" in out and "270000" in out
        with capsys.disabled():
            print()
            print("  treegru 7323005, +attention 7413605 (exact); treebigru "
                  "7865405/8049010 with documented 270000 reference gap")


def test_criterion_4_dataset_protocol():
    with criterion(4, "treebank split sizes and pretrained coverage"):
        root = sst_path()
        if root is None:
            pytest.skip(f"set {SST_ENV} to the treebank directory to enable")
        fine = {}
        for split, expected in (("train", 8544), ("dev", 1101), ("test", 2210)):
            corpus = load_corpus(os.path.join(root, f"{split}.txt"))
            fine[split] = corpus
            assert len(corpus) == expected, f"{split}: {len(corpus)}"
        for split, expected in (("train", 6920), ("dev", 872), ("test", 1821)):
            assert len(to_binary_task(fine[split])) == expected

        glove = os.environ.get(GLOVE_ENV)
        if not glove:
            pytest.skip(f"split sizes verified; set {GLOVE_ENV} to also "
                        f"check pretrained coverage")
        vocab = build_vocab(fine["train"])
        emb = load_glove(glove, vocab, 300, np.random.default_rng(0))
        print(f"  vocabulary {vocab.size}, coverage {emb.coverage:.4f}")
        assert abs(emb.coverage - 0.955) <= 0.005


def test_criterion_5_overfit_capacity():
    with criterion(5, "50-sentence overfit reaches 95% node accuracy "
                      "for every variant"):
        root = sst_path()
        if root is not None:
            corpus = load_corpus(os.path.join(root, "train.txt"))
            corpus.trees = corpus.trees[:50]
        else:
            corpus = synth_corpus(50, seed=42, max_nodes=17)
        vocab = synth_vocab() if root is None else build_vocab(corpus)
        data = SplitCorpora(train=corpus, dev=corpus)
        for variant, attention in ALL_VARIANTS:
            start = time.perf_counter()
            config = TrainConfig(
                variant=variant, attention=attention, dim=50,
                learning_rate=0.05, batch_size=25, l2=0.0, dropout=0.0,
                epochs=200, evals_per_epoch=1, seed=1)
            params = init_params(variant, 50, vocab, 5, 2,
                                 np.random.default_rng(1), attention=attention)
            train(config, data, params, vocab)
            metrics = evaluate(corpus, params, vocab)  # the last step's parameters
            elapsed = time.perf_counter() - start
            print(f"  {variant} attention={attention}: node accuracy "
                  f"{metrics.node_accuracy:.3f} in {elapsed:.0f}s")
            assert metrics.node_accuracy >= 0.95, (variant, attention)
            assert elapsed < 300.0


def test_criterion_6_invariant_suite():
    with criterion(6, "attention, gate, and determinism invariants"):
        vocab = synth_vocab()

        # attention weights nonnegative, sum to 1 +- 1e-9
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            tree = synth_tree(rng, max_nodes=11)
            params = random_params("treegru", True, 6, vocab, seed=seed, scale=1.2)
            tape = Tape()
            attn = attention_pool(upward_pass(tree, params, tape, vocab),
                                  params, tape)
            weights = tape.value(attn.weights)
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-9

        # gates strictly inside (0, 1)
        for seed in range(10):
            rng = np.random.default_rng(4000 + seed)
            tree = synth_tree(rng, max_nodes=11)
            params = random_params("treebigru", False, 6, vocab, seed=seed,
                                   scale=1.5)
            tape = Tape()
            states = downward_pass(upward_pass(tree, params, tape, vocab),
                                   params, tape)
            for j in range(states.forest.node_count):
                z = states.z_up[j]
                assert np.all((z > 0.0) & (z < 1.0))
                if j > 0:
                    zd = states.z_down[j]
                    assert np.all((zd > 0.0) & (zd < 1.0))

        # evaluation-mode determinism
        corpus = synth_corpus(6, seed=9)
        params = random_params("treebigru", True, 5, vocab, seed=5)
        assert evaluate(corpus, params, vocab) == evaluate(corpus, params, vocab)

        # seeded training determinism (wall-clock column excluded)
        def run():
            data = SplitCorpora(synth_corpus(8, seed=2), synth_corpus(3, seed=3))
            config = TrainConfig(variant="treegru", dim=5, batch_size=4,
                                 epochs=2, dropout=0.5, seed=17)
            params = init_params("treegru", 5, vocab, 5, 2,
                                 np.random.default_rng(17))
            lines = []
            train(config, data, params, vocab, log_fn=lines.append)
            return ["\t".join(l.split("\t")[:4]) for l in lines], params

        lines1, params1 = run()
        lines2, params2 = run()
        assert lines1 == lines2
        for name in params1.tensors:
            np.testing.assert_array_equal(params1.tensors[name],
                                          params2.tensors[name])


def test_criterion_7_long_run_mode_defaults():
    with criterion(7, "long-run mode exposes the exact training recipe "
                      "(full-corpus accuracy excluded from acceptance)"):
        from arbogru.cli import _build_parser
        args = _build_parser().parse_args(
            ["train", "--data", "unused", "--out", "unused"])
        assert args.dim == 300
        assert args.lr == 0.01
        assert args.batch == 25
        assert args.l2 == 1e-4
        assert args.dropout == 0.5
        assert args.epochs == 40
        assert args.evals_per_epoch == 4
        defaults = TrainConfig()
        assert (defaults.dim, defaults.learning_rate, defaults.batch_size,
                defaults.l2, defaults.dropout, defaults.epochs,
                defaults.evals_per_epoch) == (300, 0.01, 25, 1e-4, 0.5, 40, 4)
        print("  full-corpus accuracy reproduction is a documented long run "
              "(README), not a gate")


def test_criterion_8_top_down_information_helps():
    with criterion(8, "on negated sentences the downward pass labels polar "
                      "leaves that the upward pass alone cannot"):
        rng = np.random.default_rng(8)
        data = SplitCorpora(
            train=Corpus([negation_tree(rng) for _ in range(300)], "train", "fine", 5),
            dev=Corpus([negation_tree(rng) for _ in range(100)], "dev", "fine", 5))
        vocab = build_vocab(data.train)
        dev = data.dev.trees
        scores = [WORD_SCORES.get(word, 2) for word in dev.lexicon]
        polar = np.flatnonzero(dev.words >= 0)
        polar = polar[np.array(scores)[dev.words[polar]] != 2]
        accuracy = {}
        for variant in ("treegru", "treebigru"):
            start = time.perf_counter()
            config = TrainConfig(variant=variant, dim=32, learning_rate=0.1,
                                 dropout=0.0, epochs=30, evals_per_epoch=1, seed=8)
            params = init_params(variant, 32, vocab, 5, 2, np.random.default_rng(8))
            best = train(config, data, params, vocab).best_params
            labels = build_forest_graph(Tape(), dev, best, vocab).preds.labels
            accuracy[variant] = float(np.mean(labels[polar] == dev.gold[polar]))
            print(f"  {variant}: dev polar-leaf accuracy {accuracy[variant]:.3f} "
                  f"in {time.perf_counter() - start:.1f}s")
        assert accuracy["treebigru"] - accuracy["treegru"] >= 0.3
