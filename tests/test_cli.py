import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from arbogru import cli
from arbogru.cli import main
from arbogru.treebank import parse_tree, serialize_tree

from conftest import synth_corpus


@pytest.fixture
def data_dir(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    for split, n, seed in (("train", 12, 1), ("dev", 4, 2), ("test", 4, 3)):
        corpus = synth_corpus(n, seed=seed, max_nodes=11)
        lines = [serialize_tree(t) for t in corpus.trees]
        (root / f"{split}.txt").write_text("\n".join(lines) + "\n")
    return root


def train_args(data_dir, out, **overrides):
    args = ["train", "--data", str(data_dir), "--out", str(out),
            "--dim", "6", "--epochs", "2", "--batch", "4", "--seed", "3"]
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            args.append(flag)
        else:
            args.extend([flag, str(value)])
    return args


# ---------------------------------------------------------------------------
# params

def test_runs_as_a_module_from_a_checkout():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "arbogru", "params", "--dim", "4",
                          "--vocab", "10"], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("tensor")


def test_params_treegru_reference(capsys):
    assert main(["params", "--variant", "treegru"]) == 0
    out = capsys.readouterr().out
    assert "7323005" in out
    assert "matches the reference total exactly" in out


def test_params_treegru_attention_reference(capsys):
    assert main(["params", "--variant", "treegru", "--attention"]) == 0
    out = capsys.readouterr().out
    assert "7413605" in out
    assert "matches the reference total exactly" in out


def test_params_treebigru_reports_discrepancy(capsys):
    assert main(["params", "--variant", "treebigru"]) == 0
    out = capsys.readouterr().out
    assert "7865405" in out         # computed total
    assert "8135405" in out         # reference total
    assert "270000" in out          # documented gap
    assert "input-term" in out


def test_params_treebigru_attention_reports_discrepancy(capsys):
    assert main(["params", "--variant", "treebigru", "--attention"]) == 0
    out = capsys.readouterr().out
    assert "8049010" in out
    assert "8317810" in out
    assert "268800" in out
    assert "270000" in out
    assert "by 268800; 3*d^2 = 270000" in out and "leaves 1200 unexplained" in out


def test_params_itemizes_tensors(capsys):
    main(["params", "--variant", "treegru", "--dim", "2", "--vocab", "3",
          "--classes", "2"])
    out = capsys.readouterr().out
    assert "emb" in out and "U_z" in out and "W_s" in out
    assert out.strip().splitlines()[-1].split()[-1] == "54"


def test_params_rejects_bad_dims(capsys):
    assert main(["params", "--dim", "0"]) == 2


def test_params_has_no_children_option(capsys):
    # the audit is of the binary-branching model that train builds
    assert main(["params", "--children", "3"]) == 2
    assert "--children" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes(capsys):
    code = main(["gradcheck", "--variant", "treegru", "--dim", "6",
                 "--seed", "7", "--trees", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS max_rel_err=")


def test_gradcheck_attention_bigru(capsys):
    code = main(["gradcheck", "--variant", "treebigru", "--attention",
                 "--dim", "6", "--seed", "7", "--trees", "1"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("variant", ["treegru", "treebigru"])
def test_gradcheck_linear_norm_on_a_forest(variant, capsys):
    code = main(["gradcheck", "--variant", variant, "--attention",
                 "--attention-norm", "linear", "--dim", "4", "--seed", "2",
                 "--trees", "4"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_gradcheck_rejects_dim_zero():
    assert main(["gradcheck", "--dim", "0"]) == 2


# ---------------------------------------------------------------------------
# train

def test_train_writes_artifacts(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(data_dir, out)) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "vocab.txt").exists()
    assert (out / "manifest.json").exists()
    assert (out / "train.log").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["epochs"] == 2
    assert manifest["learning_rate"] == 0.01
    assert manifest["coverage"] == 0.0
    assert manifest["max_children"] == 2
    log_lines = (out / "train.log").read_text().strip().splitlines()
    assert all(len(line.split("\t")) == 5 for line in log_lines)
    assert "best dev root accuracy" in capsys.readouterr().out


def test_train_seeded_runs_identical(data_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(train_args(data_dir, out1)) == 0
    assert main(train_args(data_dir, out2)) == 0
    assert (out1 / "checkpoint.bin").read_bytes() == \
        (out2 / "checkpoint.bin").read_bytes()
    strip = lambda text: ["\t".join(l.split("\t")[:4])
                          for l in text.strip().splitlines()]
    assert strip((out1 / "train.log").read_text()) == \
        strip((out2 / "train.log").read_text())


def test_train_with_glove_coverage(data_dir, tmp_path):
    glove = tmp_path / "glove.txt"
    glove.write_text("good " + " ".join(["0.1"] * 6) + "\n"
                     "movie " + " ".join(["0.2"] * 6) + "\n")
    out = tmp_path / "run"
    assert main(train_args(data_dir, out, glove=glove)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["coverage"] > 0.0


def test_train_ignores_a_malformed_test_split(data_dir, tmp_path, capsys):
    (data_dir / "test.txt").write_text("(0 broken\n")
    assert main(train_args(data_dir, tmp_path / "run")) == 0
    assert "best dev root accuracy" in capsys.readouterr().out


def test_train_missing_data_dir(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")]) == 2


def test_train_rejects_dim_zero(data_dir, tmp_path):
    assert main(train_args(data_dir, tmp_path / "out", dim=0)) == 2


@pytest.mark.parametrize("value", [0, -3])
def test_train_rejects_evals_per_epoch_below_one(data_dir, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert main(train_args(data_dir, out, evals_per_epoch=value)) == 2
    assert "--evals-per-epoch must be at least 1" in capsys.readouterr().err
    assert not (out / "train.log").exists()


def test_train_binary_task(data_dir, tmp_path):
    out = tmp_path / "runb"
    assert main(train_args(data_dir, out, task="binary")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["classes"] == 2


@pytest.mark.parametrize("split", ["train", "dev"])
@pytest.mark.parametrize("task", ["fine", "binary"])
def test_train_rejects_an_empty_split_before_training(data_dir, tmp_path, capsys,
                                                      split, task):
    path = data_dir / f"{split}.txt"
    if task == "fine":
        path.write_text("\n")
    else:  # only neutral roots, which the binary task drops
        path.write_text("(2 (3 good) (1 bad))\n(2 movie)\n")
    out = tmp_path / "run"
    assert main(train_args(data_dir, out, task=task)) == 2
    err = capsys.readouterr().err
    assert f"treebank file {path} holds no sentence" in err
    assert ("non-neutral root" in err) == (task == "binary")
    assert not (out / "train.log").exists()


def test_train_names_a_line_that_is_not_utf8(data_dir, tmp_path, capsys):
    path = data_dir / "train.txt"
    path.write_bytes(path.read_bytes() + b"(2 caf\xe9)\n")
    assert main(train_args(data_dir, tmp_path / "run")) == 2
    assert f"{path}, line 13: not UTF-8 text" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

@pytest.fixture
def trained(data_dir, tmp_path):
    out = tmp_path / "trained"
    assert main(train_args(data_dir, out)) == 0
    return out


@pytest.mark.parametrize("task", ["fine", "binary"])
def test_eval_rejects_an_empty_split_naming_it(data_dir, tmp_path, capsys, task):
    out = tmp_path / task
    assert main(train_args(data_dir, out, task=task)) == 0
    path = data_dir / "test.txt"
    if task == "fine":
        path.write_text("\n")
    else:  # only neutral roots, which the binary task drops
        path.write_text("(2 (3 good) (1 bad))\n(2 movie)\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(data_dir)]) == 2
    err = capsys.readouterr().err
    assert f"treebank file {path} holds no sentence" in err
    assert ("non-neutral root" in err) == (task == "binary")


def test_eval_prints_metrics(trained, data_dir, capsys):
    code = main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--data", str(data_dir), "--split", "test"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("root_accuracy 0.")
    assert lines[1].startswith("node_accuracy 0.")
    assert len(lines[0].split()[1].split(".")[1]) == 4  # four decimals


def test_eval_dev_matches_manifest_best(trained, data_dir, capsys):
    manifest = json.loads((trained / "manifest.json").read_text())
    code = main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--data", str(data_dir), "--split", "dev"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"root_accuracy {manifest['best_dev_accuracy']:.4f}" in out


def test_eval_deterministic(trained, data_dir, capsys):
    args = ["eval", "--checkpoint", str(trained / "checkpoint.bin"),
            "--data", str(data_dir), "--split", "dev"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_eval_binary_model_without_task(data_dir, tmp_path, capsys):
    # the task follows from the checkpoint's class count
    out = tmp_path / "binary"
    assert main(train_args(data_dir, out, task="binary")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(data_dir), "--split", "dev"])
    assert code == 0
    assert f"root_accuracy {manifest['best_dev_accuracy']:.4f}" in capsys.readouterr().out


def test_eval_rejects_unsupported_class_count(data_dir, tmp_path, capsys):
    from arbogru.checkpoint import save_checkpoint
    from arbogru.embeddings import save_vocab
    from arbogru.model import init_params
    from conftest import synth_vocab

    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 3, 2, np.random.default_rng(0))
    out = tmp_path / "three"
    out.mkdir()
    save_checkpoint(out / "checkpoint.bin", params)
    save_vocab(vocab, out / "vocab.txt")
    code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(data_dir), "--split", "dev"])
    assert code == 2
    assert "3 classes" in capsys.readouterr().err


def test_eval_corrupt_checkpoint(trained, data_dir, tmp_path, capsys):
    bad = trained / "broken.bin"
    bad.write_bytes(b"JUNKMAGIC" + b"\x00" * 64)
    code = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir)])
    assert code == 2
    assert "checkpoint format" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_non_finite_checkpoint_tensor_exits_2_naming_it(data_dir, tmp_path, capsys,
                                                       command, value):
    from arbogru.checkpoint import load_checkpoint, save_checkpoint

    out = tmp_path / "run"
    assert main(train_args(data_dir, out, variant="treebigru", attention=True)) == 0
    path = out / "checkpoint.bin"
    params = load_checkpoint(path)
    params.tensors["W_s_att"][1, 2] = value
    save_checkpoint(path, params)
    capsys.readouterr()
    source = ["--data", str(data_dir)] if command == "eval" else [
        "--input", str(data_dir / "test.txt")]
    assert main([command, "--checkpoint", str(path), *source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: tensor 'W_s_att' holds a non-finite value" in captured.err


@pytest.mark.parametrize("entry, value", [(1 << 16, np.nan), (-1, np.inf)])
def test_non_finite_entry_past_the_first_checked_slice_exits_2(trained, tmp_path, capsys,
                                                              entry, value):
    # d=257 gives U_z 66,049 entries, more than one slice of the check:
    # a NaN just past the first slice, or an infinity in the last entry
    from arbogru.checkpoint import FINITE_SLICE, save_checkpoint
    from arbogru.embeddings import load_vocab
    from arbogru.model import init_params

    out = tmp_path / "wide"
    out.mkdir()
    shutil.copy(trained / "vocab.txt", out / "vocab.txt")
    params = init_params("treegru", 257, load_vocab(out / "vocab.txt"), 5, 2,
                         np.random.default_rng(0))
    assert FINITE_SLICE == 1 << 16 < params.tensors["U_z"].size
    params.tensors["U_z"].reshape(-1)[entry] = value
    path = out / "checkpoint.bin"
    save_checkpoint(path, params)
    inp = tmp_path / "inp.txt"
    inp.write_text("(2 (2 good) (2 movie))\n")
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(path), "--input", str(inp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: tensor 'U_z' holds a non-finite value" in captured.err


# ---------------------------------------------------------------------------
# predict

def test_predict_outputs_distribution(trained, tmp_path, capsys):
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 (2 good) (2 movie))\n(0 great)\n")
    code = main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        fields = line.split("\t")
        assert fields[0] in "01234"
        probs = [float(x) for x in fields[1].split()]
        assert len(probs) == 5
        assert sum(probs) == pytest.approx(1.0, abs=5e-4)


def test_predict_binary_checkpoint_on_fine_labels(data_dir, tmp_path, capsys):
    # predict reads no labels: gold labels outside a 2-class model are no error
    out = tmp_path / "binary"
    assert main(train_args(data_dir, out, task="binary", attention=True, dim=8)) == 0
    capsys.readouterr()
    inp = data_dir / "test.txt"
    lines = inp.read_text().splitlines()
    assert any(parse_tree(line).label > 1 for line in lines)
    code = main(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                 "--input", str(inp)])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(printed) == len(lines)
    assert {row.split("\t")[0] for row in printed} <= {"0", "1"}


def test_predict_root_labels_agree_with_eval(trained, data_dir, capsys):
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--data", str(data_dir), "--split", "test"]) == 0
    accuracy = capsys.readouterr().out.splitlines()[0]
    inp = data_dir / "test.txt"
    assert main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp)]) == 0
    labels = [int(row.split("\t")[0]) for row in capsys.readouterr().out.splitlines()]
    gold = [parse_tree(line).label for line in inp.read_text().splitlines()]
    hits = sum(p == g for p, g in zip(labels, gold))
    assert accuracy == f"root_accuracy {hits / len(gold):.4f}"


def test_predict_handles_parse_errors(trained, tmp_path, capsys):
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 (2 good) (2 movie))\n(0 broken\n(0 fine)\n")
    code = main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.strip().splitlines()) == 2  # good lines still printed
    assert "line 2" in captured.err


def test_predict_names_a_line_that_is_not_utf8(trained, tmp_path, capsys):
    inp = tmp_path / "inp.txt"
    inp.write_bytes(b"(0 (2 good) (2 movie))\n(0 caf\xe9)\n")
    code = main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp)])
    assert code == 2
    assert f"{inp}, line 2: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("edit,fault", [
    (lambda words: words[:2] + [words[1]] + words[3:], "line 3: repeated word"),
    (lambda words: words[:2] + [""] + words[3:], "line 3: empty word"),
])
def test_predict_rejects_a_vocabulary_with_a_repeated_or_empty_word(
        trained, tmp_path, capsys, edit, fault):
    # the vocabulary keeps its size, so only the word check can catch it
    run = tmp_path / "run"
    run.mkdir()
    (run / "checkpoint.bin").write_bytes((trained / "checkpoint.bin").read_bytes())
    words = (trained / "vocab.txt").read_text(encoding="utf-8").splitlines()
    (run / "vocab.txt").write_text("\n".join(edit(words)) + "\n", encoding="utf-8")
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 (2 good) (2 movie))\n")
    code = main(["predict", "--checkpoint", str(run / "checkpoint.bin"),
                 "--input", str(inp)])
    assert code == 2
    assert f"{run / 'vocab.txt'}, {fault}" in capsys.readouterr().err


def test_predict_show_attention_requires_attention_model(trained, tmp_path, capsys):
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 great)\n")
    code = main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp), "--show-attention"])
    assert code == 2
    assert "attention" in capsys.readouterr().err


def test_predict_uses_trained_attention_norm(data_dir, tmp_path, capsys):
    from arbogru.autodiff import Tape
    from arbogru.checkpoint import load_checkpoint
    from arbogru.embeddings import load_vocab
    from arbogru.training import build_sentence_graph

    out = tmp_path / "linear"
    assert main(train_args(data_dir, out, attention=True,
                           attention_norm="linear")) == 0
    assert json.loads((out / "manifest.json").read_text())["attention_norm"] == "linear"
    capsys.readouterr()
    lines = (data_dir / "test.txt").read_text().splitlines()
    code = main(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                 "--input", str(data_dir / "test.txt"), "--show-attention"])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0

    params = load_checkpoint(out / "checkpoint.bin")
    vocab = load_vocab(out / "vocab.txt")

    def rows(norm):
        params.attention_norm = norm
        got = []
        for line in lines:
            tape = Tape()
            graph = build_sentence_graph(tape, parse_tree(line), params, vocab)
            got.append("\t".join([
                str(graph.preds.labels[0]),
                " ".join(f"{p:.4f}" for p in graph.preds.probs[0]),
                " ".join(f"{w:.4f}" for w in tape.value(graph.attn.weights))]))
        return got

    assert printed == rows("linear")
    assert printed != rows("softmax")


def test_predict_show_attention_weights(data_dir, tmp_path, capsys):
    out = tmp_path / "att_run"
    assert main(train_args(data_dir, out, attention=True)) == 0
    capsys.readouterr()
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 (2 good) (2 movie))\n")
    code = main(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                 "--input", str(inp), "--show-attention"])
    captured = capsys.readouterr().out
    assert code == 0
    fields = captured.strip().split("\t")
    weights = [float(x) for x in fields[2].split()]
    assert len(weights) == 3  # one per node
    assert sum(weights) == pytest.approx(1.0, abs=5e-4)


WIDE_LINE = "(2 (2 a) (2 b) (2 c))"


@pytest.mark.parametrize("split", ["train", "dev"])
def test_train_rejects_wide_node_before_training(data_dir, tmp_path, capsys, split):
    path = data_dir / f"{split}.txt"
    path.write_text(path.read_text() + "\n" + WIDE_LINE + "\n")
    line = len(path.read_text().splitlines())
    out = tmp_path / "run"
    assert main(train_args(data_dir, out)) == 2
    err = capsys.readouterr().err
    assert f"{path}, line {line}: node arity 3 exceeds K=2" in err
    assert not (out / "train.log").exists()  # no batch ran


def test_eval_rejects_wide_node_naming_its_line(trained, data_dir, capsys):
    path = data_dir / "test.txt"
    path.write_text(WIDE_LINE + "\n" + path.read_text())
    code = main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--data", str(data_dir)])
    assert code == 2
    assert f"{path}, line 1: node arity 3 exceeds K=2" in capsys.readouterr().err


def test_interrupted_artifact_write_keeps_previous_file(data_dir, tmp_path,
                                                        monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(train_args(data_dir, out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_save_vocab(vocab, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("half a vocab")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "save_vocab", failing_save_vocab)
    assert main(train_args(data_dir, out, seed=4)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no temp file
    assert (out / "vocab.txt").read_bytes() == before["vocab.txt"]
    assert (out / "manifest.json").read_bytes() == before["manifest.json"]


def test_each_artifact_reaches_the_disk_before_it_replaces_the_old(data_dir, tmp_path,
                                                                   monkeypatch):
    # the temporary file is synced right before its rename, and the
    # directory right after it, once per artifact
    out = tmp_path / "run"
    out.mkdir()
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    assert main(train_args(data_dir, out)) == 0
    directory = ("fsync", out.stat().st_ino)
    renamed = [event for event in events if event[0] == "replace"]
    assert [name for _, _, name in renamed] == ["checkpoint.bin", "vocab.txt",
                                                "manifest.json"]
    assert events == [step for _, inode, name in renamed
                      for step in (("fsync", inode), ("replace", inode, name), directory)]


# ---------------------------------------------------------------------------
# misc

def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_help_lists_defaults(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    for fragment in ("--lr", "0.01", "--batch", "25", "--epochs", "40",
                     "--l2", "0.0001", "--dropout", "0.5", "--dim", "300",
                     "--seed", "--precision", "--attention-norm"):
        assert fragment in out


@pytest.mark.parametrize("command,absent", [
    ("train", ("--threads",)),
    ("eval", ("--threads", "--task", "--attention-norm")),
    ("predict", ("--attention-norm",)),
    ("params", ("--attention-norm", "--children")),
])
def test_help_omits_settings_read_from_the_checkpoint_or_machine(command, absent,
                                                                capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for flag in absent:
        assert flag not in out


def test_bigru_attention_end_to_end(data_dir, tmp_path, capsys):
    out = tmp_path / "bigru"
    args = train_args(data_dir, out, variant="treebigru", attention=True,
                      epochs=1)
    assert main(args) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--data", str(data_dir), "--split", "test"])
    assert code == 0
    assert "root_accuracy" in capsys.readouterr().out


def test_predict_uniform_distribution_with_zero_classifier(tmp_path, capsys):
    # a checkpoint whose classifier is all zeros yields the uniform
    # distribution and class 0 by tie-break
    import numpy as np
    from arbogru.checkpoint import save_checkpoint
    from arbogru.embeddings import save_vocab
    from arbogru.model import init_params
    from conftest import synth_vocab

    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0))
    params.tensors["W_s"][:] = 0.0
    out = tmp_path / "zero"
    out.mkdir()
    save_checkpoint(out / "checkpoint.bin", params)
    save_vocab(vocab, out / "vocab.txt")
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 hello)\n")
    code = main(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                 "--input", str(inp)])
    captured = capsys.readouterr().out.strip()
    assert code == 0
    label, dist = captured.split("\t")
    assert label == "0"
    assert dist.split() == ["0.2000"] * 5


def test_log_env_var_accepted(data_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ARBO_LOG", "INFO")
    assert main(["params", "--variant", "treegru", "--dim", "2",
                 "--vocab", "3", "--classes", "2"]) == 0
    monkeypatch.setenv("ARBO_LOG", "not-a-level")
    assert main(["params", "--variant", "treegru", "--dim", "2",
                 "--vocab", "3", "--classes", "2"]) == 0


def test_train_float32_precision(data_dir, tmp_path):
    out = tmp_path / "f32run"
    assert main(train_args(data_dir, out, precision="f32", epochs=1)) == 0
    from arbogru.checkpoint import load_checkpoint
    import numpy as np
    params = load_checkpoint(out / "checkpoint.bin")
    assert params.tensors["emb"].dtype == np.float32


def test_predict_linear_norm_degenerate_scores_exit_1(tmp_path, capsys):
    # u_w = 0 makes every raw score 0; linear normalization cannot divide
    import numpy as np
    from arbogru.checkpoint import save_checkpoint
    from arbogru.embeddings import save_vocab
    from arbogru.model import init_params
    from conftest import synth_vocab

    vocab = synth_vocab()
    params = init_params("treegru", 4, vocab, 5, 2, np.random.default_rng(0),
                         attention=True, attention_norm="linear")
    params.tensors["u_w"][:] = 0.0
    out = tmp_path / "degenerate"
    out.mkdir()
    save_checkpoint(out / "checkpoint.bin", params)
    save_vocab(vocab, out / "vocab.txt")
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 (2 good) (2 movie))\n")
    code = main(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                 "--input", str(inp)])
    assert code == 1
    assert "linear_norm" in capsys.readouterr().err


def save_model(out, variant="treegru", attention=False, seed=0):
    """A small random checkpoint and its vocabulary, as `train` leaves them."""
    from arbogru.checkpoint import save_checkpoint
    from arbogru.embeddings import save_vocab
    from conftest import random_params, synth_vocab

    vocab = synth_vocab()
    out.mkdir()
    save_checkpoint(out / "checkpoint.bin",
                    random_params(variant, attention, 4, vocab, seed=seed))
    save_vocab(vocab, out / "vocab.txt")
    return out / "checkpoint.bin"


def test_predict_deep_chain(tmp_path, capsys):
    # far deeper than the interpreter's recursion limit
    ckpt = save_model(tmp_path / "bigru", "treebigru", attention=True)
    inp = tmp_path / "inp.txt"
    inp.write_text("(2 " * 5000 + "(4 good)" + ")" * 5000 + "\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                 "--show-attention"])
    out = capsys.readouterr().out.strip().split("\t")
    assert code == 0
    assert len(out[2].split()) == 5001


def one_tree_rows(params, vocab, lines, show_attention=False):
    """What predict prints for ``lines``, scoring one tree per tape."""
    from arbogru.autodiff import Tape
    from arbogru.training import build_sentence_graph

    rows = []
    for line in lines:
        tape = Tape()
        graph = build_sentence_graph(tape, parse_tree(line), params, vocab)
        fields = [str(graph.preds.labels[0]),
                  " ".join(f"{p:.4f}" for p in graph.preds.probs[0])]
        if show_attention:
            fields.append(" ".join(f"{w:.4f}" for w in tape.value(graph.attn.weights)))
        rows.append("\t".join(fields))
    return rows


def test_predict_reports_a_bad_line_inside_a_chunk(tmp_path, capsys):
    # 40 lines span two forests; line 20 sits inside the first one
    from arbogru.checkpoint import load_checkpoint
    from arbogru.embeddings import load_vocab

    ckpt = save_model(tmp_path / "model", "treebigru", attention=True)
    good = [serialize_tree(t) for t in synth_corpus(39, seed=6, max_nodes=11).trees]
    lines = good[:19] + ["(0 (2 good) (2 bad) (2 movie))"] + good[19:]
    inp = tmp_path / "inp.txt"
    inp.write_text("\n".join(lines) + "\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                 "--show-attention"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("line 20: ") and "arity 3" in captured.err
    printed = captured.out.splitlines()
    params, vocab = load_checkpoint(ckpt), load_vocab(ckpt.parent / "vocab.txt")
    assert printed == one_tree_rows(params, vocab, good, show_attention=True)
    for row, line in zip(printed, good):
        weights = [float(w) for w in row.split("\t")[2].split()]
        assert len(weights) == line.count("(")  # one per node
        assert sum(weights) == pytest.approx(1.0, abs=1e-3)


def test_predict_reports_and_skips_wide_nodes(tmp_path, capsys):
    ckpt = save_model(tmp_path / "model")
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 (2 good) (2 bad) (2 movie))\n(0 (2 good) (2 movie))\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.strip().splitlines()) == 1  # the valid line still printed
    assert "line 1" in captured.err and "arity 3" in captured.err


def test_predict_incomplete_manifest_exits_2(tmp_path, capsys):
    ckpt = save_model(tmp_path / "model")
    ckpt.write_bytes(b'ARBOCKPT1\n{"format_version": 2, "attention_norm": "softmax"}\n')
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 good)\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])
    assert code == 2
    assert "lacks the key 'variant'" in capsys.readouterr().err


def test_predict_tensor_larger_than_the_file_exits_2(tmp_path, capsys):
    # the manifest declares 2.4e14 bytes (above 2**47) for emb: the load
    # must stop at the declaration instead of trying to allocate them
    ckpt = save_model(tmp_path / "model")
    magic, manifest, body = ckpt.read_bytes().split(b"\n", 2)
    header = json.loads(manifest)
    assert header["tensors"][0][0] == "emb"
    header["tensors"][0][1] = [10**13, 3]
    ckpt.write_bytes(b"\n".join([magic, json.dumps(header).encode(), body]))
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 good)\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin" in err and "truncated tensor 'emb'" in err


def test_train_rejects_non_finite_glove(data_dir, tmp_path, capsys):
    from conftest import WORDS

    glove = tmp_path / "glove.txt"
    glove.write_text("".join(f"{word} 0.1 0.2 nan 0.4 0.5 0.6\n" for word in WORDS))
    code = main(train_args(data_dir, tmp_path / "run", glove=glove))
    assert code == 2
    assert "glove.txt, line" in capsys.readouterr().err


def edit_manifest(change):
    """A file edit that passes ``change`` the parsed manifest to alter in place."""
    def edit(ckpt):
        magic, manifest, body = ckpt.read_bytes().split(b"\n", 2)
        header = json.loads(manifest)
        change(header)
        ckpt.write_bytes(b"\n".join([magic, json.dumps(header).encode(), body]))
    return edit


def shorten_vocab(ckpt):
    vocab = ckpt.parent / "vocab.txt"
    words = vocab.read_text(encoding="utf-8").splitlines()
    vocab.write_text("\n".join(words[:-1]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("edit,fault", [
    (lambda ckpt: ckpt.write_bytes(ckpt.read_bytes().replace(b'{"format', b'{format', 1)),
     "{ckpt}: unreadable manifest"),
    (edit_manifest(lambda h: h["tensors"][0].__setitem__(2, "<i4")),
     "{ckpt}: unknown element type '<i4'"),
    (lambda ckpt: ckpt.write_bytes(ckpt.read_bytes() + b"\0" * 8),
     "{ckpt}: trailing bytes after last tensor"),
    (edit_manifest(lambda h: h.update(variant="treebigru")),
     "{ckpt}: tensor set does not match the declared variant"),
    (edit_manifest(lambda h: h.update(variant="lstm")),
     "{ckpt}: unknown variant 'lstm'"),
    (edit_manifest(lambda h: h["tensors"][0][1].__setitem__(0, 18.7)),
     "{ckpt}: malformed tensor entry"),
    (edit_manifest(lambda h: h.update(max_children=3)),
     "{ckpt}: max_children 3 is not K=2"),
    (lambda ckpt: (ckpt.parent / "vocab.txt").unlink(),
     "missing vocabulary file {vocab}"),
    (shorten_vocab,
     "{vocab}: vocabulary size 18 does not match checkpoint {ckpt} (19)"),
], ids=["not-json", "int32", "trailing-bytes", "other-variant", "unknown-variant",
        "float-dimension", "wide-k", "no-vocab", "short-vocab"])
def test_predict_names_the_file_of_a_load_fault(tmp_path, capsys, edit, fault):
    ckpt = save_model(tmp_path / "model")
    edit(ckpt)
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 good)\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])
    assert code == 2
    want = "error: " + fault.format(ckpt=ckpt, vocab=ckpt.parent / "vocab.txt")
    assert capsys.readouterr().err.startswith(want)


def test_predict_keeps_line_numbers_across_a_blank_line(tmp_path, capsys):
    ckpt = save_model(tmp_path / "model")
    inp = tmp_path / "inp.txt"
    inp.write_text("(0 good)\n\n(0 broken\n(0 (2 good) (2 bad) (2 movie))\n(0 fine)\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.splitlines()) == 2
    errors = captured.err.splitlines()
    assert [line.split(":")[0] for line in errors] == ["line 3", "line 4"], errors
