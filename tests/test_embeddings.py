import numpy as np
import pytest

from arbogru.embeddings import (OOV_RANGE, UNK_ID, UNK_TOKEN, EmbeddingError,
                                build_vocab, load_glove, load_vocab,
                                random_embeddings, save_vocab)
from arbogru.treebank import Corpus, parse_tree


def corpus_of(*lines):
    return Corpus([parse_tree(s) for s in lines], "train", "fine", 5)


def test_build_vocab_single_tree():
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    assert vocab.size == 3
    assert vocab.id_to_word[UNK_ID] == UNK_TOKEN
    assert set(vocab.id_to_word) == {UNK_TOKEN, "good", "movie"}


def test_build_vocab_first_occurrence_order():
    vocab = build_vocab(corpus_of("(3 (2 zeta) (2 alpha))", "(2 (2 alpha) (2 beta))"))
    assert vocab.id_to_word == [UNK_TOKEN, "zeta", "alpha", "beta"]


def test_build_vocab_case_sensitive():
    vocab = build_vocab(corpus_of("(3 (2 Good) (2 good))"))
    assert vocab.size == 3


def test_build_vocab_deterministic():
    corpus = corpus_of("(3 (2 good) (2 movie))", "(1 (1 bad) (2 plot))")
    assert build_vocab(corpus) == build_vocab(corpus)


def test_build_vocab_rejects_empty():
    with pytest.raises(ValueError):
        build_vocab(Corpus([], "train", "fine", 5))


def test_lookup_exact_then_lower_then_unk():
    vocab = build_vocab(corpus_of("(3 (2 Good) (2 movie))"))
    assert vocab.lookup("Good") == vocab.word_to_id["Good"]
    assert vocab.lookup("Movie") == vocab.word_to_id["movie"]
    assert vocab.lookup("unseen") == UNK_ID


def test_vocab_roundtrip(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    save_vocab(vocab, tmp_path / "vocab.txt")
    again = load_vocab(tmp_path / "vocab.txt")
    assert again == vocab


def test_load_vocab_rejects_garbage(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("definitely\nnot\na\nvocab\n")
    with pytest.raises(EmbeddingError):
        load_vocab(path)


def glove_file(tmp_path, rows, dim):
    path = tmp_path / "vectors.txt"
    with open(path, "w") as handle:
        for word, vec in rows:
            handle.write(word + " " + " ".join(str(v) for v in vec) + "\n")
    return path


def test_load_glove_copies_found_rows(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = glove_file(tmp_path, [("good", [1.0, 2.0, 3.0]),
                                 ("irrelevant", [9.0, 9.0, 9.0])], 3)
    emb = load_glove(path, vocab, 3, np.random.default_rng(0))
    assert np.array_equal(emb.vectors[vocab.word_to_id["good"]], [1.0, 2.0, 3.0])
    assert emb.coverage == pytest.approx(1 / 3)
    # missing rows live in the uniform init range
    missing = emb.vectors[vocab.word_to_id["movie"]]
    assert np.all(np.abs(missing) <= OOV_RANGE)
    assert np.all(np.abs(emb.vectors[UNK_ID]) <= OOV_RANGE)


def test_load_glove_lowercase_fallback(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 Good) (2 movie))"))
    path = glove_file(tmp_path, [("good", [1.0, 1.0])], 2)
    emb = load_glove(path, vocab, 2, np.random.default_rng(0))
    assert np.array_equal(emb.vectors[vocab.word_to_id["Good"]], [1.0, 1.0])
    assert emb.coverage == pytest.approx(1 / 3)


def test_load_glove_dimension_mismatch_names_line(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "vectors.txt"
    path.write_text("good 1.0 2.0 3.0\nmovie 1.0 2.0\n")
    with pytest.raises(EmbeddingError, match="line 2"):
        load_glove(path, vocab, 3, np.random.default_rng(0))


def test_load_glove_empty_file(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "vectors.txt"
    path.write_text("")
    emb = load_glove(path, vocab, 4, np.random.default_rng(0))
    assert emb.coverage == 0.0
    assert np.all(np.abs(emb.vectors) <= OOV_RANGE)
    assert emb.vectors.shape == (3, 4)


def test_load_glove_full_cover_zero_vectors(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    rows = [(word, [0.0, 0.0]) for word in vocab.id_to_word]
    path = glove_file(tmp_path, rows, 2)
    emb = load_glove(path, vocab, 2, np.random.default_rng(0))
    assert emb.coverage == 1.0
    assert np.all(emb.vectors == 0.0)


def test_load_glove_seeded_reproducible(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))", "(2 (2 the) (2 plot))"))
    path = glove_file(tmp_path, [("good", [0.5, -0.5])], 2)
    one = load_glove(path, vocab, 2, np.random.default_rng(9))
    two = load_glove(path, vocab, 2, np.random.default_rng(9))
    assert np.array_equal(one.vectors, two.vectors)
    assert one.coverage == two.coverage


def test_random_embeddings_shape_and_coverage():
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    emb = random_embeddings(vocab, 5, np.random.default_rng(1))
    assert emb.vectors.shape == (3, 5)
    assert emb.coverage == 0.0
    assert np.all(np.isfinite(emb.vectors))


def test_coverage_invariant_to_vocab_order(tmp_path):
    # same word set, different id order -> same coverage
    a = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    b = build_vocab(corpus_of("(3 (2 movie) (2 good))"))
    path = glove_file(tmp_path, [("good", [1.0, 1.0])], 2)
    cov_a = load_glove(path, a, 2, np.random.default_rng(0)).coverage
    cov_b = load_glove(path, b, 2, np.random.default_rng(0)).coverage
    assert cov_a == cov_b


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_load_glove_rejects_non_finite_values(tmp_path, value):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text(f"good 0.1 0.2\nmovie 0.3 {value}\n")
    with pytest.raises(EmbeddingError, match="glove.txt, line 2: non-finite"):
        load_glove(path, vocab, 2, np.random.default_rng(0))


def test_load_glove_non_numeric_value_names_line(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("movie 0.1 0.2 0.3 0.4\ngood 0.1 abc 0.3 0.4\n")
    with pytest.raises(EmbeddingError, match=r"glove.txt, line 2: .*'abc'"):
        load_glove(path, vocab, 4, np.random.default_rng(0))


def test_load_glove_float32_overflow_is_non_finite(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("good 0.1 1e39\n")
    assert np.isfinite(load_glove(path, vocab, 2, np.random.default_rng(0)).vectors).all()
    with pytest.raises(EmbeddingError, match="line 1"):
        load_glove(path, vocab, 2, np.random.default_rng(0), np.float32)
