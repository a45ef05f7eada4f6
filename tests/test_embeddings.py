import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbogru import embeddings
from arbogru.embeddings import (OOV_RANGE, UNK_ID, UNK_TOKEN, EmbeddingError,
                                Vocabulary, build_vocab, load_glove, load_vocab,
                                random_embeddings, save_vocab)
from arbogru.treebank import Corpus, parse_tree

import oracles


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


@pytest.mark.parametrize("text", ["<unk>\ngood\nmovie\n", "<unk>\ngood\nmovie",
                                  "<unk>\r\ngood\r\nmovie\r\n"])
def test_load_vocab_reads_one_word_a_line(tmp_path, text):
    # the last newline is optional, and a text file's line ends are read
    # as newlines
    path = tmp_path / "vocab.txt"
    path.write_bytes(text.encode("utf-8"))
    assert load_vocab(path).id_to_word == ["<unk>", "good", "movie"]


@pytest.mark.parametrize("text", ["", "\n", "good\n<unk>\n"])
def test_load_vocab_rejects_a_file_without_unk_first(tmp_path, text):
    path = tmp_path / "vocab.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingError, match=f"^{path}: not a vocabulary file$"):
        load_vocab(path)


def test_load_vocab_rejects_garbage(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("definitely\nnot\na\nvocab\n")
    with pytest.raises(EmbeddingError):
        load_vocab(path)


@pytest.mark.parametrize("text,fault", [
    ("<unk>\ngood\nmovie\ngood\n", "line 4: repeated word 'good'"),
    ("<unk>\ngood\n\nmovie\n", "line 3: empty word"),
    ("<unk>\ngood\n<unk>\n", "line 3: repeated word '<unk>'"),
])
def test_load_vocab_rejects_a_repeated_or_empty_word(tmp_path, text, fault):
    # neither can come from build_vocab; either would silently remap a word
    path = tmp_path / "vocab.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingError, match=f"^{path}, {fault}$"):
        load_vocab(path)


def test_load_vocab_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"<unk>\ngood\ncaf\xe9\n")
    with pytest.raises(EmbeddingError, match=f"^{path}, line 3: not UTF-8 text$"):
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


def test_load_glove_names_a_line_that_is_not_utf8(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"other 1 2\n" * 3000 + b"caf\xe9 1 2\ngood 1 2\n")
    with pytest.raises(EmbeddingError, match=f"^{path}, line 3001: not UTF-8 text$"):
        load_glove(path, vocab, 2, np.random.default_rng(0))


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


# ---------------------------------------------------------------------------
# the block parser against the line-by-line reference (oracles.load_glove)

def load_both(path, vocab, dim, dtype=np.float64, seed=7):
    """Each loader's result (or error text) and its generator state after."""
    outcomes = []
    for load in (load_glove, oracles.load_glove):
        rng = np.random.default_rng(seed)
        try:
            result = load(path, vocab, dim, rng, dtype)
        except EmbeddingError as err:
            result = str(err)
        outcomes.append((result, rng.bit_generator.state))
    return outcomes


def assert_same_load(path, vocab, dim, dtype=np.float64):
    (new, new_state), (ref, ref_state) = load_both(path, vocab, dim, dtype)
    if isinstance(ref, str):
        assert new == ref
        return ref
    assert not isinstance(new, str), new
    assert new.vectors.dtype == ref.vectors.dtype
    assert new.vectors.tobytes() == ref.vectors.tobytes()
    assert new.coverage == ref.coverage
    assert new_state == ref_state
    return new


def test_load_glove_first_occurrence_and_exact_match_win(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 Good) (2 Movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("movie 1 1\nGood 2 2\ngood 3 3\nMovie 4 4\nGood 5 5\nMovie 6 6\n")
    emb = assert_same_load(path, vocab, 2)
    assert np.array_equal(emb.vectors[vocab.word_to_id["Good"]], [2.0, 2.0])
    assert np.array_equal(emb.vectors[vocab.word_to_id["Movie"]], [4.0, 4.0])


def test_load_glove_reads_what_float_reads(tmp_path):
    # numpy's parser rejects "1_0"; the block falls back to float()
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("good 1_0 +2.5e-3\r\nmovie \t4 5\r\n")
    emb = assert_same_load(path, vocab, 2)
    assert np.array_equal(emb.vectors[vocab.word_to_id["good"]], [10.0, 2.5e-3])


def test_load_glove_reports_a_kept_line_before_a_count_error(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("other x y\ngood 0.1 abc\nmovie 1 2 3\n")
    with pytest.raises(EmbeddingError, match=r"line 2: .*'abc'"):
        load_glove(path, vocab, 2, np.random.default_rng(0))


@pytest.mark.parametrize("text, found", [("good\n", 0), ("good 1 2 3\n", 3), ("good 1\n", 1)])
def test_load_glove_counts_the_values_of_a_wanted_line(tmp_path, text, found):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("movie 1 2\n" + text)
    assert_same_load(path, vocab, 2)
    with pytest.raises(EmbeddingError, match=f"line 2: expected 2 values, found {found}$"):
        load_glove(path, vocab, 2, np.random.default_rng(0))


def test_load_glove_checks_unused_kept_lines(tmp_path):
    # "good" is kept for Good's lowercase fallback, then Good matches exactly
    vocab = build_vocab(corpus_of("(3 (2 Good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("good 1 inf\nGood 1 2\n")
    with pytest.raises(EmbeddingError, match="line 1: non-finite"):
        load_glove(path, vocab, 2, np.random.default_rng(0))


def test_load_glove_rejects_a_dimension_below_one(tmp_path):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text("good\n")
    with pytest.raises(ValueError, match="dim must be positive"):
        load_glove(path, vocab, 0, np.random.default_rng(0))


@pytest.mark.parametrize("text", ["", "\n\n", "other 1 2\nelse x y\n"])
def test_load_glove_without_kept_lines_parses_nothing(tmp_path, text):
    vocab = build_vocab(corpus_of("(3 (2 good) (2 movie))"))
    path = tmp_path / "glove.txt"
    path.write_text(text)
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed")):
        emb = load_glove(path, vocab, 2, np.random.default_rng(0))
    assert emb.coverage == 0.0


POOL = ["good", "Good", "GOOD", "the", "The", "x"]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"[+-]?[0-9]{1,3}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,3})?", fullmatch=True))
ODD_VALUES = st.sampled_from(["1_0", "nan", "-Infinity", "1e400", "1e39", "4.9e-324",
                              "abc", "", "1,0", "0x1p3", "\u0663"])


@st.composite
def glove_files(draw):
    """A vocabulary, a dimension and GloVe text: duplicate words and case
    variants, blank lines, LF or CRLF endings, and now and then a value
    only float() reads, a non-finite or unparsable value, or a line with
    the wrong field count."""
    dim = draw(st.integers(1, 3))
    words = [UNK_TOKEN] + draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6,
                                        unique=True))
    vocab = Vocabulary({w: i for i, w in enumerate(words)}, words)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            lines.append("")
            continue
        count = dim + draw(st.sampled_from([-1, 1])) if kind == 1 else dim
        values = [draw(ODD_VALUES if draw(st.integers(0, 7)) == 0 else NUMBERS)
                  for _ in range(count)]
        lines.append(" ".join([draw(st.sampled_from(POOL + ["zebra"])), *values]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return vocab, dim, ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(glove_files(), st.sampled_from([np.float64, np.float32]), st.sampled_from([1, 2, 4096]))
def test_load_glove_matches_line_by_line_reference(case, dtype, block):
    vocab, dim, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "glove.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(embeddings, "PARSE_BLOCK", block):
            assert_same_load(path, vocab, dim, dtype)
