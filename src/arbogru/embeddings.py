"""Vocabulary construction and pretrained word-vector ingestion.

The vocabulary is built from the training split's leaf tokens in
first-occurrence order, with a reserved unknown-word entry at id 0.
Pretrained vectors come from a GloVe-format text file (space separated,
no header); words missing from the file are drawn uniformly from
[-0.05, 0.05] so untrained rows stay small next to GloVe magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .treebank import Corpus, open_text

UNK_TOKEN = "<unk>"
UNK_ID = 0
OOV_RANGE = 0.05
PARSE_BLOCK = 4096  # kept GloVe lines parsed per np.loadtxt call


class EmbeddingError(ValueError):
    pass


@dataclass
class Vocabulary:
    word_to_id: dict[str, int]
    id_to_word: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def lookup(self, word: str) -> int:
        """Exact match, then lowercase, then the unknown id. Never fails."""
        idx = self.word_to_id.get(word)
        if idx is not None:
            return idx
        idx = self.word_to_id.get(word.lower())
        if idx is not None:
            return idx
        return UNK_ID


@dataclass
class EmbeddingMatrix:
    vectors: np.ndarray  # (V, d)
    coverage: float      # fraction of vocabulary found in the pretrained file


def build_vocab(corpus: Corpus) -> Vocabulary:
    """Distinct leaf tokens of ``corpus`` in first-occurrence order, plus UNK."""
    forest = corpus.trees
    if not len(forest):
        raise ValueError("cannot build a vocabulary from an empty corpus")
    leaf_words = forest.words[forest.words >= 0]
    distinct, first = np.unique(leaf_words, return_index=True)
    words = forest.lexicon
    id_to_word = [UNK_TOKEN]
    id_to_word += [words[w] for w in distinct[np.argsort(first)].tolist()
                   if words[w] != UNK_TOKEN]
    return Vocabulary({word: i for i, word in enumerate(id_to_word)}, id_to_word)


def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word in vocab.id_to_word:
            handle.write(word + "\n")


def load_vocab(path) -> Vocabulary:
    """``save_vocab``'s file; EmbeddingError names an empty or repeated word."""
    with open_text(path, EmbeddingError) as handle:
        id_to_word = handle.read().split("\n")
    if id_to_word[-1] == "":  # the last line's newline, or an empty file
        id_to_word.pop()
    if not id_to_word or id_to_word[UNK_ID] != UNK_TOKEN:
        raise EmbeddingError(f"{path}: not a vocabulary file")
    word_to_id = {word: i for i, word in enumerate(id_to_word)}
    if len(word_to_id) < len(id_to_word) or "" in word_to_id:
        first = {word: i for i, word in reversed(list(enumerate(id_to_word)))}
        i = next(i for i, word in enumerate(id_to_word) if not word or first[word] < i)
        fault = f"repeated word {id_to_word[i]!r}" if id_to_word[i] else "empty word"
        raise EmbeddingError(f"{path}, line {i + 1}: {fault}")
    return Vocabulary(word_to_id, id_to_word)


def load_glove(path, vocab: Vocabulary, dim: int, rng,
               dtype=np.float64) -> EmbeddingMatrix:
    """Read pretrained vectors for ``vocab`` from a GloVe text file.

    A vocabulary word matches a file entry exactly or by lowercasing; the
    first line of a word wins, and an exact match beats a lowercase one.
    Every non-empty line must carry exactly ``dim`` values, and every line
    kept for a wanted word must parse and be finite in ``dtype``; otherwise,
    or if a line is not UTF-8, EmbeddingError names the first faulty line.
    Rows for missing words (including UNK) are drawn from the passed
    generator in id order, so the result is reproducible for a fixed seed.

    One scan reads each line once, with C-level string operations: it
    splits off the word with ``str.find`` and keeps the values text of the
    first line of each wanted word; any other line has its fields counted
    with ``str.count``.  Every PARSE_BLOCK kept lines are parsed together,
    which also checks their field counts, and scattered into the
    vocabulary-ordered matrix, so the scan holds at most one block of text
    besides the matrix.
    """
    if dim < 1:  # a line without values has no word to split off
        raise ValueError(f"dim must be positive, got {dim}")
    exact_ids = vocab.word_to_id
    lower_ids: dict[str, list[int]] = {}
    for i, word in enumerate(vocab.id_to_word):
        lower_ids.setdefault(word.lower(), []).append(i)
    source = np.full(vocab.size, -1, dtype=np.intp)  # the kept line filling each row
    exact = np.zeros(vocab.size, dtype=bool)  # rows whose word itself was kept
    vectors = np.empty((vocab.size, dim), dtype=dtype)
    seen: set[str] = set()
    rows: list[str] = []  # values text of the kept lines not yet parsed
    linenos: list[int] = []

    def flush() -> None:
        if rows:
            start = len(seen) - len(rows)
            block = _parse_block(path, rows, linenos, dim, dtype)
            ids = np.flatnonzero(source >= start)  # rows filled from this block
            vectors[ids] = block[source[ids] - start]
            rows.clear()
            linenos.clear()

    with open_text(path, EmbeddingError) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line == "\n":
                continue
            cut = line.find(" ")
            word = line[:cut]
            if cut < 0 or word in seen or (word not in exact_ids and word not in lower_ids):
                found = line.count(" ")
                if found != dim:
                    flush()  # a faulty kept line above this one is reported first
                    raise EmbeddingError(
                        f"{path}, line {lineno}: expected {dim} values, found {found}")
                continue
            for i in lower_ids.get(word, ()):
                if not exact[i]:
                    source[i] = len(seen)
            i = exact_ids.get(word)
            if i is not None:
                source[i], exact[i] = len(seen), True
            seen.add(word)
            rows.append(line[cut + 1:])
            linenos.append(lineno)
            if len(rows) == PARSE_BLOCK:
                flush()
    flush()

    missing = np.flatnonzero(source < 0)
    for start in range(0, len(missing), PARSE_BLOCK):
        # k draws of ``dim`` values are one draw of (k, dim): the same stream
        ids = missing[start:start + PARSE_BLOCK]
        vectors[ids] = rng.uniform(-OOV_RANGE, OOV_RANGE, (len(ids), dim))
    return EmbeddingMatrix(vectors, (vocab.size - len(missing)) / vocab.size)


def _parse_block(path, rows: list[str], linenos: list[int], dim: int,
                 dtype) -> np.ndarray:
    """The values text ``rows`` as a (rows, dim) array of ``dtype``.

    Raises EmbeddingError for the first row without ``dim`` values, with a
    value that does not parse, or with one not finite in ``dtype``, naming
    its line from ``linenos``."""
    with np.errstate(over="ignore"):  # an overflow reads as inf below
        try:
            block = np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None,
                               quotechar=None, ndmin=2).astype(dtype, copy=False)
        except ValueError:
            block = None
        if block is None or block.shape != (len(rows), dim):
            # a wrong field count, or a value numpy rejects and float() may
            # read ("1_0"), or a blank row numpy skips: parse value by value,
            # as float() does, checking each row at once so the first
            # faulty line is the one reported
            block = np.empty((len(rows), dim), dtype=dtype)
            for i, (values, lineno) in enumerate(zip(rows, linenos)):
                found = values.count(" ") + 1
                if found != dim:
                    raise EmbeddingError(
                        f"{path}, line {lineno}: expected {dim} values, found {found}")
                try:
                    block[i] = np.asarray(
                        [float(v) for v in values.rstrip("\n").split(" ")], dtype=dtype)
                except ValueError as err:
                    raise EmbeddingError(f"{path}, line {lineno}: {err}") from None
                if not np.all(np.isfinite(block[i])):
                    raise EmbeddingError(f"{path}, line {lineno}: non-finite value")
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        lineno = linenos[np.argmin(finite)]
        raise EmbeddingError(f"{path}, line {lineno}: non-finite value")
    return block


def random_embeddings(vocab: Vocabulary, dim: int, rng,
                      dtype=np.float64) -> EmbeddingMatrix:
    """Uniform [-0.05, 0.05] rows; the fallback when no GloVe file is given."""
    vectors = rng.uniform(-OOV_RANGE, OOV_RANGE, (vocab.size, dim))
    return EmbeddingMatrix(vectors.astype(dtype, copy=False), 0.0)
