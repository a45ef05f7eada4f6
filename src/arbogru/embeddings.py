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

from .treebank import Corpus

UNK_TOKEN = "<unk>"
UNK_ID = 0
OOV_RANGE = 0.05


class EmbeddingError(ValueError):
    pass


@dataclass
class Vocabulary:
    word_to_id: dict[str, int]
    id_to_word: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def __len__(self) -> int:
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
    words = forest.lexicon.words
    id_to_word = [UNK_TOKEN]
    id_to_word += [words[w] for w in distinct[np.argsort(first)].tolist()
                   if words[w] != UNK_TOKEN]
    return Vocabulary({word: i for i, word in enumerate(id_to_word)}, id_to_word)


def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word in vocab.id_to_word:
            handle.write(word + "\n")


def load_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as handle:
        id_to_word = [line.rstrip("\n") for line in handle]
    if not id_to_word or id_to_word[UNK_ID] != UNK_TOKEN:
        raise EmbeddingError(f"{path}: not a vocabulary file")
    return Vocabulary({w: i for i, w in enumerate(id_to_word)}, id_to_word)


def load_glove(path, vocab: Vocabulary, dim: int, rng,
               dtype=np.float64) -> EmbeddingMatrix:
    """Read pretrained vectors for ``vocab`` from a GloVe text file.

    A vocabulary word matches a file entry exactly or by lowercasing.
    Every file line must carry exactly ``dim`` values, and the rows the
    vocabulary uses must be finite in ``dtype``; otherwise EmbeddingError
    names the line.  Rows for missing words (including
    UNK) are drawn from the passed generator in id order, so the result
    is reproducible for a fixed seed.
    """
    wanted = set()
    for word in vocab.id_to_word:
        wanted.add(word)
        wanted.add(word.lower())
    found: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise EmbeddingError(
                    f"{path}, line {lineno}: expected {dim} values, found {len(parts) - 1}"
                )
            if parts[0] in wanted and parts[0] not in found:
                try:
                    with np.errstate(over="ignore"):  # an overflow reads as inf below
                        row = np.asarray([float(v) for v in parts[1:]], dtype=dtype)
                except ValueError as err:
                    raise EmbeddingError(f"{path}, line {lineno}: {err}") from None
                if not np.all(np.isfinite(row)):
                    raise EmbeddingError(f"{path}, line {lineno}: non-finite value")
                found[parts[0]] = row

    vectors = np.empty((vocab.size, dim), dtype=dtype)
    hits = 0
    for idx, word in enumerate(vocab.id_to_word):
        row = found.get(word)
        if row is None:
            row = found.get(word.lower())
        if row is None:
            vectors[idx] = rng.uniform(-OOV_RANGE, OOV_RANGE, dim)
        else:
            vectors[idx] = row
            hits += 1
    return EmbeddingMatrix(vectors, hits / vocab.size)


def random_embeddings(vocab: Vocabulary, dim: int, rng,
                      dtype=np.float64) -> EmbeddingMatrix:
    """Uniform [-0.05, 0.05] rows; the fallback when no GloVe file is given."""
    vectors = rng.uniform(-OOV_RANGE, OOV_RANGE, (vocab.size, dim)).astype(dtype)
    return EmbeddingMatrix(vectors, 0.0)
