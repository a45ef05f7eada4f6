"""Seeded input generator for the arbogru benchmark.

Writes, for one workload and seed, the files the program under test
reads: treebank splits (one parenthesized tree per line), a GloVe-format
vector file, and for the inference workload a checkpoint plus
``vocab.txt`` saved with the package's own ``save_checkpoint`` and
``save_vocab``.  The same seed always gives the same files.

Sentence lengths are stratified: every consecutive block of a split
(``BLOCKS``) holds the same multiset of lengths, drawn from fixed
quantiles of the length distribution, and only their order, tokens,
bracketing and labels depend on the seed.  A timed run that consumes
whole blocks therefore does the same amount of work on every seed.

Labels are learnable: each word has a fixed sentiment score that
labels its leaves, and every internal node carries the rounded mean of
its children's labels.

    python3 benchmarks/gen.py --workload train_bigru_att_sst --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WORKLOADS = {
    "train_bigru_att_sst": {"mode": "train", "variant": "treebigru",
                            "attention": True, "shape": "sst"},
    "infer_bigru_att_sst": {"mode": "infer", "variant": "treebigru",
                            "attention": True, "shape": "sst"},
    "train_gru_deep": {"mode": "train", "variant": "treegru",
                       "attention": False, "shape": "deep"},
}

# Sentiment-treebank split sizes, the reference state width, and the words
# of the inference model's vocabulary (21702 entries with <unk>, the
# reference size).  The smoke scale only proves the harness end to end.
SCALES = {
    "recipe": {"dim": 300, "train": 8544, "dev": 1101, "test": 2210,
               "vocab_words": 21701},
    "smoke": {"dim": 8, "train": 200, "dev": 26, "test": 52, "vocab_words": 200},
}

# One training block is one epoch of the timed schedule: a single batch
# of 25 (the recipe's batch size), after which the schedule evaluates the
# dev block once.  13 dev sentences per 25 training sentences match the
# recipe's four evaluations of 1101 per 8544 (0.52 vs 0.515).
BLOCKS = {"train": 25, "dev": 13, "test": 26}

# Zipf-Mandelbrot token law; the type counts make a training split of
# the recipe's size reach a vocabulary of about 21.7k words.
ZIPF_S, ZIPF_Q = 1.0, 2.7
WORD_TYPES = {("sst", "recipe"): 31000, ("deep", "recipe"): 23000,
              ("sst", "smoke"): 400, ("deep", "smoke"): 400}
GLOVE_COVERAGE = 0.955
GLOVE_EXTRA = 0.1      # extra lines for words outside the vocabulary
INFER_WEIGHT_RANGE = 0.1


@functools.cache
def _sst_quantiles() -> np.ndarray:
    # Fixed (seed-independent) reference sample of the SST length law:
    # gamma with mean 19 tokens, clipped to 2..56.
    sample = np.random.default_rng(20170105).gamma(4.0, 4.75, 100_001)
    return np.sort(np.clip(np.rint(sample), 2, 56).astype(int))


def block_lengths(shape: str, size: int) -> np.ndarray:
    """The length multiset of one block: quantiles at (k + 0.5) / size."""
    u = (np.arange(size) + 0.5) / size
    if shape == "sst":
        q = _sst_quantiles()
        return q[(u * len(q)).astype(int)]
    if shape == "deep":
        return np.rint(30 + u * 26).astype(int)  # 30..56 tokens
    raise ValueError(f"unknown tree shape {shape!r}")


def split_lengths(rng, shape: str, n: int, block: int) -> np.ndarray:
    out = []
    for start in range(0, n, block):
        lengths = block_lengths(shape, min(block, n - start))
        rng.shuffle(lengths)
        out.append(lengths)
    return np.concatenate(out)


class Lexicon:
    """Word types ranked by frequency, each with a fixed sentiment score."""

    def __init__(self, rng, types: int):
        self.words = [f"w{i}" for i in range(types)]
        p = 1.0 / (np.arange(types) + ZIPF_Q) ** ZIPF_S
        self.p = p / p.sum()
        # mostly neutral words, the rest spread over the four polar classes
        self.scores = rng.choice(5, size=types, p=[0.1, 0.15, 0.5, 0.15, 0.1])

    def draw(self, rng, n: int) -> np.ndarray:
        return rng.choice(len(self.words), size=n, p=self.p)


def tree_line(rng, shape: str, ids, lex: Lexicon) -> str:
    """One serialized tree over the token ids, with learnable labels."""

    def leaf(i):
        return int(lex.scores[i]), f"({lex.scores[i]} {lex.words[i]})"

    def join(left, right):
        label = int(np.floor((left[0] + right[0]) / 2 + 0.5))
        return label, f"({label} {left[1]} {right[1]})"

    if shape == "deep":  # right-branching: height equals token count
        node = leaf(ids[-1])
        for i in reversed(ids[:-1]):
            node = join(leaf(i), node)
        return node[1]

    draws = iter(rng.random(len(ids)))

    def build(lo, hi):  # random binary bracketing of ids[lo:hi]
        if hi - lo == 1:
            return leaf(ids[lo])
        cut = lo + 1 + int(next(draws) * (hi - lo - 1))
        return join(build(lo, cut), build(cut, hi))

    return build(0, len(ids))[1]


def write_split(path, rng, shape: str, n: int, block: int, lex: Lexicon) -> set:
    lengths = split_lengths(rng, shape, n, block)
    tokens = lex.draw(rng, int(lengths.sum()))
    used = set()
    with open(path, "w", encoding="utf-8") as handle:
        pos = 0
        for length in lengths:
            ids = tokens[pos:pos + length]
            pos += length
            used.update(int(i) for i in ids)
            handle.write(tree_line(rng, shape, ids, lex) + "\n")
    return used


def write_glove(path, rng, lex: Lexicon, vocab_ids: set, dim: int) -> None:
    """Vectors for ~95.5% of the vocabulary plus words it lacks, shuffled."""
    vocab_ids = sorted(vocab_ids)
    # coverage is counted over the vocabulary including its <unk> entry
    hits = int(round(GLOVE_COVERAGE * (len(vocab_ids) + 1)))
    chosen = [lex.words[i] for i in rng.choice(vocab_ids, size=hits, replace=False)]
    extra = int(round(GLOVE_EXTRA * len(vocab_ids)))
    chosen += [f"x{i}" for i in range(extra)]
    rng.shuffle(chosen)
    # values on a 1e-4 grid in [-2, 2], written through a table of their
    # decimal strings (formatting millions of floats one by one is slow)
    grid = np.array([f"{v / 1e4:.4f}" for v in range(-20000, 20001)], dtype=object)
    steps = np.clip(np.rint(rng.standard_normal((len(chosen), dim)) * 4000),
                    -20000, 20000).astype(int) + 20000
    with open(path, "w", encoding="utf-8") as handle:
        for word, row in zip(chosen, steps):
            handle.write(word + " " + " ".join(grid[row]) + "\n")


def write_infer_model(out_dir, rng, lex: Lexicon, spec: dict, scale: dict) -> None:
    """A random-uniform checkpoint and its vocab.txt, as `arbogru train` leaves them."""
    sys.path.insert(0, SRC)
    from arbogru.checkpoint import save_checkpoint
    from arbogru.embeddings import build_vocab, save_vocab
    from arbogru.model import init_params
    from arbogru.treebank import Corpus, LabeledTree

    leaves = [LabeledTree(2, token=w) for w in lex.words[:scale["vocab_words"]]]
    vocab = build_vocab(Corpus(leaves, "vocab", "fine", 5))
    params = init_params(spec["variant"], scale["dim"], vocab, 5, 2, rng,
                         attention=spec["attention"])
    for name, t in params.tensors.items():
        params.tensors[name] = rng.uniform(-INFER_WEIGHT_RANGE, INFER_WEIGHT_RANGE,
                                           t.shape)
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), params)
    save_vocab(vocab, os.path.join(out_dir, "vocab.txt"))


def generate(workload: str, seed: int, out_dir: str, scale_name: str = "recipe") -> dict:
    """Write every input file of ``workload`` into ``out_dir``; return a summary."""
    spec, scale = WORKLOADS[workload], SCALES[scale_name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    lex = Lexicon(rng, WORD_TYPES[(spec["shape"], scale_name)])
    os.makedirs(out_dir, exist_ok=True)
    summary = {"workload": workload, "seed": seed, "scale": scale_name,
               "dim": scale["dim"], "blocks": BLOCKS}
    splits = ("train", "dev", "test") if spec["mode"] == "train" else ("test",)
    for split in splits:
        used = write_split(os.path.join(out_dir, f"{split}.txt"), rng, spec["shape"],
                           scale[split], BLOCKS[split], lex)
        if split == "train":
            write_glove(os.path.join(out_dir, "glove.txt"), rng, lex, used,
                        scale["dim"])
            summary["train_types"] = len(used)
    if spec["mode"] == "infer":
        write_infer_model(out_dir, rng, lex, spec, scale)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--scale", choices=sorted(SCALES), default="recipe")
    args = parser.parse_args(argv)
    summary = generate(args.workload, args.seed, args.out, args.scale)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
