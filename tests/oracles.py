"""Tape-free reference implementations of the forward passes, and the
line-by-line GloVe reader.

Straight-line numpy, written directly from the update rules and kept
independent of the package's tape machinery on purpose: these are the
oracles the autodiff-backed passes are checked against.  A tree is read
from its ``parents``, ``words`` and ``lexicon`` columns alone, one node
at a time in a plain loop, so depth is no limit.  Slot lists are in
pre-order, matching the package's tree indexing.  ``load_glove``
converts every value with ``float()``, one line at a time; the
package's block parser must match it bit for bit.
"""

import math

import numpy as np

from arbogru.embeddings import OOV_RANGE, EmbeddingError, EmbeddingMatrix


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def child_lists(tree):
    """Each node's children, in slot order: a child follows its parent in
    pre-order, and siblings follow one another in slot order."""
    children = [[] for _ in range(len(tree.parents))]
    for j, parent in enumerate(tree.parents.tolist()):
        if parent >= 0:
            children[parent].append(j)
    return children


def upward_states(tree, tensors, vocab):
    """Pre-order list of dicts with keys h, z, r, cand, filled in reverse
    pre-order, so every child comes before its parent."""
    dim = tensors["U_z"].shape[0]
    children = child_lists(tree)
    words = tree.words.tolist()
    slots = [None] * len(words)
    for j in reversed(range(len(words))):
        child_h = [slots[k]["h"] for k in children[j]]
        if words[j] >= 0:
            x = tensors["emb"][vocab.lookup(tree.lexicon[words[j]])]
        else:
            x = np.zeros(dim)
        za = tensors["U_z"] @ x + tensors["b_z"]
        ra = tensors["U_r"] @ x + tensors["b_r"]
        for k, hk in enumerate(child_h, start=1):
            za = za + tensors[f"W_z_{k}"] @ hk
            ra = ra + tensors[f"W_r_{k}"] @ hk
        z = sigmoid(za)
        r = sigmoid(ra)
        ca = tensors["U_h"] @ x + tensors["b_h"]
        for k, hk in enumerate(child_h, start=1):
            ca = ca + tensors[f"W_h_{k}"] @ (hk * r)
        cand = np.tanh(ca)
        if child_h:
            h = z * np.sum(child_h, axis=0) + (1.0 - z) * cand
        else:
            h = (1.0 - z) * cand
        slots[j] = {"h": h, "z": z, "r": r, "cand": cand}
    return slots


def downward_states(tree, up_slots, tensors):
    """Pre-order list of dicts with keys h, z, r, cand (gates None at the
    root), filled in pre-order, so every parent comes before its children."""
    slots = []
    for j, parent in enumerate(tree.parents.tolist()):
        h_up = up_slots[j]["h"]
        if parent < 0:
            slots.append({"h": h_up, "z": None, "r": None, "cand": None})
            continue
        parent_down = slots[parent]["h"]
        z = sigmoid(tensors["Ud_z"] @ h_up + tensors["Wd_z"] @ parent_down
                    + tensors["bd_z"])
        r = sigmoid(tensors["Ud_r"] @ h_up + tensors["Wd_r"] @ parent_down
                    + tensors["bd_r"])
        cand = np.tanh(tensors["Ud_h"] @ h_up
                       + tensors["Wd_h"] @ (parent_down * r)
                       + tensors["bd_h"])
        h = z * parent_down + (1.0 - z) * cand
        slots.append({"h": h, "z": z, "r": r, "cand": cand})
    return slots


def attention(reps, tensors, norm="softmax"):
    """(weights, pooled sentence vector) for a list of node representations."""
    scores = np.asarray([
        np.tanh(tensors["W_w"] @ rep + tensors["b_w"]) @ tensors["u_w"]
        for rep in reps
    ])
    if norm == "softmax":
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
    else:
        weights = scores / scores.sum()
    pooled = np.sum([weights[j] * reps[j] for j in range(len(reps))], axis=0)
    return weights, pooled


def softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def compute_loss(distributions, gold_labels):
    """Summed negative log-likelihood of the gold labels, one probability
    vector per supervised node."""
    return -sum(math.log(probs[gold]) for probs, gold in zip(distributions, gold_labels))


def predictions(up_slots, down_slots, sentence_vec, tensors, variant, use_attention):
    """Per-node probability vectors, pre-order."""
    probs = []
    for j in range(len(up_slots)):
        if j == 0 and use_attention:
            if variant == "treebigru":
                logits = tensors["W_s_att"] @ sentence_vec + tensors["b_s_att"]
            else:
                logits = tensors["W_s"] @ sentence_vec + tensors["b_s"]
        elif variant == "treebigru":
            logits = (tensors["W_s_up"] @ up_slots[j]["h"]
                      + tensors["W_s_dn"] @ down_slots[j]["h"] + tensors["b_s"])
        else:
            logits = tensors["W_s"] @ up_slots[j]["h"] + tensors["b_s"]
        probs.append(softmax(logits))
    return probs


def load_glove(path, vocab, dim, rng, dtype=np.float64):
    """``embeddings.load_glove`` one line and one value at a time."""
    wanted = set()
    for word in vocab.id_to_word:
        wanted.add(word)
        wanted.add(word.lower())
    found = {}
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
