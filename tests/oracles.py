"""Tape-free reference implementations of the forward passes, and the
line-by-line GloVe reader.

Straight-line recursive numpy, written directly from the update rules
and kept independent of the package's tape machinery on purpose: these
are the oracles the autodiff-backed passes are checked against.  Slot
lists are in pre-order, matching the package's tree indexing.
``load_glove`` converts every value with ``float()``, one line at a
time; the package's block parser must match it bit for bit.
"""

import math

import numpy as np

from arbogru.embeddings import OOV_RANGE, EmbeddingError, EmbeddingMatrix


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def upward_states(tree, tensors, vocab):
    """Pre-order list of dicts with keys h, z, r, cand."""
    dim = tensors["U_z"].shape[0]
    slots = []

    def visit(node):
        slot = {}
        slots.append(slot)
        child_h = [visit(child) for child in node.children]
        if node.token is not None:
            x = tensors["emb"][vocab.lookup(node.token)]
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
        slot.update(h=h, z=z, r=r, cand=cand)
        return h

    visit(tree)
    return slots


def downward_states(tree, up_slots, tensors):
    """Pre-order list of dicts with keys h, z, r, cand (gates None at root)."""
    slots = []
    counter = [0]

    def visit(node, parent_down):
        idx = counter[0]
        counter[0] += 1
        h_up = up_slots[idx]["h"]
        if parent_down is None:
            slot = {"h": h_up, "z": None, "r": None, "cand": None}
        else:
            z = sigmoid(tensors["Ud_z"] @ h_up + tensors["Wd_z"] @ parent_down
                        + tensors["bd_z"])
            r = sigmoid(tensors["Ud_r"] @ h_up + tensors["Wd_r"] @ parent_down
                        + tensors["bd_r"])
            cand = np.tanh(tensors["Ud_h"] @ h_up
                           + tensors["Wd_h"] @ (parent_down * r)
                           + tensors["bd_h"])
            h = z * parent_down + (1.0 - z) * cand
            slot = {"h": h, "z": z, "r": r, "cand": cand}
        slots.append(slot)
        for child in node.children:
            visit(child, slot["h"])

    visit(tree, None)
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
