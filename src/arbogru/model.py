"""Tree-structured GRU variants over constituency parse trees.

Four networks: an upward-only tree GRU ("treegru") and a bidirectional
one adding a top-down phase ("treebigru"), each with or without a
structural attention head that pools every node representation into a
sentence vector.  All passes are pure functions from (forest,
parameters) to tape values, where a forest is a ``treebank.Forest``
(trees as flat node columns); parameters are immutable while a tape is
alive.

Update rules, per node j with children k = 1..N (N <= K):

    z_j = sig(U_z x_j + sum_k Wk_z h_k + b_z)
    r_j = sig(U_r x_j + sum_k Wk_r h_k + b_r)
    c_j = tanh(U_h x_j + sum_k Wk_h (h_k * r_j) + b_h)
    h_j = z_j * sum_k h_k + (1 - z_j) * c_j

x_j is the embedding row at leaves and the zero vector at internal
nodes (the U terms vanish there).  The downward phase is the same rule
with its own Ud/Wd/bd tensors, the node's upward state as input and the
parent's downward state as the only child; the root's downward state is
defined as its upward state.

Every node-indexed matrix that one op hands another, from the embedding
gather to the loss, is node-major: row j is node j.  ``gru_tree``
applies the rule to a whole forest as one tape op, level by level
(upward by height, downward by depth), with each gate of a level one
matrix product per child slot over the level's nodes of every tree and
a zero pad state standing in for a missing child.  Inside the op the
rows are level-major, so each level is one contiguous block; its states
come out node-major, and its gates are copied to node order when read.
The attention head and classifiers work on the state matrices whole;
attention normalizes and pools each tree's rows on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, ValueRef
from .embeddings import Vocabulary, random_embeddings
from .treebank import Forest

VARIANT_TREEGRU = "treegru"
VARIANT_TREEBIGRU = "treebigru"
VARIANTS = (VARIANT_TREEGRU, VARIANT_TREEBIGRU)
ATTENTION_NORMS = ("softmax", "linear")

RECURRENT_INIT = 0.5   # identity scale for the square recurrent matrices
CLASSIFIER_INIT = 0.01  # std-dev scale for classifier and attention draws

_GATES = ("z", "r", "h")

MaskFn = Optional[Callable[..., np.ndarray]]  # shape -> dropout mask


class ModelError(ValueError):
    pass


def param_shapes(variant: str, dim: int, vocab_size: int, classes: int,
                 max_children: int = 2, attention: bool = False) -> dict[str, tuple]:
    """Canonical (name -> shape) map; its order is the checkpoint order."""
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant {variant!r}")
    d, c, k_max = dim, classes, max_children
    shapes: dict[str, tuple] = {"emb": (vocab_size, d)}
    for gate in _GATES:
        shapes[f"U_{gate}"] = (d, d)
    for gate in _GATES:
        for k in range(1, k_max + 1):
            shapes[f"W_{gate}_{k}"] = (d, d)
    for gate in _GATES:
        shapes[f"b_{gate}"] = (d,)
    if variant == VARIANT_TREEBIGRU:
        for gate in _GATES:
            shapes[f"Ud_{gate}"] = (d, d)
        for gate in _GATES:
            shapes[f"Wd_{gate}"] = (d, d)
        for gate in _GATES:
            shapes[f"bd_{gate}"] = (d,)
        shapes["W_s_up"] = (c, d)
        shapes["W_s_dn"] = (c, d)
        shapes["b_s"] = (c,)
    else:
        shapes["W_s"] = (c, d)
        shapes["b_s"] = (c,)
    if attention:
        rep = 2 * d if variant == VARIANT_TREEBIGRU else d  # node representation width
        shapes["W_w"] = (d, rep)
        shapes["b_w"] = (d,)
        shapes["u_w"] = (d,)
        if variant == VARIANT_TREEBIGRU:
            # The sentence vector is 2d wide and needs its own head; the
            # unidirectional one is d wide and reuses W_s (this exactly
            # reproduces the reported parameter totals).
            shapes["W_s_att"] = (c, rep)
            shapes["b_s_att"] = (c,)
    return shapes


def is_bias(name: str) -> bool:
    return name.startswith("b")


@dataclass
class ModelParams:
    """Every trainable tensor, keyed by name, plus the defining dimensions
    and the attention score normalization the model was trained with."""

    variant: str
    attention: bool
    attention_norm: str
    dim: int
    classes: int
    max_children: int
    tensors: dict[str, np.ndarray]

    @property
    def vocab_size(self) -> int:
        return self.tensors["emb"].shape[0]

    @property
    def dtype(self):
        return self.tensors["emb"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams(self.variant, self.attention, self.attention_norm,
                           self.dim, self.classes, self.max_children,
                           {name: t.copy() for name, t in self.tensors.items()})

    def total_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())


def init_params(variant: str, dim: int, vocab: Vocabulary, classes: int,
                max_children: int, rng, attention: bool = False,
                embeddings=None, dtype=np.float64,
                attention_norm: str = "softmax") -> ModelParams:
    """Build parameters: square recurrent matrices at 0.5*I, classifier and
    attention tensors from a scaled standard normal, biases at zero.

    ``embeddings`` is an EmbeddingMatrix; omitted, ``random_embeddings``
    draws one from ``rng`` before any other tensor.  A matrix already in
    ``dtype`` becomes the ``emb`` parameter itself, so training updates
    the caller's array; another dtype is copied.  ``attention_norm`` (one of ATTENTION_NORMS)
    travels with the parameters into the checkpoint.
    """
    shapes = param_shapes(variant, dim, vocab.size, classes, max_children, attention)
    if embeddings is None:
        embeddings = random_embeddings(vocab, dim, rng, dtype)
    random_init = {"W_s", "W_s_up", "W_s_dn", "W_s_att", "W_w", "u_w"}
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name == "emb":
            if embeddings.vectors.shape != shape:
                raise ModelError(
                    f"embedding matrix shape {embeddings.vectors.shape} != {shape}")
            tensors[name] = embeddings.vectors.astype(dtype, copy=False)
        elif is_bias(name):
            tensors[name] = np.zeros(shape, dtype=dtype)
        elif name in random_init:
            tensors[name] = (rng.standard_normal(shape) * CLASSIFIER_INIT).astype(dtype)
        else:
            tensors[name] = (RECURRENT_INIT * np.eye(dim)).astype(dtype)
    return ModelParams(variant, attention, attention_norm, dim, classes,
                       max_children, tensors)


# ---------------------------------------------------------------------------
# forest layout and tape plumbing

def child_slots(forest: Forest, max_children: int) -> np.ndarray:
    """Row j lists node j's children in slot order, -1 for none; a node
    with more than ``max_children`` (K) children raises ModelError naming
    its tree's position."""
    wide = forest.slots >= max_children
    if wide.any():
        node = forest.parents[wide].min()  # the first wide node in pre-order
        arity = forest.slots[forest.parents == node].max() + 1
        tree = np.searchsorted(forest.offsets, node, side="right") - 1
        raise ModelError(f"node arity {arity} exceeds K={max_children} in tree {tree}")
    kids = np.flatnonzero(forest.parents >= 0)
    slots = np.full((forest.node_count, max_children), -1, dtype=np.intp)
    slots[forest.parents[kids], forest.slots[kids]] = kids
    return slots


def _param(tape: Tape, params: ModelParams, name: str) -> ValueRef:
    """Tensor ``name`` of ``params`` as a keyed leaf of ``tape``."""
    return tape.input(params.tensors[name], key=name)


@dataclass
class LevelGates:
    """The z/r/candidate gates of one ``gru_tree`` call, kept in its
    level-major rows; ``node_major`` gives a node-major copy of one."""

    pos: np.ndarray  # node j's level-major row
    level_major: tuple[np.ndarray, np.ndarray, np.ndarray]  # Z, R, C

    def node_major(self, gate: int) -> np.ndarray:
        return self.level_major[gate][self.pos]


def _gate(direction: str, gate: int) -> property:
    """A node-major gate of ``direction``, copied on each read; None
    before that direction has run."""
    def read(states):
        gates = getattr(states, direction)
        return None if gates is None else gates.node_major(gate)
    return property(read)


@dataclass
class NodeStates:
    """Activations of every node, row j for node j of ``forest``.

    The states ``H_*`` are tape values; the gates are plain arrays,
    copied to node order from ``up``/``down`` when read (the downward
    root has none, so its gate rows are zero).  The tape's ``"emb"``
    leaf holds the embedding ``rows`` the leaves read, ascending.
    """

    forest: Forest
    rows: np.ndarray
    H_up: ValueRef                        # (nodes, dim)
    up: LevelGates
    H_down: Optional[ValueRef] = None
    down: Optional[LevelGates] = None

    z_up, r_up, cand_up = (_gate("up", g) for g in range(3))
    z_down, r_down, cand_down = (_gate("down", g) for g in range(3))


@dataclass
class AttentionResult:
    """Node weights, normalized per tree, and the pooled sentence vectors."""

    weights: ValueRef   # (node count,)
    sentence: ValueRef  # (trees, node representation width)


@dataclass
class NodePredictions:
    """Classifier outputs; row j belongs to node j.  With attention a
    root's row comes from its tree's sentence vector, every other row
    from the node's states."""

    logits: ValueRef   # (nodes, classes)
    probs: np.ndarray  # (nodes, classes), the softmax of each row
    labels: np.ndarray  # (nodes,), the argmax of each row


# ---------------------------------------------------------------------------
# forward passes

# (input, child, bias) tensor names of each direction's gates
_UPWARD = ("U_{g}", "W_{g}_{k}", "b_{g}")
_DOWNWARD = ("Ud_{g}", "Wd_{g}", "bd_{g}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, computed in place in ``x`` as
    0.5 * tanh(0.5 x) + 0.5, which never overflows."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def gru_tree(tape: Tape, params: ModelParams, names: tuple[str, str, str],
             inputs: ValueRef, fed, slots: np.ndarray, rank: np.ndarray,
             first_level: int = 0):
    """The rule of the module docstring over a forest, recorded as one
    tape op; returns (H, gates), the node-major states as a tape value
    and the z/r/candidate gates as ``LevelGates``.

    ``names`` are a direction's tensor-name templates.  ``rank`` (height
    upward, depth downward) sorts the nodes into levels, one per rank
    from ``first_level`` on; a node's children all have a lower rank.  A
    node of lower rank is in no level: it takes its input row as its
    state and keeps zero gates.  ``inputs`` holds the input rows of the
    nodes ``fed`` (an index array or a slice), which are the nodes of the
    lowest ranks; the input terms vanish at every other node.  Row j of
    ``slots`` lists node j's children, -1 for none (a zero pad state).

    The op works in level-major rows: the nodes sorted stably by rank,
    so every level is one contiguous row range of each state, gate and
    gradient buffer, read and written through slices.  Only children are
    gathered.  Rank 0 has no child, and every level above it runs all K
    child slots: a pad child reads the zero pad row, so its products add
    exact zeros.  The tape keeps the states in node order, its value, and
    the gates in level-major rows; the backward gathers each row's
    children once into a child buffer of its own.
    """
    u_name, w_name, b_name = names
    n, n_kids = slots.shape

    def gate(g):  # the refs of one gate's U, b, W_1..W_K
        keys = [u_name.format(g=g), b_name.format(g=g)]
        keys += [w_name.format(g=g, k=k) for k in range(1, n_kids + 1)]
        return [_param(tape, params, key) for key in keys]

    gate_refs = [gate(g) for g in _GATES]
    (U_z, b_z, *W_z), (U_r, b_r, *W_r), (U_h, b_h, *W_h) = (
        [tape.value(ref) for ref in refs] for refs in gate_refs)
    x = tape.value(inputs)
    d, dtype = x.shape[1], x.dtype
    order = np.argsort(rank, kind="stable")  # row -> node
    starts = np.concatenate(([0], np.cumsum(np.bincount(rank)))).tolist()
    pos = np.empty(n + 1, dtype=np.intp)  # node -> row; slot -1 reads row n
    pos[order] = np.arange(n)
    pos[n] = n
    kids_lm = slots[order].T.copy()  # slot k's child node of each row
    kid_rows = pos[kids_lm]  # and that child's row
    into = pos[:n][fed]  # the row of each input, one of the first m
    lead = np.argsort(into)  # the input of each of the first m rows
    m, free = into.size, starts[first_level]

    H_lm = np.empty((n + 1, d), dtype=dtype)  # row n is the zero pad
    x_lm = x[lead]
    H_lm[:free] = x_lm[:free]
    H_lm[n] = 0.0
    # the gate buffers start as the pre-activations' bias and input
    # terms, one product over every input row outside the recurrence
    Z, R, C = (np.empty((n, d), dtype=dtype) for _ in range(3))
    for P, U, b in ((Z, U_z, b_z), (R, U_r, b_r), (C, U_h, b_h)):
        np.matmul(x_lm, U.T, out=P[:m])
        P[:m] += b
        P[m:] = b
        P[:free] = 0.0
    del x_lm
    # each level's rows with the child slots it runs: rank 0 has no
    # child, and every level above it runs all K slots
    first_kid = starts[1]  # rows before have no child
    plan = [(a, e, range(n_kids) if a >= first_kid else ())
            for a, e in zip(starts[first_level:-1], starts[first_level + 1:])]
    # scratch rows for the widest level with children; the rest need none
    width = max((e - a for a, e, used in plan if used), default=0)
    # downward, siblings share their parent's row
    real = kid_rows[kid_rows < n]
    repeats = np.unique(real).size < real.size

    def child_sum(kids, out):
        out[...] = kids[0] if kids else 0.0
        for h in kids[1:]:
            out += h
        return out

    kid_buf = np.empty((n_kids, width, d), dtype=dtype)
    t_buf = np.empty((2, width, d), dtype=dtype)
    for a, e, used in plan:
        z, r, c, h = Z[a:e], R[a:e], C[a:e], H_lm[a:e]
        t, u = t_buf[:, :e - a]
        kids = [np.take(H_lm, kid_rows[k, a:e], axis=0, out=kid_buf[k, :e - a],
                        mode="clip") for k in used]
        for k, hk in zip(used, kids):
            z += np.matmul(hk, W_z[k].T, out=t)
            r += np.matmul(hk, W_r[k].T, out=t)
        _sigmoid(z)
        _sigmoid(r)
        for k, hk in zip(used, kids):
            c += np.matmul(np.multiply(hk, r, out=t), W_h[k].T, out=u)
        np.tanh(c, out=c)
        # h = (1 - z) * c + z * (sum of the children)
        np.subtract(1.0, z, out=h)
        h *= c
        if kids:
            h += np.multiply(child_sum(kids, t), z, out=t)
    # the states in node order, with the zero pad again as row n; the
    # backward reads them, so the tape keeps no level-major copy
    H = np.empty_like(H_lm)
    np.take(H_lm, pos, axis=0, out=H, mode="clip")
    del H_lm, kid_buf, t_buf

    def vjp(g):
        G = np.empty_like(H)  # gradient reaching each state; row n is junk
        np.take(g, order, axis=0, out=G[:n], mode="clip")
        G[n] = 0.0
        dZ, dR, dC = (np.empty_like(Z) for _ in range(3))  # pre-activation grads
        for dP in (dZ, dR, dC):
            dP[:free] = 0.0
        # the child buffer: row i of slot k holds the state of row
        # first_kid + i's child in that slot, zero for a pad child (-1,
        # which wraps round to H's pad row)
        H_kids = np.empty((n_kids, n - first_kid, d), dtype=dtype)
        for k in range(n_kids):
            np.take(H, kids_lm[k, first_kid:], axis=0, out=H_kids[k], mode="wrap")
        buf = np.empty((1 + n_kids, width, d), dtype=dtype)
        for a, e, used in reversed(plan):
            gh, z, r, c = G[a:e], Z[a:e], R[a:e], C[a:e]
            dz, dr, dc = dZ[a:e], dR[a:e], dC[a:e]
            t, *kr_buf = buf[:, :e - a]
            kids = [H_kids[k, a - first_kid:e - first_kid] for k in used]
            # dc = gh * (1 - z) * (1 - c * c); dr is scratch until it is formed
            np.subtract(1.0, z, out=dc)
            dc *= gh
            np.multiply(c, c, out=dr)
            np.subtract(1.0, dr, out=dr)
            dc *= dr
            # dz = gh * (sum of the children - c) * z * (1 - z)
            child_sum(kids, dz)
            dz -= c
            dz *= gh
            dz *= z
            np.subtract(1.0, z, out=dr)
            dz *= dr
            if not used:  # leaves: no child, so no reset gate gradient
                dr[...] = 0.0
                continue
            # the gradients of each h_k * r, then
            # dr = (sum over k of those times h_k) * r * (1 - r)
            d_kr = [np.matmul(dc, W_h[k], out=kr_buf[k]) for k in used]
            np.multiply(d_kr[0], kids[0], out=dr)
            for dk, h in zip(d_kr[1:], kids[1:]):
                dr += np.multiply(dk, h, out=t)
            dr *= r
            np.subtract(1.0, r, out=t)
            dr *= t
            gh *= z  # consumed: what stays is this level's gh * z
            for k, dk in zip(used, d_kr):
                dk *= r
                dk += gh
                dk += np.matmul(dz, W_z[k], out=t)
                dk += np.matmul(dr, W_r[k], out=t)
                rows = kid_rows[k, a:e]
                if repeats:
                    np.add.at(G, rows, dk)  # += would add one of the repeats
                else:
                    G[rows] += dk
        del buf

        # each weight gradient is one product over the whole forest, a
        # child weight's over the child buffer, whose pad rows add nothing
        d_child = ([], [], [])
        for k in range(n_kids):
            h = H_kids[k]
            d_child[0].append(dZ[first_kid:].T @ h)
            d_child[1].append(dR[first_kid:].T @ h)
            h *= R[first_kid:]
            d_child[2].append(dC[first_kid:].T @ h)
        d_in = [dP[:m] for dP in (dZ, dR, dC)]
        d_x = d_in[0] @ U_z + d_in[1] @ U_r + d_in[2] @ U_h
        d_x[:free] += G[:free]
        x_lm = x[lead]
        grads = [d_x[into]]
        for dP, dP_in, dW in zip((dZ, dR, dC), d_in, d_child):
            grads += [dP_in.T @ x_lm, dP.sum(axis=0), *dW]
        return tuple(grads)

    parents = (inputs.index, *(ref.index for refs in gate_refs for ref in refs))
    return tape.append(H[:n], parents, vjp), LevelGates(pos[:n], (Z, R, C))


def upward_pass(forest: Forest, params: ModelParams, tape: Tape, vocab: Vocabulary,
                input_mask: MaskFn = None) -> NodeStates:
    """Bottom-up phase over ``forest``; each leaf reads the (optionally
    masked) embedding row ``vocab.lookup`` gives its word, and only leaves
    have an input.  One call per tape: the tape's ``"emb"`` leaf holds
    this forest's rows."""
    slots = child_slots(forest, params.max_children)
    leaves = np.flatnonzero(forest.heights == 0)
    ids = [vocab.lookup(forest.lexicon[w]) for w in forest.words[leaves].tolist()]
    rows, index = np.unique(np.array(ids, dtype=np.intp), return_inverse=True)
    inputs = ad.gather(tape, tape.input(params.tensors["emb"][rows], key="emb"), index)
    if input_mask is not None:
        inputs = ad.mask(tape, inputs, input_mask(inputs.shape))
    H, gates = gru_tree(tape, params, _UPWARD, inputs, leaves, slots, forest.heights)
    return NodeStates(forest, rows, H, gates)


def downward_pass(states: NodeStates, params: ModelParams, tape: Tape) -> NodeStates:
    """Top-down phase; requires a completed upward pass.

    A root's downward state is defined to be its upward state; every
    other node blends the parent's downward state with a candidate
    driven by the node's own upward state.
    """
    if params.variant != VARIANT_TREEBIGRU:
        raise ModelError("downward pass needs treebigru parameters")
    forest = states.forest
    states.H_down, states.down = gru_tree(
        tape, params, _DOWNWARD, states.H_up, slice(None), forest.parents[:, None],
        forest.depths, first_level=1)  # the roots (depth 0) are in no level
    return states


def _require_downward(states: NodeStates, params: ModelParams, what: str) -> None:
    if params.variant == VARIANT_TREEBIGRU and states.H_down is None:
        raise ModelError(f"bidirectional {what} needs the downward pass")


def attention_pool(states: NodeStates, params: ModelParams,
                   tape: Tape) -> AttentionResult:
    """Score every node against the context vector and pool each tree.

    Over the node matrix C (H_up, or [H_up, H_down] for treebigru) the
    scores are u_w . tanh(W_w c_j + b_w) for each row c_j, normalized over
    each tree's nodes as ``params.attention_norm`` says (softmax, or
    "linear", which divides raw scores by their sum for comparison); a
    tree's sentence vector is its weights times its rows of C.
    """
    if not params.attention:
        raise ModelError("parameters carry no attention tensors")
    _require_downward(states, params, "representation")
    p = partial(_param, tape, params)
    nodes = states.H_up
    if params.variant == VARIANT_TREEBIGRU:
        nodes = ad.concat(tape, [states.H_up, states.H_down])
    projected = ad.tanh(tape, ad.linear(tape, nodes, p("W_w"), bias=p("b_w")))
    scores = ad.linear(tape, projected, p("u_w"))
    offsets = states.forest.offsets
    if params.attention_norm == "softmax":
        weights = ad.softmax(tape, scores, offsets)
    elif params.attention_norm == "linear":
        weights = ad.linear_norm(tape, scores, offsets)
    else:
        raise ModelError(f"unknown attention norm {params.attention_norm!r}")
    return AttentionResult(weights, ad.pool(tape, nodes, weights, offsets))


def predict_nodes(states: NodeStates, params: ModelParams, tape: Tape,
                  attn: Optional[AttentionResult] = None,
                  feature_mask: MaskFn = None) -> NodePredictions:
    """Class logits, distributions, and argmax labels of every node.

    The state classifier maps the node matrices to a nodes x classes
    logit matrix in one product; with attention the sentence classifier
    maps the pooled sentence vectors to the roots' rows, which replace
    the state classifier's there.  ``feature_mask`` (dropout) draws one
    mask per classifier input matrix.  Ties in the argmax resolve to the
    lowest class index.
    """
    if params.attention and attn is None:
        raise ModelError("attention parameters require an AttentionResult")
    _require_downward(states, params, "classifier")
    p = partial(_param, tape, params)

    def masked(ref):
        if feature_mask is None:
            return ref
        return ad.mask(tape, ref, feature_mask(ref.shape))

    if params.variant == VARIANT_TREEBIGRU:
        logits = ad.add(tape, ad.linear(tape, masked(states.H_up), p("W_s_up")),
                        ad.linear(tape, masked(states.H_down), p("W_s_dn"),
                                  bias=p("b_s")))
        sentence_weights, sentence_bias = "W_s_att", "b_s_att"
    else:
        logits = ad.linear(tape, masked(states.H_up), p("W_s"), bias=p("b_s"))
        sentence_weights, sentence_bias = "W_s", "b_s"
    if attn is not None:
        root = ad.linear(tape, masked(attn.sentence), p(sentence_weights),
                         bias=p(sentence_bias))
        logits = ad.put_rows(tape, logits, states.forest.roots, root)
    x = tape.value(logits)
    e = np.exp(x - np.max(x, axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return NodePredictions(logits, probs, probs.argmax(axis=1))


# ---------------------------------------------------------------------------
# parameter audit

def itemize_parameters(variant: str, dim: int, vocab_size: int, classes: int,
                       max_children: int = 2, attention: bool = False):
    """(name, shape, count) per tensor, in canonical order."""
    shapes = param_shapes(variant, dim, vocab_size, classes, max_children, attention)
    return [(name, shape, int(np.prod(shape))) for name, shape in shapes.items()]
