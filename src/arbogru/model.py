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

Every node-indexed matrix, from the embedding gather to the loss, is
node-major: row j is node j.  ``gru_tree`` applies the rule to a whole
forest as one tape op: the states form a nodes x d matrix, filled level
by level (upward by height, downward by depth), with each gate of a
level one matrix product per child slot over the level's nodes of every
tree and a zero pad state standing in for a missing child.  The
attention head and classifiers work on these matrices whole; attention
normalizes and pools each tree's rows on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, ValueRef
from .embeddings import Vocabulary
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

    ``embeddings`` is an EmbeddingMatrix; omitted, rows are drawn
    uniformly from [-0.05, 0.05].  A matrix already in ``dtype`` becomes
    the ``emb`` parameter itself, so training updates the caller's array;
    another dtype is copied.  ``attention_norm`` (one of ATTENTION_NORMS)
    travels with the parameters into the checkpoint.
    """
    shapes = param_shapes(variant, dim, vocab.size, classes, max_children, attention)
    random_init = {"W_s", "W_s_up", "W_s_dn", "W_s_att", "W_w", "u_w"}
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name == "emb":
            if embeddings is not None:
                if embeddings.vectors.shape != shape:
                    raise ModelError(
                        f"embedding matrix shape {embeddings.vectors.shape} != {shape}")
                tensors[name] = embeddings.vectors.astype(dtype, copy=False)
            else:
                tensors[name] = rng.uniform(-0.05, 0.05, shape).astype(dtype)
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


def _levels(rank: np.ndarray) -> list[np.ndarray]:
    """Node indices grouped by ``rank`` (height or depth), lowest first."""
    order = np.argsort(rank, kind="stable")
    return np.split(order, np.cumsum(np.bincount(rank))[:-1])


def _param(tape: Tape, params: ModelParams, name: str) -> ValueRef:
    """Tensor ``name`` of ``params`` as a keyed leaf of ``tape``."""
    return tape.input(params.tensors[name], key=name)


@dataclass
class NodeStates:
    """Activations of every node, row j for node j of ``forest``.

    The states ``H_*`` are tape values; the gates are plain arrays (the
    downward root has none, so its gate rows are zero).  The tape's
    ``"emb"`` leaf holds the embedding ``rows`` the leaves read, ascending.
    """

    forest: Forest
    rows: np.ndarray
    H_up: ValueRef                        # (nodes, dim)
    z_up: np.ndarray
    r_up: np.ndarray
    cand_up: np.ndarray
    H_down: Optional[ValueRef] = None
    z_down: Optional[np.ndarray] = None
    r_down: Optional[np.ndarray] = None
    cand_down: Optional[np.ndarray] = None


@dataclass
class AttentionResult:
    """Node weights, normalized per tree, and the pooled sentence vectors."""

    weights: ValueRef   # (node count,)
    sentence: ValueRef  # (trees, node representation width)


@dataclass
class NodePredictions:
    """Classifier outputs; row j belongs to node j."""

    logits: ValueRef            # (nodes, classes), from the state classifier
    root: Optional[ValueRef]    # (trees, classes), from the sentence vectors
    probs: np.ndarray           # (nodes, classes); root rows follow ``root`` if set
    labels: list[int]


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
             inputs: ValueRef, fed, slots: np.ndarray, levels: list[np.ndarray]):
    """The rule of the module docstring over a forest, recorded as one
    tape op; returns (H, (Z, R, C)), the states as a tape value and the
    z/r/candidate gates as plain arrays, all nodes x d.

    ``names`` are a direction's tensor-name templates; ``inputs`` holds
    the input rows of the nodes ``fed`` (an index array or a slice),
    and the input terms vanish at every other node.  Row j of ``slots``
    lists node j's children, -1 for none (a zero pad state).  ``levels``
    are node index arrays whose children all lie in earlier levels; a
    node in no level takes its input row as its state and keeps zero
    gates.

    Every buffer is node-major, so a level gathers and writes whole rows.
    A child slot that is pad throughout a level costs no product.
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
    H = np.zeros((n + 1, x.shape[1]), dtype=x.dtype)  # row n (slot -1) is the pad
    H[:n][fed] = x
    # the gate buffers start as the pre-activations' bias and input
    # terms, one product over every input node outside the recurrence
    Z, R, C = (np.empty_like(H[:n]) for _ in range(3))
    for P, U, b in ((Z, U_z, b_z), (R, U_r, b_r), (C, U_h, b_h)):
        P[...] = b
        P[fed] += x @ U.T
    # each level with the child slots it uses: (slot, child rows, whether
    # a child row repeats, as siblings share their parent downward)
    plan = []
    free = np.ones(n, dtype=bool)
    for lv in levels:
        free[lv] = False
        used = []
        for k in range(n_kids):
            kids = slots[lv, k]
            real = kids[kids >= 0]
            if real.size:
                used.append((k, kids, np.unique(real).size < real.size))
        plan.append((lv, used))

    for lv, used in plan:
        kids = [H[s] for _, s, _ in used]
        z, r, c = Z[lv], R[lv], C[lv]
        for (k, _, _), h in zip(used, kids):
            z += h @ W_z[k].T
            r += h @ W_r[k].T
        z, r = _sigmoid(z), _sigmoid(r)
        for (k, _, _), h in zip(used, kids):
            c += (h * r) @ W_h[k].T
        c = np.tanh(c)
        H[lv] = z * sum(kids) + (1.0 - z) * c
        Z[lv], R[lv], C[lv] = z, r, c
    Z[free] = R[free] = C[free] = 0.0

    def vjp(g):
        G = np.zeros_like(H)  # gradient reaching each state; row n is junk
        G[:n] = g
        dZ, dR, dC = (np.zeros_like(Z) for _ in range(3))  # pre-activation grads
        for lv, used in reversed(plan):
            gh = G[lv]
            G[lv] = 0.0  # consumed; what stays belongs to free nodes
            kids = [H[s] for _, s, _ in used]
            z, r, c = Z[lv], R[lv], C[lv]
            dc = gh * (1.0 - z) * (1.0 - c * c)
            dz = gh * (sum(kids) - c) * z * (1.0 - z)
            d_kr = [dc @ W_h[k] for k, _, _ in used]  # gradients of h_k * r
            dr = sum(dk * h for dk, h in zip(d_kr, kids)) * r * (1.0 - r)
            for (k, s, repeats), dk in zip(used, d_kr):
                dh = gh * z + dk * r + dz @ W_z[k] + dr @ W_r[k]
                if repeats:
                    np.add.at(G, s, dh)  # += would add one of the repeats
                else:
                    G[s] += dh
            dZ[lv], dR[lv], dC[lv] = dz, dr, dc

        # each weight gradient is one product over the whole forest, a
        # child weight's over the nodes with a real child in its slot
        d_child = ([], [], [])
        for k in range(n_kids):
            rows = np.flatnonzero(slots[:, k] >= 0)
            h = H[slots[rows, k]]
            d_child[0].append(dZ[rows].T @ h)
            d_child[1].append(dR[rows].T @ h)
            h *= R[rows]
            d_child[2].append(dC[rows].T @ h)
        d_in = [dP[fed] for dP in (dZ, dR, dC)]
        grads = [d_in[0] @ U_z + d_in[1] @ U_r + d_in[2] @ U_h + G[:n][fed]]
        for dP, dP_in, dW in zip((dZ, dR, dC), d_in, d_child):
            grads += [dP_in.T @ x, dP.sum(axis=0), *dW]
        return tuple(grads)

    parents = (inputs.index, *(ref.index for refs in gate_refs for ref in refs))
    return tape.append(H[:n], parents, vjp), (Z, R, C)


def upward_pass(forest: Forest, params: ModelParams, tape: Tape, vocab: Vocabulary,
                input_mask: MaskFn = None) -> NodeStates:
    """Bottom-up phase over ``forest``; leaves read (optionally
    masked) embedding rows, and only leaves have an input.  One call per
    tape: the tape's ``"emb"`` leaf holds this forest's rows."""
    slots = child_slots(forest, params.max_children)
    leaves = np.flatnonzero(forest.heights == 0)
    rows, index = np.unique(forest.lexicon.ids(vocab)[forest.words[leaves]],
                            return_inverse=True)
    inputs = ad.gather(tape, tape.input(params.tensors["emb"][rows], key="emb"), index)
    if input_mask is not None:
        inputs = ad.mul(tape, inputs, tape.constant(input_mask(inputs.shape)))
    H, gates = gru_tree(tape, params, _UPWARD, inputs, leaves, slots,
                        _levels(forest.heights))
    return NodeStates(forest, rows, H, *gates)


def downward_pass(states: NodeStates, params: ModelParams, tape: Tape) -> NodeStates:
    """Top-down phase; requires a completed upward pass.

    A root's downward state is defined to be its upward state; every
    other node blends the parent's downward state with a candidate
    driven by the node's own upward state.
    """
    if params.variant != VARIANT_TREEBIGRU:
        raise ModelError("downward pass needs treebigru parameters")
    forest = states.forest
    states.H_down, (states.z_down, states.r_down, states.cand_down) = gru_tree(
        tape, params, _DOWNWARD, states.H_up, slice(None), forest.parents[:, None],
        _levels(forest.depths)[1:])  # the roots (depth 0) are in no level
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
    logit matrix in one product; with attention the roots' logits come
    from the pooled sentence vectors instead (a trees x classes matrix),
    and the matrix's root rows go unused.  ``feature_mask`` (dropout)
    draws one mask per classifier input matrix.  Ties in the argmax
    resolve to the lowest class index.
    """
    if params.attention and attn is None:
        raise ModelError("attention parameters require an AttentionResult")
    _require_downward(states, params, "classifier")
    p = partial(_param, tape, params)

    def masked(ref):
        if feature_mask is None:
            return ref
        return ad.mul(tape, ref, tape.constant(feature_mask(ref.shape)))

    if params.variant == VARIANT_TREEBIGRU:
        logits = ad.add(tape, ad.linear(tape, masked(states.H_up), p("W_s_up")),
                        ad.linear(tape, masked(states.H_down), p("W_s_dn"),
                                  bias=p("b_s")))
        sentence_weights, sentence_bias = "W_s_att", "b_s_att"
    else:
        logits = ad.linear(tape, masked(states.H_up), p("W_s"), bias=p("b_s"))
        sentence_weights, sentence_bias = "W_s", "b_s"
    probs = _softmax_rows(tape.value(logits))
    root = None
    if attn is not None:
        root = ad.linear(tape, masked(attn.sentence), p(sentence_weights),
                         bias=p(sentence_bias))
        probs[states.forest.roots] = _softmax_rows(tape.value(root))
    return NodePredictions(logits, root, probs, probs.argmax(axis=1).tolist())


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# parameter audit

def itemize_parameters(variant: str, dim: int, vocab_size: int, classes: int,
                       max_children: int = 2, attention: bool = False):
    """(name, shape, count) per tensor, in canonical order."""
    shapes = param_shapes(variant, dim, vocab_size, classes, max_children, attention)
    return [(name, shape, int(np.prod(shape))) for name, shape in shapes.items()]


def count_parameters(variant: str, dim: int, vocab_size: int, classes: int,
                     max_children: int = 2, attention: bool = False) -> int:
    return sum(count for _, _, count in
               itemize_parameters(variant, dim, vocab_size, classes,
                                  max_children, attention))
