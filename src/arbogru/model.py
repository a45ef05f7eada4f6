"""Tree-structured GRU variants over constituency parse trees.

Four networks: an upward-only tree GRU ("treegru") and a bidirectional
one adding a top-down phase ("treebigru"), each with or without a
structural attention head that pools every node representation into a
sentence vector.  All passes are pure functions from (forest,
parameters) to tape values, where a forest is a list of trees laid out
as one node set; parameters are immutable while a tape is alive.

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

``gru_tree`` applies the rule to a whole forest as one tape op: the
states form a d x nodes matrix, one column per node, filled level by
level (upward by height, downward by depth), with each gate of a level
one matrix product over the level's nodes of every tree and a zero pad
column standing in for a missing child.  The attention head and
classifiers work on these matrices whole; attention normalizes and
pools each tree's columns on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, ValueRef
from .embeddings import Vocabulary
from .treebank import LabeledTree

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
    uniformly from [-0.05, 0.05].  ``attention_norm`` (one of
    ATTENTION_NORMS) travels with the parameters into the checkpoint.
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
                tensors[name] = embeddings.vectors.astype(dtype)
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
# tree flattening and tape plumbing

@dataclass
class TreeIndex:
    """Pre-order flattening of a forest: tree t holds the nodes
    ``offsets[t]:offsets[t+1]``, its root first; parents precede their
    children."""

    nodes: list[LabeledTree]
    parents: np.ndarray          # -1 at a root
    slots: np.ndarray            # (nodes, K): children in order; -1 = none
    heights: np.ndarray          # 0 at leaves
    depths: np.ndarray           # 0 at the roots
    gold: np.ndarray             # node labels; -1 where unsupervised
    offsets: np.ndarray          # (trees + 1,)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def roots(self) -> np.ndarray:
        return self.offsets[:-1]


def index_tree(trees: Sequence[LabeledTree], max_children: int) -> TreeIndex:
    """Flatten the forest ``trees``; a node with more than ``max_children``
    (K) children raises ModelError naming its tree's position."""
    nodes, parents, slots, depths, gold, offsets = [], [], [], [], [], [0]
    for t, tree in enumerate(trees):
        stack = [(tree, -1, 0, 0)]
        while stack:
            node, parent, position, depth = stack.pop()
            if len(node.children) > max_children:
                raise ModelError(f"node arity {len(node.children)} exceeds "
                                 f"K={max_children} in tree {t}")
            if parent >= 0:
                slots[parent][position] = len(nodes)
            stack.extend((child, len(nodes), k, depth + 1)
                         for k, child in reversed(list(enumerate(node.children))))
            nodes.append(node)
            parents.append(parent)
            slots.append([-1] * max_children)
            depths.append(depth)
            gold.append(-1 if node.label is None else node.label)
        offsets.append(len(nodes))
    heights = np.zeros(len(nodes), dtype=int)
    for j in range(len(nodes) - 1, -1, -1):  # reversed pre-order: children first
        if parents[j] >= 0:
            heights[parents[j]] = max(heights[parents[j]], heights[j] + 1)
    return TreeIndex(nodes, np.array(parents), np.array(slots), heights,
                     np.array(depths), np.array(gold), np.array(offsets))


def _levels(rank: np.ndarray) -> list[np.ndarray]:
    """Node indices grouped by ``rank`` (height or depth), lowest first."""
    order = np.argsort(rank, kind="stable")
    return np.split(order, np.cumsum(np.bincount(rank))[:-1])


def slot(tensors: dict[str, np.ndarray], key) -> np.ndarray:
    """The array that parameter slot ``key`` names in ``tensors``.

    A key is a tensor name, or ``("emb", row)`` for one embedding row (a
    view).  Parameters, AdaGrad accumulators and gradient buffers are
    all name -> array maps, so one key addresses a slot in each.
    """
    if isinstance(key, tuple):
        name, row = key
        return tensors[name][row]
    return tensors[key]


def _param(tape: Tape, params: ModelParams, key) -> ValueRef:
    """Slot ``key`` of ``params`` as a keyed leaf of ``tape``."""
    return tape.input(slot(params.tensors, key), key=key)


@dataclass
class NodeStates:
    """Activations of every node, one column per node of ``index``.

    The states ``H_*`` are tape values; the gates are plain arrays (the
    downward root has none, so its gate columns are zero).
    """

    index: TreeIndex
    H_up: ValueRef                        # (dim, nodes)
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
    sentence: ValueRef  # (node representation width, trees)


@dataclass
class NodePredictions:
    """Classifier outputs; column or row j belongs to node j."""

    logits: ValueRef            # (classes, nodes), from the state classifier
    root: Optional[ValueRef]    # (classes, trees), from the sentence vectors
    probs: np.ndarray           # (nodes, classes); root rows follow ``root`` if set
    labels: list[int]


# ---------------------------------------------------------------------------
# forward passes

# (input, child, bias) tensor names of each direction's gates
_UPWARD = ("U_{g}", "W_{g}_{k}", "b_{g}")
_DOWNWARD = ("Ud_{g}", "Wd_{g}", "bd_{g}")
_SIG_CLIP = 60.0  # |x| beyond this saturates sigmoid past float64 resolution


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIG_CLIP, _SIG_CLIP)))


def gru_tree(tape: Tape, params: ModelParams, names: tuple[str, str, str],
             inputs: ValueRef, columns, slots: np.ndarray, levels: list[np.ndarray]):
    """The rule of the module docstring over a forest, recorded as one
    tape op; returns (H, (Z, R, C)), the states as a tape value and the
    z/r/candidate gates as plain arrays, all d x nodes.

    ``names`` are a direction's tensor-name templates; ``inputs`` holds
    the input columns of the nodes ``columns`` (an index array or a
    slice), and the input terms vanish at every other node.  Row j of
    ``slots`` lists node j's children, -1 for none (a zero pad column).
    ``levels`` are node index arrays whose children all lie in earlier
    levels; a node in no level takes its input column as its state.
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
    d = x.shape[0]
    H = np.zeros((d, n + 1), dtype=x.dtype)  # column n (index -1) is the pad
    H[:, :n][:, columns] = x
    Z, R, C = (np.zeros((d, n), dtype=x.dtype) for _ in range(3))

    def input_terms(U, b):  # of every node at once, outside the recurrence
        A = np.repeat(b[:, None], n, axis=1)
        A[:, columns] += U @ x
        return A

    A_z, A_r, A_h = (input_terms(U, b) for U, b in ((U_z, b_z), (U_r, b_r), (U_h, b_h)))
    for lv in levels:
        kids = [H[:, slots[lv, k]] for k in range(n_kids)]
        z = _sigmoid(A_z[:, lv] + sum(W @ h for W, h in zip(W_z, kids)))
        r = _sigmoid(A_r[:, lv] + sum(W @ h for W, h in zip(W_r, kids)))
        c = np.tanh(A_h[:, lv] + sum(W @ (h * r) for W, h in zip(W_h, kids)))
        H[:, lv] = z * sum(kids) + (1.0 - z) * c
        Z[:, lv], R[:, lv], C[:, lv] = z, r, c

    def vjp(g):
        G = np.zeros_like(H)  # gradient reaching each state
        G[:, :n] = g
        dZ, dR, dC = (np.zeros_like(Z) for _ in range(3))  # pre-activation grads
        for lv in reversed(levels):
            gh = G[:, lv]
            G[:, lv] = 0.0  # consumed; what stays belongs to free nodes
            kids = [H[:, slots[lv, k]] for k in range(n_kids)]
            z, r, c = Z[:, lv], R[:, lv], C[:, lv]
            dc = gh * (1.0 - z) * (1.0 - c * c)
            dz = gh * (sum(kids) - c) * z * (1.0 - z)
            d_kr = [W.T @ dc for W in W_h]  # gradients of h_k * r
            dr = sum(dk * h for dk, h in zip(d_kr, kids)) * r * (1.0 - r)
            for k in range(n_kids):
                # siblings share their parent's column in the downward
                # direction, so fancy-indexed += would drop all but one
                np.add.at(G, (slice(None), slots[lv, k]),
                          gh * z + d_kr[k] * r + W_z[k].T @ dz + W_r[k].T @ dr)
            dZ[:, lv], dR[:, lv], dC[:, lv] = dz, dr, dc

        # each weight gradient is one product over the whole forest, the
        # child weights' one child slot at a time
        d_child = ([], [], [])
        for k in range(n_kids):
            h = H[:, slots[:, k]]
            d_child[0].append(dZ @ h.T)
            d_child[1].append(dR @ h.T)
            h *= R
            d_child[2].append(dC @ h.T)
        d_in = [dP[:, columns] for dP in (dZ, dR, dC)]
        grads = [U_z.T @ d_in[0] + U_r.T @ d_in[1] + U_h.T @ d_in[2]
                 + G[:, :n][:, columns]]
        for dP, dP_in, dW in zip((dZ, dR, dC), d_in, d_child):
            grads += [dP_in @ x.T, dP.sum(axis=1), *dW]
        return tuple(grads)

    parents = (inputs.index, *(ref.index for refs in gate_refs for ref in refs))
    return tape.append(H[:, :n], parents, vjp), (Z, R, C)


def upward_pass(trees: Sequence[LabeledTree], params: ModelParams, tape: Tape,
                vocab: Vocabulary, input_mask: MaskFn = None) -> NodeStates:
    """Bottom-up phase over the forest ``trees``; leaves read (optionally
    masked) embedding rows, and only leaves have an input."""
    idx = index_tree(trees, params.max_children)
    leaves = np.flatnonzero(idx.heights == 0)
    inputs = ad.stack(tape, [
        _param(tape, params, ("emb", vocab.lookup(idx.nodes[j].token))) for j in leaves])
    if input_mask is not None:
        inputs = ad.mul(tape, inputs, tape.input(input_mask(inputs.shape)))
    H, gates = gru_tree(tape, params, _UPWARD, inputs, leaves, idx.slots,
                        _levels(idx.heights))
    return NodeStates(idx, H, *gates)


def downward_pass(states: NodeStates, params: ModelParams, tape: Tape) -> NodeStates:
    """Top-down phase; requires a completed upward pass.

    A root's downward state is defined to be its upward state; every
    other node blends the parent's downward state with a candidate
    driven by the node's own upward state.
    """
    if params.variant != VARIANT_TREEBIGRU:
        raise ModelError("downward pass needs treebigru parameters")
    idx = states.index
    states.H_down, (states.z_down, states.r_down, states.cand_down) = gru_tree(
        tape, params, _DOWNWARD, states.H_up, slice(None), idx.parents[:, None],
        _levels(idx.depths)[1:])  # the roots (depth 0) are in no level
    return states


def _require_downward(states: NodeStates, params: ModelParams, what: str) -> None:
    if params.variant == VARIANT_TREEBIGRU and states.H_down is None:
        raise ModelError(f"bidirectional {what} needs the downward pass")


def attention_pool(states: NodeStates, params: ModelParams,
                   tape: Tape) -> AttentionResult:
    """Score every node against the context vector and pool each tree.

    Over the node matrix C (H_up, or [H_up; H_down] for treebigru) the
    scores are u_w . tanh(W_w C + b_w), normalized over each tree's nodes
    as ``params.attention_norm`` says (softmax, or "linear", which
    divides raw scores by their sum for comparison); a tree's sentence
    vector is its columns of C times its weights.
    """
    if not params.attention:
        raise ModelError("parameters carry no attention tensors")
    _require_downward(states, params, "representation")
    p = partial(_param, tape, params)
    nodes = states.H_up
    if params.variant == VARIANT_TREEBIGRU:
        nodes = ad.concat(tape, [states.H_up, states.H_down])
    projected = ad.tanh(tape, ad.matmul(tape, p("W_w"), nodes, bias=p("b_w")))
    scores = ad.matmul(tape, p("u_w"), projected)
    offsets = states.index.offsets
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

    The state classifier maps the node matrices to a classes x nodes
    logit matrix in one product; with attention the roots' logits come
    from the pooled sentence vectors instead (a classes x trees matrix),
    and the matrix's root columns go unused.  ``feature_mask`` (dropout)
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
        return ad.mul(tape, ref, tape.input(feature_mask(ref.shape)))

    if params.variant == VARIANT_TREEBIGRU:
        logits = ad.add(tape, ad.matmul(tape, p("W_s_up"), masked(states.H_up)),
                        ad.matmul(tape, p("W_s_dn"), masked(states.H_down),
                                  bias=p("b_s")))
        sentence_weights, sentence_bias = "W_s_att", "b_s_att"
    else:
        logits = ad.matmul(tape, p("W_s"), masked(states.H_up), bias=p("b_s"))
        sentence_weights, sentence_bias = "W_s", "b_s"
    probs = _softmax_columns(tape.value(logits)).T
    root = None
    if attn is not None:
        root = ad.matmul(tape, p(sentence_weights), masked(attn.sentence),
                         bias=p(sentence_bias))
        probs[states.index.roots] = _softmax_columns(tape.value(root)).T
    return NodePredictions(logits, root, probs, probs.argmax(axis=1).tolist())


def _softmax_columns(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=0))
    return e / e.sum(axis=0)


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
