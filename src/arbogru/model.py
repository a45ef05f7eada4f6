"""Tree-structured GRU variants over constituency parse trees.

Four networks: an upward-only tree GRU ("treegru") and a bidirectional
one adding a top-down phase ("treebigru"), each with or without a
structural attention head that pools every node representation into a
sentence vector.  All passes are pure functions from (tree, parameters)
to tape values; parameters are immutable while a tape is alive.

Update rules, per node j with children k = 1..N (N <= K):

    z_j = sig(U_z x_j + sum_k Wk_z h_k + b_z)
    r_j = sig(U_r x_j + sum_k Wk_r h_k + b_r)
    c_j = tanh(U_h x_j + sum_k Wk_h (h_k * r_j) + b_h)
    h_j = z_j * sum_k h_k + (1 - z_j) * c_j

x_j is the embedding row at leaves and the zero vector at internal
nodes (the U terms vanish there).  The downward phase is the same rule
(one cell serves both directions) with its own Ud/Wd/bd tensors, the
node's upward state as input and the parent's downward state as the
only child; the root's downward state is defined as its upward state.
Each direction's states are then stacked into a matrix, one column per
node, and the attention head and classifiers work on whole matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

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
    """Pre-order flattening of a tree: parents precede their children."""

    nodes: list[LabeledTree]
    parents: list[int]           # -1 at the root
    children: list[list[int]]
    gold: np.ndarray             # node labels; -1 where unsupervised

    def __len__(self) -> int:
        return len(self.nodes)


def index_tree(tree: LabeledTree) -> TreeIndex:
    nodes, parents, children, gold = [], [], [], []
    stack = [(tree, -1)]
    while stack:
        node, parent = stack.pop()
        idx = len(nodes)
        nodes.append(node)
        parents.append(parent)
        children.append([])
        gold.append(-1 if node.label is None else node.label)
        if parent >= 0:
            children[parent].append(idx)
        stack.extend((child, idx) for child in reversed(node.children))
    return TreeIndex(nodes, parents, children, np.array(gold))


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
    """Slot ``key`` of ``params`` as a keyed leaf of ``tape``; the tape is
    asked first because the passes ask for every weight at every node."""
    return tape.keyed.get(key) or tape.input(slot(params.tensors, key), key=key)


@dataclass
class NodeStates:
    """Per-node activations; entries align with ``index`` (pre-order).

    ``H_up``/``H_down`` hold the same states as ``h_up``/``h_down``, one
    column per node, for the whole-tree attention and classifiers.
    """

    index: TreeIndex
    h_up: list[ValueRef]
    z_up: list[ValueRef]
    r_up: list[ValueRef]
    cand_up: list[ValueRef]
    H_up: ValueRef                                      # (dim, nodes)
    h_down: Optional[list[ValueRef]] = None
    z_down: Optional[list[Optional[ValueRef]]] = None   # None at the root
    r_down: Optional[list[Optional[ValueRef]]] = None
    cand_down: Optional[list[Optional[ValueRef]]] = None
    H_down: Optional[ValueRef] = None

@dataclass
class AttentionResult:
    """Normalized node weights and the pooled sentence vector."""

    weights: ValueRef   # (node count,)
    sentence: ValueRef  # (node representation width,)


@dataclass
class NodePredictions:
    """Classifier outputs; column or row j belongs to node j."""

    logits: ValueRef            # (classes, nodes), from the state classifier
    root: Optional[ValueRef]    # (classes,), from the pooled sentence vector
    probs: np.ndarray           # (nodes, classes); row 0 follows ``root`` if set
    labels: list[int]


# ---------------------------------------------------------------------------
# forward passes

# (input, child, bias) tensor names of each direction's gates
_UPWARD = ("U_{g}", "W_{g}_{k}", "b_{g}")
_DOWNWARD = ("Ud_{g}", "Wd_{g}", "bd_{g}")


def gru_cell(tape: Tape, params: ModelParams, names: tuple[str, str, str],
             x: Optional[ValueRef], kids: list[ValueRef],
             zero: Optional[ValueRef] = None):
    """One node update of the rule in the module docstring; returns
    (h, z, r, cand).

    ``names`` are a direction's tensor-name templates, ``x`` is None
    where the input terms vanish, and ``kids`` are the child states
    (top-down: the parent's downward state alone); ``zero`` stands in
    for the child sum of a leaf.
    """
    u_name, w_name, b_name = names
    p = partial(_param, tape, params)

    def preactivation(gate, inputs):
        terms = [] if x is None else [ad.matmul(tape, p(u_name.format(g=gate)), x)]
        terms += [ad.matmul(tape, p(w_name.format(g=gate, k=k)), h)
                  for k, h in enumerate(inputs, start=1)]
        terms.append(p(b_name.format(g=gate)))
        return ad.vsum(tape, terms)

    z = ad.sigmoid(tape, preactivation("z", kids))
    r = ad.sigmoid(tape, preactivation("r", kids))
    cand = ad.tanh(tape, preactivation("h", [ad.mul(tape, h, r) for h in kids]))
    if not kids:
        ksum = zero
    else:
        ksum = kids[0] if len(kids) == 1 else ad.vsum(tape, kids)
    return ad.blend(tape, z, ksum, cand), z, r, cand


def upward_pass(tree: LabeledTree, params: ModelParams, tape: Tape,
                vocab: Vocabulary, input_mask: MaskFn = None) -> NodeStates:
    """Bottom-up phase; leaves read (optionally masked) embedding rows."""
    idx = index_tree(tree)
    n = len(idx)
    h, z, r, cand = ([None] * n for _ in range(4))
    zero = tape.input(np.zeros(params.dim, dtype=params.dtype))

    # reversed pre-order puts every child before its parent
    for j in range(n - 1, -1, -1):
        node = idx.nodes[j]
        kids = idx.children[j]
        if len(kids) > params.max_children:
            raise ModelError(
                f"node arity {len(kids)} exceeds K={params.max_children}")
        x = None
        if node.is_leaf:
            x = _param(tape, params, ("emb", vocab.lookup(node.token)))
            if input_mask is not None:
                x = ad.mul(tape, x, tape.input(input_mask(params.dim)))
        h[j], z[j], r[j], cand[j] = gru_cell(tape, params, _UPWARD, x,
                                             [h[k] for k in kids], zero)

    return NodeStates(idx, h, z, r, cand, ad.stack(tape, h))


def downward_pass(states: NodeStates, params: ModelParams, tape: Tape) -> NodeStates:
    """Top-down phase; requires a completed upward pass.

    The root's downward state is defined to be its upward state; every
    other node blends the parent's downward state with a candidate
    driven by the node's own upward state.
    """
    if params.variant != VARIANT_TREEBIGRU:
        raise ModelError("downward pass needs treebigru parameters")
    if states.h_up is None or any(ref is None for ref in states.h_up):
        raise ModelError("downward pass requires completed upward states")
    idx = states.index
    n = len(idx)
    h, z, r, cand = ([None] * n for _ in range(4))

    h[0] = states.h_up[0]
    for j in range(1, n):  # pre-order: parents are already done
        h[j], z[j], r[j], cand[j] = gru_cell(tape, params, _DOWNWARD, states.h_up[j],
                                             [h[idx.parents[j]]])

    states.h_down, states.z_down, states.r_down, states.cand_down = h, z, r, cand
    states.H_down = ad.stack(tape, h)
    return states


def _require_downward(states: NodeStates, params: ModelParams, what: str) -> None:
    if params.variant == VARIANT_TREEBIGRU and states.H_down is None:
        raise ModelError(f"bidirectional {what} needs the downward pass")


def attention_pool(states: NodeStates, params: ModelParams,
                   tape: Tape) -> AttentionResult:
    """Score every node against the context vector and pool.

    Over the node matrix C (H_up, or [H_up; H_down] for treebigru) the
    scores are u_w . tanh(W_w C + b_w), normalized as
    ``params.attention_norm`` says (softmax, or "linear", which divides
    raw scores by their sum for comparison); the sentence vector is C
    times the weights.
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
    if params.attention_norm == "softmax":
        weights = ad.softmax(tape, scores)
    elif params.attention_norm == "linear":
        weights = ad.linear_norm(tape, scores)
    else:
        raise ModelError(f"unknown attention norm {params.attention_norm!r}")
    return AttentionResult(weights, ad.matmul(tape, nodes, weights))


def predict_nodes(states: NodeStates, params: ModelParams, tape: Tape,
                  attn: Optional[AttentionResult] = None,
                  feature_mask: MaskFn = None) -> NodePredictions:
    """Class logits, distributions, and argmax labels of every node.

    The state classifier maps the node matrices to a classes x nodes
    logit matrix in one product; with attention the root's logits come
    from the pooled sentence vector instead, and the matrix's root
    column goes unused.  ``feature_mask`` (dropout) draws one mask per
    classifier input.  Ties in the argmax resolve to the lowest class
    index.
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
        probs[0] = _softmax_columns(tape.value(root))
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
