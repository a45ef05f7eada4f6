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
nodes (the U terms vanish there).  The downward phase reuses the same
shape of rule with the node's upward state as input and the parent's
downward state in place of the child sum; the root's downward state is
defined as its upward state.
"""

from __future__ import annotations

from dataclasses import dataclass
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

MaskFn = Optional[Callable[[int], np.ndarray]]


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
        rep = rep_dim(variant, d)
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


def rep_dim(variant: str, dim: int) -> int:
    """Width of a node representation as seen by attention and pooling."""
    return 2 * dim if variant == VARIANT_TREEBIGRU else dim


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

    def __len__(self) -> int:
        return len(self.nodes)


def index_tree(tree: LabeledTree) -> TreeIndex:
    nodes, parents, children = [], [], []

    def visit(node, parent):
        idx = len(nodes)
        nodes.append(node)
        parents.append(parent)
        children.append([])
        if parent >= 0:
            children[parent].append(idx)
        for child in node.children:
            visit(child, idx)

    visit(tree, -1)
    return TreeIndex(nodes, parents, children)


class TapeBinding:
    """Registers each parameter tensor on a tape at most once.

    Sharing one binding across the upward, downward, attention and
    classifier passes is what makes gradients accumulate correctly for
    weights reused at every tree node.
    """

    def __init__(self, tape: Tape, params: ModelParams):
        self.tape = tape
        self.params = params
        self.refs: dict[str, ValueRef] = {}
        self.emb_rows: dict[int, ValueRef] = {}
        self._zero: Optional[ValueRef] = None

    def ref(self, name: str) -> ValueRef:
        got = self.refs.get(name)
        if got is None:
            got = self.refs[name] = self.tape.input(self.params.tensors[name])
        return got

    def emb_row(self, row: int) -> ValueRef:
        got = self.emb_rows.get(row)
        if got is None:
            got = self.emb_rows[row] = self.tape.input(self.params.tensors["emb"][row])
        return got

    def zeros(self) -> ValueRef:
        if self._zero is None:
            self._zero = self.tape.input(
                np.zeros(self.params.dim, dtype=self.params.dtype))
        return self._zero


@dataclass
class NodeStates:
    """Per-node activations; entries align with ``index`` (pre-order)."""

    index: TreeIndex
    binding: TapeBinding
    h_up: list[ValueRef]
    z_up: list[ValueRef]
    r_up: list[ValueRef]
    cand_up: list[ValueRef]
    h_down: Optional[list[ValueRef]] = None
    z_down: Optional[list[Optional[ValueRef]]] = None   # None at the root
    r_down: Optional[list[Optional[ValueRef]]] = None
    cand_down: Optional[list[Optional[ValueRef]]] = None

    @property
    def tape(self) -> Tape:
        return self.binding.tape


@dataclass
class AttentionResult:
    """Normalized node weights and the pooled sentence vector."""

    weights: ValueRef   # (node count,)
    sentence: ValueRef  # (rep_dim,)


@dataclass
class NodePredictions:
    logits: list[ValueRef]
    probs: list[np.ndarray]
    labels: list[int]


# ---------------------------------------------------------------------------
# forward passes

def upward_pass(tree: LabeledTree, params: ModelParams, tape: Tape,
                vocab: Vocabulary, input_mask: MaskFn = None,
                binding: Optional[TapeBinding] = None) -> NodeStates:
    """Bottom-up phase; leaves read (optionally masked) embedding rows."""
    idx = tree if isinstance(tree, TreeIndex) else index_tree(tree)
    b = binding or TapeBinding(tape, params)
    n = len(idx)
    h = [None] * n
    z = [None] * n
    r = [None] * n
    cand = [None] * n

    # reversed pre-order puts every child before its parent
    for j in range(n - 1, -1, -1):
        node = idx.nodes[j]
        kids = idx.children[j]
        if len(kids) > params.max_children:
            raise ModelError(
                f"node arity {len(kids)} exceeds K={params.max_children}")

        x = None
        if node.is_leaf:
            x = b.emb_row(vocab.lookup(node.token))
            if input_mask is not None:
                x = ad.mul(tape, x, tape.input(input_mask(params.dim)))

        def gate_terms(gate, child_refs):
            terms = []
            if x is not None:
                terms.append(ad.matvec(tape, b.ref(f"U_{gate}"), x))
            for pos, ref in enumerate(child_refs, start=1):
                terms.append(ad.matvec(tape, b.ref(f"W_{gate}_{pos}"), ref))
            terms.append(b.ref(f"b_{gate}"))
            return terms

        kid_h = [h[k] for k in kids]
        z[j] = ad.sigmoid(tape, ad.vsum(tape, gate_terms("z", kid_h)))
        r[j] = ad.sigmoid(tape, ad.vsum(tape, gate_terms("r", kid_h)))
        gated = [ad.mul(tape, hk, r[j]) for hk in kid_h]
        cand[j] = ad.tanh(tape, ad.vsum(tape, gate_terms("h", gated)))
        if kids:
            ksum = kid_h[0] if len(kid_h) == 1 else ad.vsum(tape, kid_h)
        else:
            ksum = b.zeros()
        h[j] = ad.blend(tape, z[j], ksum, cand[j])

    return NodeStates(idx, b, h, z, r, cand)


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
    idx, b = states.index, states.binding
    n = len(idx)
    h = [None] * n
    z: list[Optional[ValueRef]] = [None] * n
    r: list[Optional[ValueRef]] = [None] * n
    cand: list[Optional[ValueRef]] = [None] * n

    h[0] = states.h_up[0]
    for j in range(1, n):  # pre-order: parents are already done
        p = idx.parents[j]
        z[j] = ad.sigmoid(tape, ad.vsum(tape, [
            ad.matvec(tape, b.ref("Ud_z"), states.h_up[j]),
            ad.matvec(tape, b.ref("Wd_z"), h[p]),
            b.ref("bd_z")]))
        r[j] = ad.sigmoid(tape, ad.vsum(tape, [
            ad.matvec(tape, b.ref("Ud_r"), states.h_up[j]),
            ad.matvec(tape, b.ref("Wd_r"), h[p]),
            b.ref("bd_r")]))
        cand[j] = ad.tanh(tape, ad.vsum(tape, [
            ad.matvec(tape, b.ref("Ud_h"), states.h_up[j]),
            ad.matvec(tape, b.ref("Wd_h"), ad.mul(tape, h[p], r[j])),
            b.ref("bd_h")]))
        h[j] = ad.blend(tape, z[j], h[p], cand[j])

    states.h_down, states.z_down, states.r_down, states.cand_down = h, z, r, cand
    return states


def node_representation(states: NodeStates, j: int, tape: Tape) -> ValueRef:
    """h_j for the unidirectional model, [h_up; h_down] for the bidirectional."""
    if states.binding.params.variant == VARIANT_TREEBIGRU:
        if states.h_down is None:
            raise ModelError("bidirectional representation needs the downward pass")
        return ad.concat(tape, [states.h_up[j], states.h_down[j]])
    return states.h_up[j]


def attention_pool(states: NodeStates, params: ModelParams,
                   tape: Tape) -> AttentionResult:
    """Score every node against the context vector and pool.

    Each representation is projected through tanh(W_w . + b_w), scored
    by a dot product with u_w, and the scores are normalized as
    ``params.attention_norm`` says (softmax, or "linear", which divides
    raw scores by their sum for comparison).  The sentence vector is the
    weighted sum of the raw node representations.
    """
    if not params.attention:
        raise ModelError("parameters carry no attention tensors")
    idx, b = states.index, states.binding
    n = len(idx)
    if n == 0:
        raise ModelError("attention over an empty node set")
    reps = [node_representation(states, j, tape) for j in range(n)]
    scores = []
    for rep in reps:
        u = ad.tanh(tape, ad.add(tape, ad.matvec(tape, b.ref("W_w"), rep),
                                 b.ref("b_w")))
        scores.append(ad.dot(tape, u, b.ref("u_w")))
    stacked = ad.stack(tape, scores)
    if params.attention_norm == "softmax":
        weights = ad.softmax(tape, stacked)
    elif params.attention_norm == "linear":
        weights = ad.linear_norm(tape, stacked)
    else:
        raise ModelError(f"unknown attention norm {params.attention_norm!r}")
    pooled = ad.vsum(tape, [ad.scale(tape, ad.pick(tape, weights, j), reps[j])
                            for j in range(n)])
    return AttentionResult(weights, pooled)


def predict_nodes(states: NodeStates, params: ModelParams, tape: Tape,
                  attn: Optional[AttentionResult] = None,
                  feature_mask: MaskFn = None) -> NodePredictions:
    """Per-node class logits, distributions, and argmax labels.

    Without attention every node goes through the state classifier;
    with attention the root's logits come from the pooled sentence
    vector instead.  ``feature_mask`` (dropout) applies to each
    classifier input vector.  Ties in the argmax resolve to the lowest
    class index.
    """
    idx, b = states.index, states.binding
    bidir = params.variant == VARIANT_TREEBIGRU
    if params.attention and attn is None:
        raise ModelError("attention parameters require an AttentionResult")

    def masked(ref):
        if feature_mask is None:
            return ref
        return ad.mul(tape, ref, tape.input(feature_mask(ref.shape[0])))

    logits = []
    for j in range(len(idx)):
        if j == 0 and attn is not None:
            feat = masked(attn.sentence)
            if bidir:
                lg = ad.add(tape, ad.matvec(tape, b.ref("W_s_att"), feat),
                            b.ref("b_s_att"))
            else:
                lg = ad.add(tape, ad.matvec(tape, b.ref("W_s"), feat), b.ref("b_s"))
        elif bidir:
            if states.h_down is None:
                raise ModelError("bidirectional classifier needs the downward pass")
            lg = ad.vsum(tape, [
                ad.matvec(tape, b.ref("W_s_up"), masked(states.h_up[j])),
                ad.matvec(tape, b.ref("W_s_dn"), masked(states.h_down[j])),
                b.ref("b_s")])
        else:
            lg = ad.add(tape, ad.matvec(tape, b.ref("W_s"), masked(states.h_up[j])),
                        b.ref("b_s"))
        logits.append(lg)

    probs = [_stable_softmax(tape.value(lg)) for lg in logits]
    labels = [int(np.argmax(p)) for p in probs]
    return NodePredictions(logits, probs, labels)


def _stable_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


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
