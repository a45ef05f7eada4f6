"""Tree-structured GRU networks with structural attention for sentiment
classification over constituency parse trees."""

import ctypes
import platform

from .autodiff import Tape, ValueRef, backward
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .embeddings import (EmbeddingMatrix, Vocabulary, build_vocab, load_glove,
                         load_vocab, random_embeddings, save_vocab)
from .model import (AttentionResult, ModelParams, NodeStates, attention_pool,
                    downward_pass, init_params, itemize_parameters,
                    predict_nodes, upward_pass)
from .training import (Metrics, SplitCorpora, TrainConfig, TrainResult,
                       adagrad_step, evaluate, gradient_check, train)
from .treebank import (Corpus, Forest, TreebankError, load_corpus,
                       parse_tree, serialize_tree, to_binary_task)

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h) and the value given to both: an
# array below it is carved from the heap, and freed heap memory stays
# in the process until it holds more than it.  It lies above the
# largest array a call allocates, the recipe's 52 MB f64 embedding.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BYTES = 1 << 30


def _keep_freed_memory() -> None:
    """Keep the memory the process frees for its next allocations.

    A batch builds and frees the same node-major buffers as the one
    before it.  By default glibc hands them back to the kernel on free,
    so every batch faults them in again as zeroed pages.  Both
    thresholds are set, because setting one turns off glibc's own
    adjustment of the other; the mmap threshold goes first, since a
    glibc that caps it refuses the value, and then nothing is set.  On
    any other C library this does nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)


_keep_freed_memory()

__all__ = [
    "AttentionResult", "CheckpointError", "Corpus", "EmbeddingMatrix",
    "Forest", "Metrics", "ModelParams", "NodeStates",
    "SplitCorpora", "Tape", "TrainConfig", "TrainResult", "TreebankError",
    "Vocabulary",
    "ValueRef", "adagrad_step", "attention_pool", "backward", "build_vocab",
    "downward_pass", "evaluate", "gradient_check",
    "init_params", "itemize_parameters", "load_checkpoint", "load_corpus",
    "load_glove", "load_vocab", "parse_tree", "predict_nodes",
    "random_embeddings", "save_checkpoint", "save_vocab", "serialize_tree",
    "to_binary_task", "train", "upward_pass",
]
