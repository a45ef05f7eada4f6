"""Tree-structured GRU networks with structural attention for sentiment
classification over constituency parse trees."""

from .autodiff import Tape, ValueRef, backward
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .embeddings import (EmbeddingMatrix, Vocabulary, build_vocab, load_glove,
                         load_vocab, random_embeddings, save_vocab)
from .model import (AttentionResult, ModelParams, NodeStates, attention_pool,
                    downward_pass, init_params, itemize_parameters,
                    predict_nodes, upward_pass)
from .training import (Metrics, OptimizerState, SplitCorpora, TrainConfig,
                       TrainResult, adagrad_step, evaluate, gradient_check,
                       train)
from .treebank import (Corpus, Forest, TreebankError, load_corpus,
                       parse_tree, serialize_tree, to_binary_task)

__version__ = "0.1.0"

__all__ = [
    "AttentionResult", "CheckpointError", "Corpus", "EmbeddingMatrix",
    "Forest", "Metrics", "ModelParams", "NodeStates",
    "OptimizerState", "SplitCorpora", "Tape", "TrainConfig", "TrainResult", "TreebankError",
    "Vocabulary",
    "ValueRef", "adagrad_step", "attention_pool", "backward", "build_vocab",
    "downward_pass", "evaluate", "gradient_check",
    "init_params", "itemize_parameters", "load_checkpoint", "load_corpus",
    "load_glove", "load_vocab", "parse_tree", "predict_nodes",
    "random_embeddings", "save_checkpoint", "save_vocab", "serialize_tree",
    "to_binary_task", "train", "upward_pass",
]
