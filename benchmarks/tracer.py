"""Outside-in tracing: timing wrappers around the package's public calls.

A ``Tracer`` replaces each named function, in every ``arbogru`` module
namespace that holds it (``arbogru.cli`` and ``arbogru.training`` call
several functions through names they imported), with a wrapper that
records a span: name, start, end, parent span and an optional count
read from the call.  Spans stay in memory until the run writes them
out.  ``uninstall`` puts every original back.  A function the program
no longer has is listed in ``missing`` instead of failing the run, and
the metrics it fed are left out of the report.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def _tape_len(args, kwargs, result):
    return len(args[0])


def _tree_count(args, kwargs, result):
    return len(result.trees)


def _eval_count(args, kwargs, result):
    return len(args[0].trees)


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _coverage(args, kwargs, result):
    return result.coverage


# (span name, module, attribute path, count read from the call)
SPANS = [
    ("treebank.load_corpus", "arbogru.treebank", "load_corpus", _tree_count),
    ("treebank.parse_tree", "arbogru.treebank", "parse_tree", None),
    ("embeddings.build_vocab", "arbogru.embeddings", "build_vocab", None),
    ("embeddings.load_glove", "arbogru.embeddings", "load_glove", _coverage),
    ("embeddings.load_vocab", "arbogru.embeddings", "load_vocab", None),
    ("checkpoint.load", "arbogru.checkpoint", "load_checkpoint", None),
    ("checkpoint.save", "arbogru.checkpoint", "save_checkpoint", _saved_bytes),
    ("model.init_params", "arbogru.model", "init_params", None),
    ("model.upward_pass", "arbogru.model", "upward_pass", None),
    ("model.downward_pass", "arbogru.model", "downward_pass", None),
    ("model.attention_pool", "arbogru.model", "attention_pool", None),
    ("model.predict_nodes", "arbogru.model", "predict_nodes", None),
    ("model.copy", "arbogru.model", "ModelParams.copy", None),
    ("autodiff.backward", "arbogru.autodiff", "backward", _tape_len),
    ("training.train", "arbogru.training", "train", None),
    ("training.sentence_gradients", "arbogru.training", "sentence_gradients", None),
    ("training.merge", "arbogru.training", "GradTable.add", None),
    ("training.l2_penalty", "arbogru.training", "l2_penalty", None),
    ("training.add_l2_gradients", "arbogru.training", "add_l2_gradients", None),
    ("training.adagrad_step", "arbogru.training", "adagrad_step", None),
    ("training.evaluate", "arbogru.training", "evaluate", _eval_count),
    ("cli.predict", "arbogru.cli", "run_predict", None),
]

# The two spans every run needs for its end-to-end figures: the schedule's
# dev evaluations and best-dev snapshots are timed apart from training.
PROBES = ("training.evaluate", "model.copy")


class Span:
    __slots__ = ("name", "start", "end", "parent", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, names: Optional[tuple] = None):
        self.specs = [s for s in SPANS if names is None or s[0] in names]
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for name, module_name, path, count in self.specs:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, count)
            if owner_name:  # a method: patch the class itself
                self._patch(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "arbogru":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Position in the span list; pass to ``select`` to see later spans."""
        return len(self.spans)

    # -- queries -----------------------------------------------------------

    def select(self, name: str, since: int = 0) -> list[Span]:
        """Spans called ``name`` recorded from position ``since`` on."""
        return [span for span in self.spans[since:] if span.name == name]

    def ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            up = self.spans[parent]
            if up.name == name:
                return True
            parent = up.parent
        return False

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Each layer's time minus the time of the spans it called."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.seconds
        layers = defaultdict(float)
        for i, span in enumerate(self.spans):
            layers[span.name.split(".")[0]] += span.seconds - child_time[i]
        return dict(layers)

    def has(self, name: str) -> bool:
        return any(s[0] == name for s in self.specs) and name not in self.missing

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.count] for s in self.spans]
