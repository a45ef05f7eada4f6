"""Memory: importing arbogru keeps freed memory in the process on glibc,
and changes nothing elsewhere; scoring a forest holds no more than it
did before ``gru_tree`` ran on level-major rows; and ``backward`` uses
its tape up as it sweeps, so a training step holds less than it did
when the tape kept everything until backward returned.  Each allocator
case runs in its own interpreter, because the setting is process-wide
and made at import."""

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from arbogru.autodiff import Tape, backward
from arbogru.training import build_forest_graph, sentence_gradients

from conftest import random_params, synth_corpus, synth_vocab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting exists only on glibc")
def test_a_freed_array_comes_back_without_page_faults():
    # without the setting glibc unmaps or trims these on free, and the
    # second allocation faults in hundreds of fresh pages
    out = run_python("""
        import resource
        import numpy as np
        import arbogru

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        for mb in (4, 32, 64):
            entries = (mb << 20) // 8
            a = np.ones(entries)
            del a
            before = faults()
            a = np.ones(entries)
            print(mb, faults() - before)
            del a
    """)
    for line in out.splitlines():
        mb, faults = map(int, line.split())
        assert faults < 50, f"{mb} MB array faulted {faults} pages again"


@pytest.mark.parametrize("libc", ["other", "without_mallopt", "refusing"])
def test_import_without_the_setting_changes_nothing(libc):
    # a stand-in for ctypes.CDLL records what the import asks of the C
    # library; numpy is imported first so that only arbogru meets it
    out = run_python(f"""
        import ctypes
        import platform
        import numpy

        LIBC = {libc!r}
        opened, calls = [], []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 0

        class Library:
            def __init__(self, *args, **kwargs):
                opened.append(args)
                if LIBC == "refusing":
                    self.mallopt = Mallopt()

        ctypes.CDLL = Library
        platform.libc_ver = lambda *args, **kwargs: (
            ("musl", "1.2.4") if LIBC == "other" else ("glibc", "2.36"))

        import arbogru

        print(len(opened), calls)
        print(arbogru.gradient_check("treebigru", True, 3, trees=2))
    """)
    record, err = out.splitlines()
    opened, calls = record.split(" ", 1)
    assert int(opened) == (libc != "other")
    # a refused mmap threshold stops there: the trim threshold alone
    # would make things worse
    assert calls == ("[(-3, 1073741824)]" if libc == "refusing" else "[]")
    assert float(err) < 1e-4


# the tracemalloc peak of build_forest_graph below, in nodes x d float64
# matrices, measured at 5b21a72, whose gru_tree ran in node order
PARENT_SCORING_PEAK = {"treegru": 7.75, "treebigru": 16.02}


@pytest.mark.parametrize("variant,attention", [("treegru", False), ("treebigru", True)])
def test_scoring_a_forest_holds_at_most_one_more_state_matrix_per_direction(
        variant, attention):
    # the op keeps its gates in level-major rows and hands out node-major
    # states; a second copy of either, or a kept child buffer, breaks this
    vocab = synth_vocab()
    forest = synth_corpus(32, seed=5, max_nodes=41).trees
    params = random_params(variant, attention, 32, vocab, seed=1)
    build_forest_graph(Tape(), forest, params, vocab)  # warm every lazy cache
    tracemalloc.start()
    try:
        build_forest_graph(Tape(), forest, params, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    directions = 2 if variant == "treebigru" else 1
    matrix = forest.node_count * params.dim * 8
    assert peak <= (PARENT_SCORING_PEAK[variant] + directions) * matrix, peak / matrix


def step_case(variant, attention):
    vocab = synth_vocab()
    forest = synth_corpus(32, seed=5, max_nodes=41).trees
    return forest, random_params(variant, attention, 32, vocab, seed=1), vocab


# the tracemalloc peak of sentence_gradients below, in nodes x d float64
# matrices: measured at ad9c815, whose backward kept every gradient,
# closure and value until it returned, and the bound this one keeps
# (measured 14.0 and 22.4)
PARENT_STEP_PEAK = {"treegru": 14.84, "treebigru": 30.50}
STEP_PEAK = {"treegru": 14.5, "treebigru": 23.5}


@pytest.mark.parametrize("variant,attention", [("treegru", False), ("treebigru", True)])
def test_a_training_step_frees_its_tape_as_backward_sweeps(variant, attention):
    forest, params, vocab = step_case(variant, attention)
    sentence_gradients(forest, params, vocab)  # warm every lazy cache
    tracemalloc.start()
    try:
        sentence_gradients(forest, params, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = forest.node_count * params.dim * 8
    assert STEP_PEAK[variant] < PARENT_STEP_PEAK[variant]
    assert peak <= STEP_PEAK[variant] * matrix, peak / matrix


def test_backward_leaves_only_the_leaves_and_the_loss_value():
    forest, params, vocab = step_case("treebigru", True)
    tape = Tape()
    loss = build_forest_graph(tape, forest, params, vocab).tree_losses
    length = len(tape)
    grads = backward(tape, loss)
    assert len(tape) == len(grads) == length
    leaves = [i for i in range(length) if not tape._parents[i]]
    assert {ref.index for ref in tape.keyed.values()} <= set(leaves)
    for i in range(length):
        assert tape._vjps[i] is None
        if i in leaves:
            assert tape._values[i] is not None and grads[i] is not None
        else:
            assert grads[i] is None
            assert (tape._values[i] is not None) == (i == loss.index)


def test_a_used_tape_cannot_be_differentiated_again():
    # a second sweep would read the dropped entries as missing gradients
    forest, params, vocab = step_case("treegru", False)
    tape = Tape()
    loss = build_forest_graph(tape, forest, params, vocab).tree_losses
    backward(tape, loss)
    with pytest.raises(ValueError, match="already been differentiated"):
        backward(tape, loss)
