import numpy as np
import pytest

from arbogru import autodiff as ad
from arbogru.autodiff import ShapeMismatch, Tape, backward

FD_EPS = 1e-5


def fd_gradients(objective, arrays):
    """Central finite differences of ``objective()`` over each array in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + FD_EPS
            hi = objective()
            flat[i] = saved - FD_EPS
            lo = objective()
            flat[i] = saved
            gflat[i] = (hi - lo) / (2 * FD_EPS)
        grads.append(g)
    return grads


def check_op(build, arrays, tol=1e-6):
    """``build(tape, refs) -> scalar ref``; compares backward against FD."""

    def objective():
        tape = Tape()
        refs = [tape.input(a) for a in arrays]
        return float(tape.value(build(tape, refs)))

    tape = Tape()
    refs = [tape.input(a) for a in arrays]
    loss = build(tape, refs)
    grads = backward(tape, loss)
    numeric = fd_gradients(objective, arrays)
    for ref, arr, fd in zip(refs, arrays, numeric):
        analytic = grads[ref.index]
        if analytic is None:
            analytic = np.zeros_like(arr)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
        assert np.max(np.abs(analytic - fd) / denom) < tol


def rnd(rng, *shape):
    return rng.uniform(-2.0, 2.0, shape)


# ---------------------------------------------------------------------------
# forward values

def test_tanh_at_zero():
    tape = Tape()
    out = ad.tanh(tape, tape.input(np.zeros(3)))
    assert np.allclose(tape.value(out), 0.0)


def test_softmax_symmetry():
    tape = Tape()
    out = ad.softmax(tape, tape.input(np.zeros(2)), [0, 2])
    assert np.allclose(tape.value(out), [0.5, 0.5])


def test_softmax_handles_large_logits():
    tape = Tape()
    out = ad.softmax(tape, tape.input(np.array([1000.0, 1000.0, -1000.0])), [0, 3])
    value = tape.value(out)
    assert np.isfinite(value).all()
    assert value.sum() == pytest.approx(1.0)


def test_cross_entropy_matches_log():
    tape = Tape()
    logits = tape.input(np.zeros((1, 5)))
    loss = ad.softmax_cross_entropy(tape, logits, [2], [0, 1])
    assert tape.value(loss) == pytest.approx([np.log(5.0)])


# ---------------------------------------------------------------------------
# backward analytics

def test_dot_gradient_is_bilinear():
    tape = Tape()
    w = tape.input(np.array([1.0, 2.0]))
    x = tape.input(np.array([3.0, 4.0]))
    grads = backward(tape, ad.linear(tape, w, x))
    assert np.array_equal(grads[w.index], [3.0, 4.0])
    assert np.array_equal(grads[x.index], [1.0, 2.0])


def test_fanout_accumulates():
    tape = Tape()
    w = tape.input(np.array([1.5, -2.0]))
    loss = ad.linear(tape, w, w)
    grads = backward(tape, loss)
    assert np.allclose(grads[w.index], 2.0 * np.array([1.5, -2.0]))


def test_backward_of_vector_is_backward_of_its_sum():
    # a vector loss is seeded with ones: the gradients are those of the
    # sum of its entries, as if it were summed against a ones vector
    rng = np.random.default_rng(4)
    arrays = [rnd(rng, 3, 4), rnd(rng, 4)]

    def run(summed):
        tape = Tape()
        m, x = (tape.input(a) for a in arrays)
        loss = ad.tanh(tape, ad.linear(tape, m, x))
        if summed:
            loss = ad.linear(tape, loss, tape.input(np.ones(3)))
        grads = backward(tape, loss)
        return [grads[i] for i in (m.index, x.index)]

    for got, want in zip(run(False), run(True)):
        np.testing.assert_array_equal(got, want)


def test_backward_deterministic():
    rng = np.random.default_rng(3)
    arrays = [rnd(rng, 4, 4), rnd(rng, 4), rnd(rng, 4)]

    def run():
        tape = Tape()
        m, x, y = (tape.input(a) for a in arrays)
        h = ad.tanh(tape, ad.linear(tape, m, x))
        loss = ad.linear(tape, ad.mask(tape, h, arrays[2]), y)
        return backward(tape, loss), m, x, y

    first, m1, x1, y1 = run()
    second, m2, x2, y2 = run()
    for a, b in ((m1, m2), (x1, x2), (y1, y2)):
        assert np.array_equal(first[a.index], second[b.index])


# ---------------------------------------------------------------------------
# shape discipline

@pytest.mark.parametrize("build,shapes,name", [
    (lambda t, r: ad.linear(t, r[0], r[1]), [(3, 3), (4,)], "linear"),
    (lambda t, r: ad.add(t, r[0], r[1]), [(3,), (4,)], "add"),
    (lambda t, r: ad.mask(t, r[0], np.ones(4)), [(3,)], "mask"),
    (lambda t, r: ad.linear(t, r[0], r[1]), [(3,), (4,)], "linear"),
    (lambda t, r: ad.add(t, r[0], r[1]), [(2, 3), (3, 2)], "add"),
    (lambda t, r: ad.mask(t, r[0], np.ones(2)), [(2, 3)], "mask"),
    (lambda t, r: ad.gather(t, r[0], [0]), [(3,)], "gather"),
    (lambda t, r: ad.concat(t, r), [(2, 3), (3, 3)], "concat"),
    (lambda t, r: ad.linear(t, r[0], r[1], bias=r[2]), [(4, 3), (2, 3), (4,)], "linear"),
    (lambda t, r: ad.linear(t, r[0], r[1]), [(2, 3, 4), (4,)], "linear"),
    (lambda t, r: ad.softmax_cross_entropy(t, r[0], [0, 1], [0, 2]), [(3, 5)],
     "softmax_cross_entropy"),
    (lambda t, r: ad.put_rows(t, r[0], [0], r[1]), [(3, 2), (1, 3)], "put_rows"),
    (lambda t, r: ad.put_rows(t, r[0], [0], r[1]), [(3, 2), (2, 2)], "put_rows"),
    (lambda t, r: ad.put_rows(t, r[0], [0], r[1]), [(3,), (1,)], "put_rows"),
])
def test_shape_mismatch_names_op(build, shapes, name):
    tape = Tape()
    refs = [tape.input(np.zeros(s)) for s in shapes]
    with pytest.raises(ShapeMismatch, match=name):
        build(tape, refs)


def test_cross_entropy_gold_bounds():
    tape = Tape()
    logits = tape.input(np.zeros((1, 3)))
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(tape, logits, [3], [0, 1])
    matrix = tape.input(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(tape, matrix, np.array([0, 3]), [0, 2])


# ---------------------------------------------------------------------------
# per-op finite-difference checks on random inputs in [-2, 2]

def test_fd_matvec(rng):
    # matrix times vector, as the attention scores apply u_w
    probe = rnd(rng, 3)
    check_op(lambda t, r: ad.linear(t, ad.linear(t, r[0], r[1]), t.input(probe)),
             [rnd(rng, 3, 4), rnd(rng, 4)])


def test_fd_add_mask(rng):
    mask, probe = rnd(rng, 5), rnd(rng, 5)
    check_op(lambda t, r: ad.linear(t, ad.mask(t, ad.add(t, r[0], r[1]), mask),
                                    t.input(probe)),
             [rnd(rng, 5), rnd(rng, 5)])


def test_mask_is_no_tape_value(rng):
    # a dropout mask is a plain array: the masked value's gradient is
    # the output gradient times the mask, and the mask is no leaf
    x, mask, probe = rnd(rng, 2, 5), rnd(rng, 2, 5), rnd(rng, 5)
    tape = Tape()
    xr = tape.input(x)
    masked = ad.mask(tape, xr, mask)
    assert len(tape) == 2 and tape._parents[masked.index] == (xr.index,)
    np.testing.assert_array_equal(tape.value(masked), x * mask)
    loss = reduce_rows(tape, masked, np.ones(2), probe)
    np.testing.assert_array_equal(backward(tape, loss)[xr.index], probe * mask)


def test_fd_tanh(rng):
    probe = rnd(rng, 6)
    check_op(lambda t, r: ad.linear(t, ad.tanh(t, ad.tanh(t, r[0])), t.input(probe)),
             [rnd(rng, 6)])


def reduce_rows(t, matrix, row_probe, column_probe):
    """``row_probe . matrix . column_probe`` as a scalar tape value."""
    return ad.linear(t, ad.linear(t, matrix, t.input(column_probe)), t.input(row_probe))


def test_fd_linear_matrix_bias(rng):
    # rows of inputs through an (out, in) matrix, as the classifiers and
    # the attention projection apply theirs, with and without a bias
    rows, cols = rnd(rng, 4), rnd(rng, 3)
    check_op(lambda t, r: reduce_rows(t, ad.linear(t, r[0], r[1], bias=r[2]), rows, cols),
             [rnd(rng, 4, 5), rnd(rng, 3, 5), rnd(rng, 3)])
    check_op(lambda t, r: reduce_rows(t, ad.linear(t, r[0], r[1]), rows, cols),
             [rnd(rng, 4, 5), rnd(rng, 3, 5)])


def test_fd_linear_dot(rng):
    # vector times vector, as a batch sums its tree losses
    check_op(lambda t, r: ad.linear(t, r[0], r[1]), [rnd(rng, 4), rnd(rng, 4)])


def test_fd_softmax(rng):
    probe = rnd(rng, 5)
    check_op(lambda t, r: ad.linear(t, ad.softmax(t, r[0], [0, 5]), t.input(probe)),
             [rnd(rng, 5)])


def test_fd_linear_norm(rng):
    probe = rnd(rng, 4)
    check_op(lambda t, r: ad.linear(t, ad.linear_norm(t, r[0], [0, 4]), t.input(probe)),
             [rng.uniform(0.5, 2.0, 4)])


def test_fd_cross_entropy(rng):
    ones = np.ones(1)
    check_op(lambda t, r: ad.linear(t, ad.softmax_cross_entropy(t, r[0], [1], [0, 1]),
                                    t.input(ones)),
             [rnd(rng, 1, 5)])


def test_fd_cross_entropy_matrix(rng):
    ones = np.ones(1)
    check_op(lambda t, r: ad.linear(t, ad.softmax_cross_entropy(
        t, r[0], np.array([1, -1, 4, 0]), [0, 4]), t.input(ones)),
             [rnd(rng, 4, 5)])


def test_cross_entropy_matrix_sums_supervised_columns(rng):
    # one gold label per row; the loss sums the supervised rows
    logits = rnd(rng, 4, 5)
    gold = np.array([3, -1, 0, 3])
    tape = Tape()
    ref = tape.input(logits)
    total = tape.value(ad.softmax_cross_entropy(tape, ref, gold, [0, 4]))
    rows = [float(tape.value(ad.softmax_cross_entropy(
        tape, tape.input(logits[j:j + 1]), gold[j:j + 1], [0, 1]))[0])
            for j in (0, 2, 3)]
    assert total.shape == (1,)
    assert total[0] == pytest.approx(sum(rows), rel=1e-14)
    loss = ad.linear(tape, ad.softmax_cross_entropy(tape, ref, gold, [0, 4]),
                     tape.input(np.ones(1)))
    grad = backward(tape, loss)[ref.index]
    assert np.array_equal(grad[1], np.zeros(5))  # the unsupervised row


# segments of a 7-long axis: 3 nodes, a 1-node segment, 3 nodes
SEGMENTS = np.array([0, 3, 4, 7])


def test_fd_segment_softmax(rng):
    probe = rnd(rng, 7)
    check_op(lambda t, r: ad.linear(t, ad.softmax(t, r[0], SEGMENTS), t.input(probe)),
             [rnd(rng, 7)])


def test_fd_segment_linear_norm(rng):
    probe = rnd(rng, 7)
    check_op(lambda t, r: ad.linear(t, ad.linear_norm(t, r[0], SEGMENTS),
                                    t.input(probe)),
             [rng.uniform(0.5, 2.0, 7)])


def test_segment_norms_equal_one_call_per_segment(rng):
    x = rng.uniform(0.5, 2.0, 7)
    for op in (ad.softmax, ad.linear_norm):
        tape = Tape()
        whole = tape.value(op(tape, tape.input(x), SEGMENTS))
        for lo, hi in zip(SEGMENTS[:-1], SEGMENTS[1:]):
            alone = tape.value(op(tape, tape.input(x[lo:hi]), [0, hi - lo]))
            np.testing.assert_allclose(whole[lo:hi], alone, rtol=1e-15, atol=0)
        assert whole[3] == 1.0  # a 1-node segment takes all its weight


def test_linear_norm_names_the_degenerate_segment():
    tape = Tape()
    scores = tape.input(np.array([1.0, 2.0, 0.5, -0.5, 3.0]))
    with pytest.raises(FloatingPointError, match="segment 1 sum to ~0"):
        ad.linear_norm(tape, scores, [0, 2, 4, 5])


def test_fd_pool(rng):
    rows, cols = rnd(rng, 3), rnd(rng, 4)
    check_op(lambda t, r: reduce_rows(t, ad.pool(t, r[0], r[1], SEGMENTS), rows, cols),
             [rnd(rng, 7, 4), rnd(rng, 7)])


def test_pool_weights_each_segment_on_its_own(rng):
    C, w = rnd(rng, 7, 4), rnd(rng, 7)
    tape = Tape()
    pooled = tape.value(ad.pool(tape, tape.input(C), tape.input(w), SEGMENTS))
    assert pooled.shape == (3, 4)
    for t, (lo, hi) in enumerate(zip(SEGMENTS[:-1], SEGMENTS[1:])):
        np.testing.assert_allclose(pooled[t], w[lo:hi] @ C[lo:hi],
                                   rtol=1e-14, atol=1e-15)


def test_fd_segment_cross_entropy(rng):
    probe = rnd(rng, 3)
    gold = np.array([1, -1, 4, 0, 2, -1, 3])
    check_op(lambda t, r: ad.linear(t, ad.softmax_cross_entropy(t, r[0], gold, SEGMENTS),
                                    t.input(probe)),
             [rnd(rng, 7, 5)])


def test_segment_cross_entropy_sums_each_segment(rng):
    logits, gold = rnd(rng, 7, 5), np.array([1, -1, 4, 0, 2, -1, 3])
    tape = Tape()
    per_segment = tape.value(ad.softmax_cross_entropy(tape, tape.input(logits), gold,
                                                      SEGMENTS))
    for t, (lo, hi) in enumerate(zip(SEGMENTS[:-1], SEGMENTS[1:])):
        alone = ad.softmax_cross_entropy(tape, tape.input(logits[lo:hi]), gold[lo:hi],
                                         [0, hi - lo])
        assert per_segment[t] == pytest.approx(float(tape.value(alone)[0]), rel=1e-14)


def test_fd_gather(rng):
    # row 2 is read twice and rows 1 and 3 never
    table, index = rnd(rng, 4, 2), [2, 0, 2]
    rows, cols = rnd(rng, 3), rnd(rng, 2)

    def build(t, r):
        return reduce_rows(t, ad.gather(t, r[0], index), rows, cols)

    check_op(build, [table])
    tape = Tape()
    ref = tape.input(table)
    gathered = ad.gather(tape, ref, index)
    np.testing.assert_array_equal(tape.value(gathered), table[index])
    grad = backward(tape, build(tape, [ref]))[ref.index]
    outer = np.multiply.outer(rows, cols)  # the gradient of each gathered row
    np.testing.assert_array_equal(grad[[1, 3]], 0.0)
    np.testing.assert_array_equal(grad[2], outer[0] + outer[2])
    np.testing.assert_array_equal(grad[0], outer[1])


def test_fd_put_rows(rng):
    # rows 2 and 0 of a replaced, as the sentence classifier's logits
    # replace the roots' rows
    a, b, rows = rnd(rng, 4, 3), rnd(rng, 2, 3), [2, 0]
    probe_rows, cols = rnd(rng, 4), rnd(rng, 3)

    def build(t, r):
        return reduce_rows(t, ad.put_rows(t, r[0], rows, r[1]), probe_rows, cols)

    check_op(build, [a, b])
    tape = Tape()
    ar, br = tape.input(a), tape.input(b)
    out = tape.value(ad.put_rows(tape, ar, rows, br))
    np.testing.assert_array_equal(out[rows], b)
    np.testing.assert_array_equal(out[[1, 3]], a[[1, 3]])
    grads = backward(tape, build(tape, [ar, br]))
    np.testing.assert_array_equal(grads[ar.index][rows], 0.0)  # replaced rows
    np.testing.assert_array_equal(grads[br.index],
                                  np.multiply.outer(probe_rows[rows], cols))


def test_fd_concat(rng):
    probe = rnd(rng, 7)
    check_op(lambda t, r: ad.linear(t, ad.concat(t, list(r)), t.input(probe)),
             [rnd(rng, 3), rnd(rng, 4)])


def test_fd_concat_matrices(rng):
    rows, cols = rnd(rng, 3), rnd(rng, 5)
    check_op(lambda t, r: reduce_rows(t, ad.concat(t, list(r)), rows, cols),
             [rnd(rng, 3, 2), rnd(rng, 3, 3)])


def test_fd_shared_weights(rng):
    # one matrix applied to two inputs: gradient contributions must sum
    probe = rnd(rng, 3)

    def build(t, r):
        a = ad.tanh(t, ad.linear(t, r[0], r[1]))
        b = ad.tanh(t, ad.linear(t, r[0], r[2]))
        return ad.linear(t, ad.add(t, a, b), t.input(probe))

    check_op(build, [rnd(rng, 3, 3), rnd(rng, 3), rnd(rng, 3)])


def test_tape_parents_precede_children(rng):
    tape = Tape()
    m = tape.input(rnd(rng, 3, 3))
    x = tape.input(rnd(rng, 3))
    out = ad.tanh(tape, ad.linear(tape, m, x))
    loss = ad.linear(tape, out, out)
    for i in range(len(tape)):
        for parent in tape._parents[i]:
            assert parent < i
    assert loss.index == len(tape) - 1


def test_keyed_input_registers_once_and_sums_gradients():
    tape = Tape()
    w = tape.input(np.array([1.0, 2.0]), key="w")
    again = tape.input(np.array([9.0, 9.0]), key="w")  # later values are ignored
    x = tape.input(np.array([3.0, 4.0]))
    assert again == w and len(tape) == 2
    assert tape.keyed == {"w": w}
    assert tape.input(np.zeros(2)) != tape.input(np.zeros(2))  # unkeyed: fresh leaves
    loss = ad.add(tape, ad.linear(tape, w, x), ad.linear(tape, again, x))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[w.index], [6.0, 8.0])


def test_backward_gradient_shapes_match_values(rng):
    tape = Tape()
    m = tape.input(rnd(rng, 4, 3))
    x = tape.input(rnd(rng, 3))
    probe = tape.input(rnd(rng, 4))
    loss = ad.linear(tape, ad.tanh(tape, ad.linear(tape, m, x)), probe)
    grads = backward(tape, loss)
    for i, g in enumerate(grads):
        if g is not None:
            assert np.asarray(g).shape == tape._values[i].shape
