"""Autodiff core: forward oracles, hand-checked values, finite-difference
gradients, and the error contracts of every op.
"""

import math

import numpy as np
import pytest

from textmoe import ConfigError, DataError, ShapeError, Tensor, UsageError
from textmoe.tensor import (
    add,
    add_const,
    concat_last,
    cross_entropy,
    dropout,
    embedding_lookup,
    l2_penalty,
    masked_max,
    masked_mean,
    matmul,
    mul,
    no_grad,
    packed_attention,
    relu,
    reshape,
    scale,
    slice_last,
    softmax,
    sum_all,
    swap_axes,
    transpose_last,
)
from conftest import (
    attention_runs,
    composed_packed_attention,
    max_rel_err,
    rand_tensor,
)


# ----------------------------------------------------------------- basics


def test_tensor_defaults_to_float32():
    t = Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    assert t.shape == (2, 2)
    assert not t.requires_grad


def test_tensor_keeps_explicit_float64():
    t = Tensor(np.ones(3, dtype=np.float64))
    assert t.dtype == np.float64


def test_item_and_repr():
    t = Tensor([2.5], requires_grad=True)
    assert t.item() == 2.5
    assert Tensor(np.float32(-1.5)).item() == -1.5
    assert "requires_grad=True" in repr(t)
    for shape in ((3,), (1, 2), (0,)):
        with pytest.raises(UsageError, match="single element"):
            Tensor(np.arange(float(np.prod(shape))).reshape(shape) + 7).item()


def test_backward_rejects_non_scalar():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        t.backward()


def test_backward_without_a_graph_is_a_usage_error():
    # A loss computed under no_grad, or from tensors that need no gradient,
    # cannot fill any .grad; backward must say so instead of returning.
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        loss = sum_all(matmul(w, w))
    with pytest.raises(UsageError, match="no graph"):
        loss.backward()
    with pytest.raises(UsageError, match="no graph"):
        sum_all(Tensor(np.ones(2))).backward()
    assert w.grad is None


# ------------------------------------------------------------ matmul oracle


def _loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(1)
    for m, k, n in [(1, 1, 1), (2, 3, 4), (5, 5, 5), (4, 2, 5), (5, 4, 3)]:
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        assert np.abs(got.data - _loop_matmul(a, b)).max() < 1e-12


def test_matmul_batched_broadcast():
    # A 2-d right operand broadcasts over the leading axes of the left one;
    # compare every leading index with the loop reference, including a
    # 4-d and a non-contiguous left operand.
    rng = np.random.default_rng(2)
    b = rng.normal(size=(2, 5))
    for a in (rng.normal(size=(3, 4, 2)), rng.normal(size=(2, 3, 4, 2)),
              np.swapaxes(rng.normal(size=(4, 3, 2)), 0, 1)):
        got = matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        assert got.shape == a.shape[:-1] + (5,)
        for idx in np.ndindex(a.shape[:-2]):
            assert np.abs(got.data[idx] - _loop_matmul(a[idx], b)).max() < 1e-12


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="leading axes"):
        matmul(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((5, 3, 2))))


def test_matmul_broadcast_gradients(gradcheck):
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (3, 2, 4))
    b = rand_tensor(rng, (4, 2))
    gradcheck(lambda: sum_all(matmul(a, b)), [a, b])


@pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (1, 4, 5)),
                                              ((1, 3, 4), (2, 4, 5))],
                         ids=["b-batch-1", "a-batch-1"])
def test_matmul_size_one_batch_axis_gradients(gradcheck, a_shape, b_shape):
    rng = np.random.default_rng(4)
    a = rand_tensor(rng, a_shape)
    b = rand_tensor(rng, b_shape)
    gradcheck(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), [a, b])


def _weight_grad(a: Tensor, b: Tensor, g: np.ndarray, swap_out: bool) -> np.ndarray:
    """b.grad after backprop of sum(out * g), out = a @ b; with ``swap_out``
    the loss reads out through swap_axes, so matmul receives a
    non-contiguous gradient."""
    b.grad = None
    out = matmul(a, b)
    if swap_out:
        out = swap_axes(out, 0, 1)
    sum_all(mul(out, Tensor(g, dtype=g.dtype))).backward()
    return b.grad


def _weight_grad_reference(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The batched product summed over every leading axis."""
    prod = np.swapaxes(a, -1, -2) @ g
    return prod.reshape(-1, *prod.shape[-2:]).sum(axis=0)


_X = np.random.default_rng(5).normal(size=(4, 3, 5, 6))


@pytest.mark.parametrize("a_np, swap_out", [
    pytest.param(_X[0], False, id="3-d"),
    pytest.param(_X, False, id="4-d"),
    # A view, as matmul sees it after swap_axes.
    pytest.param(np.swapaxes(_X, 1, 2), False, id="swapped"),
    # swap_axes then reshape, as a padded forward merges its heads.
    pytest.param(np.swapaxes(_X, 1, 2).reshape(4, 5, 18), False, id="swap-reshape"),
    pytest.param(_X[0], True, id="swapped-g"),
])
def test_weight_gradient_is_the_summed_batched_product(a_np, swap_out):
    rng = np.random.default_rng(6)
    k = a_np.shape[-1]
    b = Tensor(rng.normal(size=(k, 7)), requires_grad=True, dtype=np.float64)
    a = Tensor(a_np, requires_grad=True, dtype=np.float64)
    out_shape = a_np.shape[:-1] + (7,)
    if swap_out:
        g_loss = rng.normal(size=(out_shape[1], out_shape[0], *out_shape[2:]))
        g_out = np.swapaxes(g_loss, 0, 1)
    else:
        g_loss = g_out = rng.normal(size=out_shape)

    got = _weight_grad(a, b, g_loss, swap_out)
    assert got.shape == b.shape
    assert max_rel_err(got, _weight_grad_reference(a_np, g_out)) < 1e-12

    # float32: any summation order of the n products per entry is within
    # gamma_n * (|a|^T |g|) of the exact sum, gamma_n = n*u / (1 - n*u).
    a32 = Tensor(a_np.astype(np.float32), requires_grad=True)
    b32 = Tensor(b.data.astype(np.float32), requires_grad=True)
    g32 = g_loss.astype(np.float32)
    g32_out = np.swapaxes(g32, 0, 1) if swap_out else g32
    got32 = _weight_grad(a32, b32, g32, swap_out)
    assert got32.dtype == np.float32
    a64, g64 = a32.data.astype(np.float64), g32_out.astype(np.float64)
    n = a_np.size // k
    u = np.finfo(np.float32).eps / 2
    bound = n * u / (1 - n * u) * _weight_grad_reference(np.abs(a64), np.abs(g64))
    assert (np.abs(got32 - _weight_grad_reference(a64, g64)) <= bound).all()


# ---------------------------------------------------------------- softmax


def test_softmax_hand_values():
    out = softmax(Tensor([0.0, 0.0], dtype=np.float64)).data
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)
    out = softmax(Tensor([math.log(2.0), 0.0], dtype=np.float64)).data
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(6, 7)) * 10.0)
    sums = softmax(x).data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 5))
    a = softmax(Tensor(x, dtype=np.float64)).data
    b = softmax(Tensor(x + 123.456, dtype=np.float64)).data
    assert np.abs(a - b).max() < 1e-12


def test_softmax_extreme_inputs_stay_finite():
    out = softmax(Tensor([1e9, 0.0, -1e9], dtype=np.float64)).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


# -------------------------------------------------- finite-difference checks


def test_grad_add_broadcast(gradcheck):
    rng = np.random.default_rng(6)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (3,))
    gradcheck(lambda: sum_all(mul(add(a, b), add(a, b))), [a, b])


def test_grad_mul_broadcast(gradcheck):
    rng = np.random.default_rng(7)
    a = rand_tensor(rng, (2, 1, 3))
    b = rand_tensor(rng, (4, 1))
    gradcheck(lambda: sum_all(mul(a, b)), [a, b])


def test_grad_scale_shift_addconst(gradcheck):
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (3, 2))
    c = rng.normal(size=(3, 2))
    gradcheck(lambda: sum_all(mul(scale(x, -1.7), add_const(x, c))), [x])


def test_grad_relu_away_from_kink(gradcheck):
    rng = np.random.default_rng(9)
    x = Tensor(rng.choice([-1.0, 1.0], size=(4, 3)) * rng.uniform(0.5, 1.5, (4, 3)),
               requires_grad=True, dtype=np.float64)
    gradcheck(lambda: sum_all(mul(relu(x), relu(x))), [x])


def test_grad_transpose_reshape_concat_slice(gradcheck):
    rng = np.random.default_rng(10)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (2, 2))

    def build():
        t = transpose_last(a)                       # (3, 2)
        r = reshape(t, (2, 3))
        c = concat_last([r, b])                     # (2, 5)
        w = swap_axes(reshape(c, (1, 2, 5)), 0, 2)  # (5, 2, 1)
        s = slice_last(reshape(w, (2, 5)), 1, 4)
        return sum_all(mul(s, s))

    gradcheck(build, [a, b])


# Real positions of a (3, 4) batch: 2, 4 and 1 tokens.
_ROWS = np.array([[True, True, False, False],
                  [True, True, True, True],
                  [True, False, False, False]])


def test_masked_reduction_shape_errors():
    for op in (masked_mean, masked_max):
        for shape in ((6, 4), (3, 4, 2), (7,)):  # 6 or 12 rows, or none, for 7 positions
            with pytest.raises(ShapeError, match=op.__name__):
                op(Tensor(np.ones(shape)), _ROWS)


def _padded_reductions(rows, mask, g):
    """The masked mean and max of packed rows and their gradients for the
    upstream gradients g = (g_mean, g_max), computed on the padded layout:
    rows scattered to (..., s, d), zeros at padded positions, the mean a sum
    over s divided by the count, the max's gradient all at its lowest index."""
    padded = np.zeros((*mask.shape, rows.shape[-1]), dtype=rows.dtype)
    padded[mask] = rows
    w = mask.astype(rows.dtype)
    counts = w.sum(axis=-1)[..., None]
    mean = (padded * w[..., None]).sum(axis=-2) / counts
    idx = np.where(mask[..., None], padded, -np.inf).argmax(axis=-2)
    top = np.take_along_axis(padded, idx[..., None, :], axis=-2).squeeze(-2)
    g_mean = g[0][..., None, :] * (w / counts)[..., None]
    g_max = np.zeros_like(padded)
    np.put_along_axis(g_max, idx[..., None, :], g[1][..., None, :], axis=-2)
    return mean, top, g_mean[mask], g_max[mask]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_masked_reductions_match_the_padded_reference(lead, dtype):
    rng = np.random.default_rng(len(lead))
    mask = rng.random((*lead, 5)) < 0.6
    mask[..., 0] = True
    rows = rng.integers(0, 3, size=(np.count_nonzero(mask), 4)).astype(dtype)  # many ties
    rows[:, 1] = 2.0  # an all-equal column: every max goes to the first real row
    g = [rng.normal(size=(*lead, 4)).astype(dtype) for _ in range(2)]
    got = []
    for op, gi in zip((masked_mean, masked_max), g):
        x = Tensor(rows.copy(), requires_grad=True)
        out = op(x, mask)
        sum_all(mul(out, Tensor(gi))).backward()
        got.append((out.data, x.grad))
    (mean, g_mean), (top, g_max) = got
    for a, b in zip((mean, top, g_mean, g_max), _padded_reductions(rows, mask, g)):
        assert a.dtype == dtype
        np.testing.assert_array_equal(a, b)
    # The all-equal column's gradient is all on each sequence's first row.
    firsts = np.r_[0, np.cumsum(mask.reshape(-1, 5).sum(axis=-1))[:-1]]
    np.testing.assert_array_equal(g_max[firsts, 1], g[1].reshape(-1, 4)[:, 1])
    assert np.count_nonzero(g_max[:, 1]) == len(firsts)


# ---------------------------------------------------------------- attention


def attention_pair(dtype):
    """Output and input gradients of the fused layer and of its composed chain:
    dx, dWq, dWk, dWv and dWo on the 7 real rows of _ROWS, d_in 5, 3 heads of
    width 2, d_out 4."""
    return attention_runs((packed_attention, composed_packed_attention),
                          [(7, 5), (5, 6), (5, 6), (5, 6), (6, 4)], (_ROWS, 3, 0.5),
                          dtype, seed=43)


def test_fused_attention_is_bitwise_the_composed_chain_in_float32():
    # The kernel runs the chain's ufuncs in its order and on its layouts.
    for got, want in zip(*attention_pair(np.float32)):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_fused_attention_matches_the_composed_chain_in_float64():
    for got, want in zip(*attention_pair(np.float64)):
        assert np.abs(got - want).max() <= 1e-12


def test_grad_packed_attention(gradcheck):
    rng = np.random.default_rng(44)
    x, wq, wk, wv, wo = (rand_tensor(rng, shape)
                         for shape in ((7, 5), (5, 6), (5, 6), (5, 6), (6, 4)))
    w = Tensor(rng.normal(size=(7, 4)), dtype=np.float64)
    gradcheck(lambda: sum_all(mul(packed_attention(x, wq, wk, wv, wo, _ROWS, 3, 0.7), w)),
              [x, wq, wk, wv, wo])


def test_attention_shape_errors():
    w, wo = Tensor(np.ones((5, 6))), Tensor(np.ones((6, 4)))
    with pytest.raises(ShapeError, match="packed_attention"):  # 6 rows for 7 positions
        packed_attention(Tensor(np.ones((6, 5))), w, w, w, wo, _ROWS, 3, 1.0)
    x = Tensor(np.ones((7, 5)))
    bad = [(Tensor(np.ones((5, 4))), wo), (Tensor(np.ones((6, 6))), wo),  # wk's columns, rows
           (w, Tensor(np.ones((4, 4)))), (w, Tensor(np.ones(6)))]  # wo's rows, a 1-d wo
    for wk, out_proj in bad:
        with pytest.raises(ShapeError, match="packed_attention"):
            packed_attention(x, w, wk, w, out_proj, _ROWS, 3, 1.0)


def test_grad_softmax(gradcheck):
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (3, 4))
    w = rng.normal(size=(3, 4))
    gradcheck(lambda: sum_all(mul(softmax(x), Tensor(w, dtype=np.float64))), [x])


def test_grad_masked_mean_and_max(gradcheck):
    rng = np.random.default_rng(12)
    x = rand_tensor(rng, (4, 3))  # the 4 real rows of mask below
    # Distinct values keep the max away from ties, where the derivative
    # is not defined and finite differences would disagree.
    x.data += np.arange(x.data.size).reshape(x.shape) * 0.01
    mask = np.array([[True, True, False, True], [True, False, False, False]])

    def build():
        m = concat_last([masked_mean(x, mask), masked_max(x, mask)])
        return sum_all(mul(m, m))

    gradcheck(build, [x])


def test_grad_embedding_lookup(gradcheck):
    rng = np.random.default_rng(13)
    table = rand_tensor(rng, (5, 3))
    # Pad ids stay out: their rows are excluded from the analytic gradient
    # on purpose, which finite differences would flag as a mismatch.
    ids = np.array([[1, 2, 1], [4, 2, 3]])

    def build():
        e = embedding_lookup(table, ids, pad_id=0)
        return sum_all(mul(e, e))

    gradcheck(build, [table])


def test_grad_cross_entropy(gradcheck):
    rng = np.random.default_rng(14)
    logits = rand_tensor(rng, (4, 3))
    labels = np.array([0, 2, 1, 1])
    gradcheck(lambda: cross_entropy(logits, labels), [logits])


def test_grad_l2_penalty(gradcheck):
    rng = np.random.default_rng(15)
    params = [rand_tensor(rng, (3, 2)), rand_tensor(rng, (4,)), rand_tensor(rng, (1, 2, 2))]
    gradcheck(lambda: l2_penalty(params, 0.3), params)


def test_l2_penalty_equals_the_op_chain_bitwise():
    rng = np.random.default_rng(16)
    params = [Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float32)
              for shape in ((7, 5), (5,), (3, 2, 4))]
    chain = None
    for p in params:
        term = sum_all(mul(p, p))
        chain = term if chain is None else add(chain, term)
    chain = scale(chain, 1e-4)
    fused = l2_penalty(params, 1e-4)
    assert fused.dtype == np.float32
    assert fused.data.tobytes() == chain.data.tobytes()
    with pytest.raises(UsageError):
        l2_penalty([], 1e-4)


# ----------------------------------------------------- specific grad values


def test_grad_of_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
    sum_all(mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_gradients_accumulate_over_paths():
    x = Tensor([2.0], requires_grad=True, dtype=np.float64)
    y = add(mul(x, x), mul(x, x))  # d/dx (2 x^2) = 4x
    sum_all(y).backward()
    np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)


def test_zero_coefficient_gives_zero_gradient():
    x = Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
    z = Tensor([0.0, 0.0], dtype=np.float64)
    sum_all(mul(x, z)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_pad_row_receives_no_gradient():
    table = Tensor(np.ones((4, 2)), requires_grad=True, dtype=np.float64)
    ids = np.array([[0, 1, 1, 3]])
    sum_all(embedding_lookup(table, ids, pad_id=0)).backward()
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0])
    np.testing.assert_array_equal(table.grad[1], [2.0, 2.0])
    np.testing.assert_array_equal(table.grad[2], [0.0, 0.0])
    np.testing.assert_array_equal(table.grad[3], [1.0, 1.0])


def test_repeated_ids_accumulate():
    table = Tensor(np.zeros((3, 2)), requires_grad=True, dtype=np.float64)
    sum_all(embedding_lookup(table, np.array([1, 1, 1]))).backward()
    np.testing.assert_array_equal(table.grad[1], [3.0, 3.0])


def test_backward_frees_spent_gradients_and_keeps_leaf_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = mul(x, x)
    z = add(y, y)
    loss = sum_all(z)
    loss.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    assert y.grad is None and z.grad is None and loss.grad is None


def test_backward_consumes_the_graph():
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = mul(x, x)
    loss = sum_all(add(y, y))
    loss.backward()
    assert y._parents == () and loss._parents == ()
    # A second pass would add into the leaves again; it is refused before
    # any gradient moves, from the root or from inside the graph.
    for root in (loss, sum_all(y)):
        with pytest.raises(UsageError, match="earlier backward"):
            root.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    # A fresh forward over the same leaves backpropagates as usual.
    x.grad = None
    sum_all(mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_on_a_scalar_leaf_sets_a_unit_gradient_every_time():
    w = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
    for _ in range(2):
        w.backward()
        assert w.grad.tolist() == 1.0


def test_no_requires_grad_means_no_graph():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = matmul(a, b)
    assert not out.requires_grad
    assert out._parents == ()


# ----------------------------------------------------------------- no_grad


def test_no_grad_output_holds_no_graph():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    with no_grad():
        out = softmax(matmul(a, b))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    # Recording resumes on exit.
    assert matmul(a, b)._parents == (a, b)


def test_no_grad_nests_and_restores_after_an_exception():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not add(a, a).requires_grad
        # Leaving the inner scope keeps the outer one in force.
        assert not add(a, a).requires_grad
    assert add(a, a).requires_grad
    with pytest.raises(ShapeError):
        with no_grad():
            add(a, Tensor(np.ones((3, 3))))
    assert add(a, a).requires_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_values_are_bitwise_the_recorded_ones(dtype):
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=dtype)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True, dtype=dtype)
    mask = np.array([[True, True, False], [True, False, False]])

    def run():
        return masked_max(relu(softmax(matmul(a, b))), mask).data

    recorded = run()
    with no_grad():
        np.testing.assert_array_equal(run(), recorded)


# ----------------------------------------------------------------- dropout


def test_dropout_eval_and_rate_zero_are_identity():
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    assert dropout(x, 0.5, training=False) is x
    assert dropout(x, 0.0, training=True) is x


def test_dropout_scales_survivors():
    rng = np.random.default_rng(15)
    x = Tensor(np.ones((200, 50)))
    out = dropout(x, 0.25, training=True, rng=rng)
    values = np.unique(np.round(out.data, 6))
    np.testing.assert_allclose(values, [0.0, 1.0 / 0.75], atol=1e-6)
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_backward_matches_mask():
    rng = np.random.default_rng(16)
    x = Tensor(np.full((40, 10), 2.0), requires_grad=True, dtype=np.float64)
    out = dropout(x, 0.5, training=True, rng=rng)
    mask = out.data / x.data
    sum_all(out).backward()
    np.testing.assert_allclose(x.grad, mask, atol=1e-12)


def test_dropout_errors():
    x = Tensor(np.ones(3))
    with pytest.raises(ConfigError):
        dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        dropout(x, -0.1, training=False)
    with pytest.raises(UsageError):
        dropout(x, 0.5, training=True)


# --------------------------------------------------------- remaining errors


def test_add_mul_shape_errors():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError):
        add(a, b)
    with pytest.raises(ShapeError):
        mul(a, b)


def test_add_const_cannot_enlarge():
    with pytest.raises(ShapeError):
        add_const(Tensor(np.ones((2, 1))), np.ones((2, 5)))
    with pytest.raises(ShapeError, match="add_const"):  # does not broadcast at all
        add_const(Tensor(np.ones((2, 3))), np.ones((5, 3)))


def test_concat_last_empty():
    with pytest.raises(UsageError):
        concat_last([])


def test_masked_reductions_reject_fully_masked_row():
    x = Tensor(np.ones((2, 2)))
    mask = np.array([[True, False, True], [False, False, False]])
    with pytest.raises(UsageError):
        masked_mean(x, mask)
    with pytest.raises(UsageError):
        masked_max(x, mask)


def test_masked_mean_hand_value():
    x = Tensor(np.array([[1.0, 10.0], [3.0, 30.0]]))
    mask = np.array([[True, True, False]])
    np.testing.assert_allclose(masked_mean(x, mask).data, [[2.0, 20.0]], atol=1e-6)
    np.testing.assert_allclose(masked_max(x, mask).data, [[3.0, 30.0]], atol=1e-6)


def test_masked_max_tie_goes_to_lowest_index():
    x = Tensor(np.array([[[5.0], [5.0], [1.0]]]), requires_grad=True,
               dtype=np.float64)
    mask = np.array([[True, True, True]])
    out = masked_max(x, mask)
    sum_all(out).backward()
    np.testing.assert_array_equal(x.grad[0, :, 0], [1.0, 0.0, 0.0])


def test_cross_entropy_contracts():
    logits = Tensor(np.zeros((2, 3)), dtype=np.float64)
    labels = np.array([0, 2])
    np.testing.assert_allclose(cross_entropy(logits, labels).item(),
                               math.log(3.0), atol=1e-12)
    with pytest.raises(DataError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(DataError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 0]))
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))
