"""RMSprop update rule: hand-computed first step, accumulator decay,
gradient consumption, missing gradients as zero, argument validation, and
the blocked pass against the whole-array update it replaces.
"""

import math
import tracemalloc

import numpy as np
import pytest

from textmoe import ConfigError, RmsProp, ShapeError, Tensor
from textmoe.optim import BLOCK


def reference_step(params, accs, lr, rho=0.9, eps=1e-8, weight_decay=0.0):
    """The whole-array update: the L2 gradient as a graph l2_penalty term
    would add it, then the three-line RMSprop rule."""
    for p, acc in zip(params, accs):
        acc *= rho
        g = p.grad
        if weight_decay:
            decay = weight_decay * p.data
            g = decay if g is None else g + decay
        if g is None:
            continue
        acc += (1.0 - rho) * g * g
        p.data -= lr * g / (np.sqrt(acc) + eps)
        p.grad = None


def sum_of_squares(params):
    """Float64 sum of squares over the parameters' values."""
    return sum(float(np.square(p.data, dtype=np.float64).sum()) for p in params)


def assert_penalty(got, weight_decay, squares):
    # step()'s return value: weight_decay / 2 * sum(p * p) before the update.
    assert isinstance(got, float)
    if weight_decay:
        want = 0.5 * weight_decay * squares
        assert abs(got - want) <= 1e-6 * want, (got, want)
    else:
        assert got == 0.0


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_first_step_from_unit_gradient():
    p = _param([0.0])
    opt = RmsProp([p], lr=1e-3, rho=0.9, eps=1e-8)
    p.grad = np.array([1.0])
    opt.step()
    # acc = 0.1, update = lr / (sqrt(0.1) + eps)
    expected = 1e-3 / (math.sqrt(0.1) + 1e-8)
    assert p.data[0] == pytest.approx(-expected, abs=1e-15)
    assert p.data[0] == pytest.approx(-3.1623e-3, abs=1e-7)


def test_zero_gradient_leaves_parameter_unchanged():
    p = _param([5.0])
    opt = RmsProp([p], lr=1e-2)
    p.grad = np.array([0.0])
    opt.step()
    assert p.data[0] == 5.0
    assert opt.acc[0][0] == 0.0


def test_accumulator_decays_after_zero_gradient():
    p = _param([0.0])
    opt = RmsProp([p], lr=1e-3, rho=0.9)
    p.grad = np.array([1.0])
    opt.step()
    p.grad = np.array([0.0])
    opt.step()
    assert opt.acc[0][0] == pytest.approx(0.09, abs=1e-15)


def test_repeated_identical_gradients_shrink_updates():
    p = _param([0.0])
    opt = RmsProp([p], lr=1e-3)
    p.grad = np.array([2.0])
    opt.step()
    first = abs(p.data[0])
    before = p.data[0]
    p.grad = np.array([2.0])
    opt.step()
    second = abs(p.data[0] - before)
    assert second < first


def test_update_direction_follows_gradient_sign():
    p = _param([1.0, 1.0])
    opt = RmsProp([p], lr=1e-3)
    p.grad = np.array([3.0, -3.0])
    opt.step()
    assert p.data[0] < 1.0 < p.data[1]


def test_step_consumes_gradients():
    p = _param([0.0])
    opt = RmsProp([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    assert p.grad is None


def test_missing_gradient_counts_as_zero():
    # Steps where b has no gradient match, bit for bit, steps where b's
    # gradient is an explicit zero array.
    rng = np.random.default_rng(5)
    a_grads = rng.normal(size=(4, 3)).astype(np.float32)
    b_grads = rng.normal(size=(4, 5)).astype(np.float32)
    a0 = rng.normal(size=3).astype(np.float32)
    b0 = rng.normal(size=5).astype(np.float32)

    def run(missing):
        a, b = Tensor(a0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
        opt = RmsProp([a, b], lr=1e-2)
        for step in range(4):
            a.grad = a_grads[step]
            idle = step in (1, 2)
            b.grad = None if idle and missing else b_grads[step] * (not idle)
            opt.step()
        return [a.data, b.data, *opt.acc]

    for got, want in zip(run(missing=True), run(missing=False)):
        assert got.tobytes() == want.tobytes()


def test_accumulators_stay_non_negative():
    rng = np.random.default_rng(0)
    p = _param(rng.normal(size=(4, 3)))
    opt = RmsProp([p], lr=1e-3)
    for _ in range(25):
        p.grad = rng.normal(size=(4, 3))
        opt.step()
    assert all((acc >= 0).all() for acc in opt.acc)
    assert np.isfinite(p.data).all()


def test_constructor_validation():
    p = _param([0.0])
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="learning rate"):
            RmsProp([p], lr=bad)
    with pytest.raises(ConfigError):
        RmsProp([p], rho=1.0)
    with pytest.raises(ConfigError):
        RmsProp([p], rho=0.0)
    with pytest.raises(ConfigError):
        RmsProp([p], eps=0.0)
    for bad in (-1e-4, math.nan, math.inf):
        with pytest.raises(ConfigError, match="weight_decay"):
            RmsProp([p], weight_decay=bad)


@pytest.mark.parametrize("grad_shape", [(1,), (2, 3), (3, 1)])
def test_gradient_of_another_shape_is_a_shape_error(grad_shape):
    # A (1,) gradient would broadcast over the (3,) parameter.
    ok = _param([1.0, 2.0])
    p = _param([1.0, 2.0, 3.0])
    opt = RmsProp([ok, p], lr=1e-2, weight_decay=1e-3)
    ok.grad = np.array([1.0, 1.0])
    p.grad = np.ones(grad_shape)
    with pytest.raises(ShapeError, match="shape"):
        opt.step()
    # Nothing changed, the valid parameter included.
    assert ok.data.tolist() == [1.0, 2.0] and p.data.tolist() == [1.0, 2.0, 3.0]
    assert not any(acc.any() for acc in opt.acc)


_SHAPES = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (5, BLOCK // 3 + 11)]


@pytest.mark.parametrize("weight_decay", [0.0, 2e-4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_pass_is_bitwise_the_whole_array_update(dtype, weight_decay):
    # Sizes around one block, and a 2-d parameter whose last block is
    # ragged; every fifth value is -0.0 and some steps miss a gradient.
    assert math.prod(_SHAPES[-1]) > BLOCK and math.prod(_SHAPES[-1]) % BLOCK
    rng = np.random.default_rng(11)
    inits = []
    for shape in _SHAPES:
        x = rng.normal(size=shape).astype(dtype)
        x.reshape(-1)[::5] = -0.0
        inits.append(x)
    ours = [Tensor(x.copy(), requires_grad=True) for x in inits]
    refs = [Tensor(x.copy(), requires_grad=True) for x in inits]
    opt = RmsProp(ours, lr=1e-2, weight_decay=weight_decay)
    ref_acc = [np.zeros_like(x) for x in inits]
    for step in range(4):
        for i, (a, b) in enumerate(zip(ours, refs)):
            if (i + step) % 3 == 0:
                continue  # a missing gradient
            g = rng.normal(size=a.shape).astype(dtype)
            g.reshape(-1)[1::4] = -0.0
            a.grad, b.grad = g, g.copy()
        squares = sum_of_squares(ours)
        assert_penalty(opt.step(), weight_decay, squares)
        reference_step(refs, ref_acc, 1e-2, weight_decay=weight_decay)
        for a, b, acc, want in zip(ours, refs, opt.acc, ref_acc):
            assert a.grad is None
            assert a.data.dtype == dtype
            assert a.data.tobytes() == b.data.tobytes(), (step, a.shape)
            assert acc.tobytes() == want.tobytes(), (step, a.shape)


def test_non_contiguous_parameter_and_gradient_are_updated_in_place():
    rng = np.random.default_rng(12)
    for weight_decay in (2e-4, 0.0):
        x = np.asfortranarray(rng.normal(size=(70, 900)).astype(np.float32))
        g = rng.normal(size=(900, 70)).astype(np.float32).T  # a transposed view
        p, ref = Tensor(x, requires_grad=True), Tensor(x.copy(), requires_grad=True)
        opt = RmsProp([p], lr=1e-2, weight_decay=weight_decay)
        p.grad, ref.grad = g, g.copy()
        assert_penalty(opt.step(), weight_decay, sum_of_squares([ref]))
        reference_step([ref], [np.zeros_like(x)], 1e-2, weight_decay=weight_decay)
        assert p.data is x
        assert x.tobytes() == ref.data.tobytes()


def test_step_allocates_no_parameter_sized_array():
    # One step over a 4 MB parameter with the L2 term on used to allocate
    # several 4 MB temporaries; the blocked pass needs two 128 KB buffers.
    rng = np.random.default_rng(13)
    p = Tensor(rng.normal(size=2**20).astype(np.float32), requires_grad=True)
    opt = RmsProp([p], lr=1e-3, weight_decay=2e-4)
    grad = rng.normal(size=2**20).astype(np.float32)
    tracemalloc.start()
    try:
        for _ in range(2):
            p.grad = grad
            opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"step peaked at {peak / 2**20:.2f} MB"


def test_optimizes_a_quadratic():
    # Without decay the iterate ends up bouncing around the minimum with
    # amplitude on the order of lr, so the bound is a few multiples of it.
    p = _param([4.0])
    opt = RmsProp([p], lr=1e-2)
    for _ in range(500):
        p.grad = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 5e-2
