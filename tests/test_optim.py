"""RMSprop update rule: hand-computed first step, accumulator decay,
gradient consumption, missing gradients as zero, and argument validation.
"""

import math

import numpy as np
import pytest

from textmoe import ConfigError, RmsProp, Tensor


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
    with pytest.raises(ConfigError):
        RmsProp([p], lr=0.0)
    with pytest.raises(ConfigError):
        RmsProp([p], rho=1.0)
    with pytest.raises(ConfigError):
        RmsProp([p], rho=0.0)
    with pytest.raises(ConfigError):
        RmsProp([p], eps=0.0)


def test_optimizes_a_quadratic():
    # Without decay the iterate ends up bouncing around the minimum with
    # amplitude on the order of lr, so the bound is a few multiples of it.
    p = _param([4.0])
    opt = RmsProp([p], lr=1e-2)
    for _ in range(500):
        p.grad = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 5e-2
