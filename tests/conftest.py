"""Shared test helpers: a central-difference gradient checker and small
builders used across the suite.
"""

import numpy as np
import pytest

from textmoe import Tensor


# The paper's model dimensions.
PAPER_DIMS = dict(word_dim=300, marker_dim=100, num_heads=4, num_experts=4,
                  ff1_dim=400, ff2_hidden=200, ff2_out=200, dropout=0.1)


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def check_gradients(build, tensors, h: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare analytic gradients of ``build()`` against central differences.

    ``build`` must return a scalar Tensor recomputed from the current
    ``.data`` of every tensor in ``tensors`` (all float64, requires_grad).
    Returns the worst relative error seen; asserts it is below ``tol``.
    """
    for t in tensors:
        assert t.data.dtype == np.float64, "gradient checks need float64"
        t.grad = None
    loss = build()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = build().item()
            flat[i] = saved - h
            down = build().item()
            flat[i] = saved
            fd = (up - down) / (2.0 * h)
            worst = max(worst, max_rel_err(grad.reshape(-1)[i], fd))
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e}"
    return worst


@pytest.fixture
def gradcheck():
    return check_gradients


@pytest.fixture
def rel_err():
    return max_rel_err


def rand_tensor(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True,
                  dtype=np.float64)


@pytest.fixture
def make_tensor():
    return rand_tensor
