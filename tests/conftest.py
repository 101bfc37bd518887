"""Shared test helpers: a central-difference gradient checker and small
builders used across the suite.
"""

import numpy as np
import pytest

from textmoe import Tensor
from textmoe.tensor import (
    MASK_FILL,
    add_const,
    embedding_lookup,
    matmul,
    mul,
    reshape,
    scale,
    softmax,
    sum_all,
    swap_axes,
    to_padded,
    transpose_last,
)


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


# ------------------------------------------------ composed attention chains


def composed_attention(q, k, v, c, key_mask=None):
    """softmax(q kᵀ · c) v from single graph ops, the reference for the
    fused attention kernel."""
    scores = scale(matmul(q, transpose_last(k)), c)
    if key_mask is not None:
        bias = np.where(key_mask, 0.0, MASK_FILL).astype(scores.dtype)
        scores = add_const(scores, bias[..., None, :])
    return matmul(softmax(scores), v)


def composed_packed_attention(q, k, v, mask, heads, c):
    """Packed rows (tokens, d) through ``composed_attention`` per head: each
    is scattered to (b, s, d), split into (b, heads, s, d / heads), and the
    merged heads gathered back to the mask's real rows."""
    b, s = mask.shape
    d = q.shape[-1]
    qh, kh, vh = (swap_axes(reshape(to_padded(x, mask), (b, s, heads, -1)), 1, 2)
                  for x in (q, k, v))
    att = composed_attention(qh, kh, vh, c, mask[:, None])
    merged = reshape(swap_axes(att, 1, 2), (b * s, d))
    return embedding_lookup(merged, np.flatnonzero(mask))


def attention_runs(fns, shapes, args, dtype, seed):
    """Output and q/k/v gradients of each attention fn in ``fns`` on the same
    random q, k, v of ``shapes`` and the same upstream gradient."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape).astype(dtype) for shape in shapes]
    runs = []
    for fn in fns:
        qkv = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*qkv, *args)
        w = Tensor(np.random.default_rng(seed + 1).normal(size=out.shape).astype(dtype))
        sum_all(mul(out, w)).backward()
        runs.append([out.data] + [t.grad for t in qkv])
    return runs
