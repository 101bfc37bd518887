"""Randomised gradient properties of the broadcasting autodiff ops: matmul
(size-1 batch axes included), add, mul and l2_penalty, each checked
against central differences over shapes drawn by hypothesis.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import mutually_broadcastable_shapes  # noqa: E402

from textmoe.tensor import add, l2_penalty, matmul, mul, sum_all  # noqa: E402
from conftest import check_gradients, rand_tensor  # noqa: E402

# Few small examples: every one runs two forwards per input element.
FEW = settings(max_examples=25, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
SIDE = st.integers(1, 3)


def _square_sum(t):
    """A loss whose gradient depends on every output element's value."""
    return sum_all(mul(t, t))


@FEW
@given(batch=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=2, max_side=2),
       m=SIDE, k=SIDE, n=SIDE, seed=SEEDS)
def test_matmul_gradients_over_broadcast_batches(batch, m, k, n, seed):
    rng = np.random.default_rng(seed)
    a_batch, b_batch = batch.input_shapes
    a = rand_tensor(rng, a_batch + (m, k))
    b = rand_tensor(rng, b_batch + (k, n))
    check_gradients(lambda: _square_sum(matmul(a, b)), [a, b])


@FEW
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
       op=st.sampled_from([add, mul]), seed=SEEDS)
def test_add_mul_gradients_over_broadcasts(shapes, op, seed):
    rng = np.random.default_rng(seed)
    a, b = (rand_tensor(rng, s) for s in shapes.input_shapes)
    check_gradients(lambda: _square_sum(op(a, b)), [a, b])


@FEW
@given(shapes=st.lists(st.lists(SIDE, min_size=0, max_size=3).map(tuple),
                       min_size=1, max_size=4),
       lam=st.floats(1e-3, 10.0), seed=SEEDS)
def test_l2_penalty_gradients(shapes, lam, seed):
    rng = np.random.default_rng(seed)
    params = [rand_tensor(rng, s) for s in shapes]
    check_gradients(lambda: l2_penalty(params, lam), params)
