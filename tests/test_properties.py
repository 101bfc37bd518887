"""Randomised gradient properties of the autodiff ops: matmul (size-1
batch axes included), add, mul, l2_penalty, softmax, the masked
reductions, embedding_lookup, concat_last, swap_axes, reshape and
cross_entropy, each checked against central differences over shapes drawn
by hypothesis; dropout's survivor scaling; and load_glove against its line
loop on small vector files.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import mutually_broadcastable_shapes  # noqa: E402

from textmoe import ParseError, Tensor, Vocabulary, load_glove  # noqa: E402
from textmoe import data as textmoe_data  # noqa: E402
from textmoe.tensor import (  # noqa: E402
    add,
    concat_last,
    cross_entropy,
    dropout,
    embedding_lookup,
    l2_penalty,
    masked_max,
    masked_mean,
    matmul,
    mul,
    reshape,
    softmax,
    sum_all,
    swap_axes,
)
from conftest import check_gradients, rand_tensor  # noqa: E402

# Few small examples: every one runs two forwards per input element.
FEW = settings(max_examples=25, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
SIDE = st.integers(1, 3)
SHAPES = st.lists(SIDE, min_size=1, max_size=3).map(tuple)


def _square_sum(t):
    """A loss whose gradient depends on every output element's value."""
    return sum_all(mul(t, t))


def _weighted_sum(rng, shape):
    """A loss sum(t * w) with a fixed random w, so that an output read from
    the wrong position changes the gradient."""
    w = Tensor(rng.uniform(-1.0, 1.0, size=shape), dtype=np.float64)
    return lambda t: sum_all(mul(t, w))


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


@FEW
@given(shape=SHAPES, seed=SEEDS)
def test_softmax_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = rand_tensor(rng, shape, -3.0, 3.0)
    loss = _weighted_sum(rng, shape)
    check_gradients(lambda: loss(softmax(x)), [x])


def _mask(rng, lead, s):
    """A random mask of shape lead + (s,) with at least one True per row."""
    mask = rng.random(lead + (s,)) < 0.5
    rows = mask.reshape(-1, s)
    rows[np.arange(rows.shape[0]), rng.integers(0, s, rows.shape[0])] = True
    return mask


@FEW
@given(lead=st.lists(SIDE, min_size=0, max_size=2).map(tuple), s=SIDE, d=SIDE,
       op=st.sampled_from([masked_mean, masked_max]), seed=SEEDS)
def test_masked_reduction_gradients(lead, s, d, op, seed):
    rng = np.random.default_rng(seed)
    mask = _mask(rng, lead, s)
    x = rand_tensor(rng, (np.count_nonzero(mask), d))  # one row per real position
    loss = _weighted_sum(rng, lead + (d,))
    check_gradients(lambda: loss(op(x, mask)), [x])


@FEW
@given(vocab=st.integers(2, 5), d=SIDE, ids_shape=SHAPES, seed=SEEDS)
def test_embedding_lookup_gradients_skip_the_pad_row(vocab, d, ids_shape, seed):
    rng = np.random.default_rng(seed)
    table = rand_tensor(rng, (vocab, d))
    pad = int(rng.integers(0, vocab))
    ids = rng.integers(0, vocab, size=ids_shape)
    ids.reshape(-1)[0] = pad
    # With the PAD positions weighted 0 the loss ignores the PAD row, so
    # central differences see its zero gradient too.
    w = rng.uniform(-1.0, 1.0, size=ids_shape + (d,)) * (ids != pad)[..., None]
    weights = Tensor(w, dtype=np.float64)
    check_gradients(lambda: sum_all(mul(embedding_lookup(table, ids, pad), weights)),
                    [table])
    # A loss that reads the PAD positions still leaves the PAD row at zero.
    table.grad = None
    _square_sum(embedding_lookup(table, ids, pad)).backward()
    assert (table.grad[pad] == 0.0).all()


@FEW
@given(lead=st.lists(SIDE, min_size=0, max_size=2).map(tuple),
       widths=st.lists(SIDE, min_size=1, max_size=3), seed=SEEDS)
def test_concat_last_gradients(lead, widths, seed):
    rng = np.random.default_rng(seed)
    parts = [rand_tensor(rng, lead + (w,)) for w in widths]
    loss = _weighted_sum(rng, lead + (sum(widths),))
    check_gradients(lambda: loss(concat_last(parts)), parts)


@FEW
@given(shape=st.lists(SIDE, min_size=2, max_size=4).map(tuple), data=st.data(), seed=SEEDS)
def test_swap_axes_reshape_gradients(shape, data, seed):
    axis1, axis2 = (data.draw(st.integers(-len(shape), len(shape) - 1)) for _ in range(2))
    rng = np.random.default_rng(seed)
    x = rand_tensor(rng, shape)
    swapped = np.swapaxes(x.data, axis1, axis2).shape
    target = tuple(reversed(swapped))
    loss = _weighted_sum(rng, target)
    check_gradients(lambda: loss(reshape(swap_axes(x, axis1, axis2), target)), [x])


@FEW
@given(b=SIDE, c=st.integers(2, 4), seed=SEEDS)
def test_cross_entropy_gradients(b, c, seed):
    rng = np.random.default_rng(seed)
    logits = rand_tensor(rng, (b, c), -3.0, 3.0)
    labels = rng.integers(0, c, size=b)
    check_gradients(lambda: cross_entropy(logits, labels), [logits])


@FEW
@given(shape=SHAPES, rate=st.floats(0.0, 0.9), seed=SEEDS)
def test_dropout_scales_survivors_and_zeroes_the_rest(shape, rate, seed):
    rng = np.random.default_rng(seed)
    # No input element is zero, so every output element is either exactly 0
    # (dropped) or a survivor, which must equal input / (1 - rate).
    x = Tensor(rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape),
               dtype=np.float64)
    out = dropout(x, rate, training=True, rng=rng).data
    kept = out != 0.0
    np.testing.assert_allclose(out[kept], x.data[kept] / (1.0 - rate), rtol=1e-12)


# Vocabulary tokens (PAD and UNK included) and two that are not in it.
GLOVE_KEPT = ("a", "b", "c", "<pad>", "<unk>")
GLOVE_TOKENS = st.sampled_from(GLOVE_KEPT + ("x", "y"))
GLOVE_VALUES = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.floats(-3.0, 3.0).map("{:.4f}".format),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map("{:e}".format),
    st.integers(10, 99).map(lambda k: f"{k // 10}_{k % 10}"),  # float() only
)
# A wrong count, then values float() rejects or that are not finite in
# float32; "1\x1c" is one np.loadtxt alone accepts.
GLOVE_CORRUPTIONS = st.sampled_from(["count", "oops", "nan", "1e39", "1\x1c"])


@st.composite
def vector_files(draw):
    """(dim, file text, whether a kept line holds a value only float() reads)."""
    dim = draw(st.integers(1, 3))
    lines = draw(st.lists(st.tuples(GLOVE_TOKENS, st.lists(GLOVE_VALUES, min_size=dim,
                                                           max_size=dim)),
                          max_size=12))
    corrupt = draw(st.none() | st.tuples(st.integers(0, 12), GLOVE_TOKENS,
                                         GLOVE_CORRUPTIONS))
    if corrupt:
        at, token, kind = corrupt
        values = ["0.5"] * dim + ["0.5"] if kind == "count" else ["0.5"] * (dim - 1) + [kind]
        lines.insert(at, (token, values))
    float_only = any(t in GLOVE_KEPT and "_" in " ".join(vs) for t, vs in lines)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(f"{t} {' '.join(vs)}{end}" for t, vs in lines)
    return dim, draw(st.sampled_from(["", "\ufeff"])) + text, float_only


def _glove_outcome(load, path, vocab, dim):
    rng = np.random.default_rng(3)
    try:
        result = load(path, vocab, dim, rng).matrix.data.tobytes()
    except ParseError as e:
        result = str(e)
    return result, rng.bit_generator.state


@FEW
@given(case=vector_files())
def test_load_glove_matches_the_line_loop(case):
    dim, text, float_only = case
    vocab = Vocabulary.from_tokens(GLOVE_KEPT[:3])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vec.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(textmoe_data, "_load_glove_lines",
                               wraps=textmoe_data._load_glove_lines) as line_loop:
            fast = _glove_outcome(load_glove, path, vocab, dim)
        reference = _glove_outcome(textmoe_data._load_glove_lines, path, vocab, dim)
    assert fast == reference
    # The line loop runs only to name a bad line or read a value loadtxt cannot.
    assert line_loop.called == (isinstance(reference[0], str) or float_only)
