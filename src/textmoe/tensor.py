"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (row-major). Every differentiable op attaches a
backward closure to its output, so the graph is rebuilt on each forward
pass (define-by-run). ``Tensor.backward()`` walks the recorded ops in
reverse topological order and accumulates d(loss)/d(leaf) into ``.grad``
of every tensor created with ``requires_grad=True``; gradients arriving
over multiple paths add.

Inside ``with no_grad():`` ops record nothing: an output gets no parents
and no backward closure, so a forward frees its activations as it goes.

Float32 is the working dtype; pass float64 arrays for gradient checking.
Integer data (token ids, labels, masks) stays in plain numpy arrays and
never enters a Tensor.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DataError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32

# Additive score for masked attention positions: after max subtraction the
# exp underflows to exactly 0, same effect as -inf without infinities in
# any stored array.
MASK_FILL = -1e9

# False inside a no_grad scope; _from_op reads it.
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph in this scope. Nests, and restores the previous
    state on exit, an exception included."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A dense n-d float value with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # Unused by the package (a missing gradient counts as zero), but
    # perfbench/spans.py wraps it by name, so it stays.
    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def backward(self) -> None:
        """Backprop from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise UsageError("backward: this value recorded no graph (it was computed "
                             "under no_grad or from tensors that need no gradient)")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------- linear ops


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w. With a 2-d w this is one GEMM over all leading rows of x:
    numpy would run one small GEMM per leading index and, once w outgrows
    the cache, stream w from memory for every one of them."""
    if w.ndim == 2 and x.ndim > 2:
        return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])
    return x @ w


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (..., k, n) -> (..., m, n); leading axes may broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = _mm(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(_mm(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            if b.ndim == 2:
                # A weight: one GEMM over all leading rows, where the batched
                # product would build a (batch, k, n) array only to sum it.
                k, n = b.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            _accum(b, gb)

    return _from_op(out, (a, b), backward)


def swap_axes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes (a view of x's data)."""
    out = np.swapaxes(x.data, axis1, axis2)

    def backward(g: np.ndarray) -> None:
        _accum(x, np.swapaxes(g, axis1, axis2))

    return _from_op(out, (x,), backward)


def transpose_last(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    return swap_axes(x, -1, -2)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        _accum(x, g.reshape(x.shape))

    return _from_op(out, (x,), backward)


# ----------------------------------------------------------- elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from e

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _from_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _from_op(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    out = x.data * c

    def backward(g: np.ndarray) -> None:
        _accum(x, g * c)

    return _from_op(out, (x,), backward)


def add_const(x: Tensor, c: np.ndarray) -> Tensor:
    """x + non-differentiated array; c must broadcast without enlarging x."""
    out = x.data + c
    if out.shape != x.shape:
        raise ShapeError(f"add_const: {c.shape} does not fit {x.shape}")

    def backward(g: np.ndarray) -> None:
        _accum(x, g)

    return _from_op(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g: np.ndarray) -> None:
        _accum(x, g * (x.data > 0))

    return _from_op(out, (x,), backward)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise UsageError("dropout in training mode needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    out = x.data * mask

    def backward(g: np.ndarray) -> None:
        _accum(x, g * mask)

    return _from_op(out, (x,), backward)


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise UsageError("concat_last needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=-1)
    stops = np.cumsum([p.shape[-1] for p in parts])

    def backward(g: np.ndarray) -> None:
        start = 0
        for p, stop in zip(parts, stops):
            if p.requires_grad:
                _accum(p, g[..., start:stop])
            start = stop

    return _from_op(out, tuple(parts), backward)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """x[..., start:stop]."""
    out = x.data[..., start:stop]

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        _accum(x, gx)

    return _from_op(out, (x,), backward)


# ------------------------------------------------------------ reductions etc.


def softmax(x: Tensor) -> Tensor:
    """Row softmax over the last axis, max-subtracted for stability."""
    # In place, so only one array of x's size is allocated: attention
    # scores are the largest arrays a forward makes.
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        # dx = y * (g - sum(g * y))
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(x, out * (g - dot))

    return _from_op(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accum(x, np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))

    return _from_op(out, (x,), backward)


def l2_penalty(params: Sequence[Tensor], lam: float) -> Tensor:
    """lam * sum over params of (p * p).sum(), as one graph node.

    The squared sums are added in parameter order and scaled last, so the
    value is bitwise that of the sum_all/mul/add/scale chain it replaces.
    """
    if not params:
        raise UsageError("l2_penalty needs at least one tensor")
    total = None
    for p in params:
        sq = (p.data * p.data).sum()
        total = sq if total is None else total + sq
    out = np.asarray(total * lam, dtype=params[0].dtype)

    def backward(g: np.ndarray) -> None:
        c = g * (2.0 * lam)
        for p in params:
            _accum(p, c * p.data)

    return _from_op(out, tuple(params), backward)


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over axis -2 restricted to mask==True. x (..., s, d), mask (..., s)."""
    if not mask.any(axis=-1).all():
        raise UsageError("masked_mean: a row has no unmasked positions")
    w = mask.astype(x.dtype)
    counts = w.sum(axis=-1)[..., None]  # (..., 1)
    out = (x.data * w[..., None]).sum(axis=-2) / counts

    def backward(g: np.ndarray) -> None:
        _accum(x, g[..., None, :] * (w / counts)[..., None])

    return _from_op(out, (x,), backward)


def masked_max(x: Tensor, mask: np.ndarray) -> Tensor:
    """Column-wise max over axis -2 restricted to mask==True."""
    if not mask.any(axis=-1).all():
        raise UsageError("masked_max: a row has no unmasked positions")
    neg = np.where(mask[..., None], x.data, -np.inf)
    idx = neg.argmax(axis=-2)  # (..., d); ties -> lowest index
    out = np.take_along_axis(x.data, idx[..., None, :], axis=-2).squeeze(-2)

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None, :], g[..., None, :], axis=-2)
        _accum(x, gx)

    return _from_op(out, (x,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray, pad_id: int | None = None) -> Tensor:
    """Gather rows of table (V, d) by integer ids (...,) -> (..., d).

    Rows gathered at pad_id receive no gradient, keeping the padding row
    out of every update.
    """
    ids = np.asarray(ids)
    out = table.data[ids]

    def backward(g: np.ndarray) -> None:
        if not table.requires_grad:
            return
        gt = np.zeros_like(table.data)
        if pad_id is None:
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        else:
            keep = ids != pad_id
            np.add.at(gt, ids[keep], g[keep])
        _accum(table, gt)

    return _from_op(out, (table,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood. logits (b, C), labels (b,) ints."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs labels {labels.shape}"
        )
    b, c = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise DataError(f"cross_entropy: label out of range for {c} classes")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1)) + logits.data.max(axis=-1)
    nll = lse - logits.data[np.arange(b), labels]
    out = np.asarray(nll.mean(), dtype=logits.dtype)

    def backward(g: np.ndarray) -> None:
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        _accum(logits, g * p / b)

    return _from_op(out, (logits,), backward)
