"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (row-major). Every differentiable op attaches a
backward closure to its output, so the graph is rebuilt on each forward
pass (define-by-run). ``Tensor.backward()`` walks the recorded ops in
reverse topological order and accumulates d(loss)/d(leaf) into ``.grad``
of every tensor created with ``requires_grad=True``; gradients arriving
over multiple paths add. It consumes the graph as it goes, so each
forward supports one backward.

Inside ``with no_grad():`` ops record nothing: an output gets no parents
and no backward closure, so a forward frees its activations as it goes.

Float32 is the working dtype; pass float64 arrays for gradient checking.
Integer data (token ids, labels, masks) stays in plain numpy arrays and
never enters a Tensor.
"""

from __future__ import annotations

import math
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
        if self.data.size != 1:
            raise UsageError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    # Unused by the package (a missing gradient counts as zero), but
    # perfbench/spans.py wraps it by name, so it stays.
    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def backward(self) -> None:
        """Backprop from this scalar through the recorded graph.

        The graph is consumed: each node drops its parents and its backward
        closure once that has run, so activations are freed as backward
        goes. A second backward() through the same nodes raises UsageError.
        """
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
            if node._backward is _spent:
                _spent(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        # Popping walks topo in reverse, and drops each node as it goes.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            # Every consumer has run, so this gradient is spent, and the
            # closure (with the activations it holds) and the links to the
            # parents are not needed again.
            node.grad = None
            node._parents = ()
            node._backward = _spent

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _spent(g) -> None:
    """The backward of a node whose graph a backward() has consumed."""
    raise UsageError("backward: this graph was consumed by an earlier backward(); "
                     "run the forward again")


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (..., k, n) -> (..., m, n); leading axes may broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as e:
        raise ShapeError(f"matmul leading axes do not broadcast: {a.shape} @ {b.shape}") from e

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

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


def _scatter_rows(x: np.ndarray, mask: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Rows x (tokens, ...) -> (*mask.shape, ...), row i at the i-th True
    position of mask in row-major order, ``fill`` elsewhere. Integer row
    indices scatter faster than the boolean mask does when rows are short."""
    shape = (mask.size, *x.shape[1:])
    out = np.full(shape, fill, dtype=x.dtype) if fill else np.zeros(shape, dtype=x.dtype)
    out[np.flatnonzero(mask)] = x
    return out.reshape(*mask.shape, *x.shape[1:])


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
    try:
        out = x.data + c
    except ValueError as e:
        raise ShapeError(f"add_const: {c.shape} does not fit {x.shape}") from e
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


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval.
    Draws one i.i.d. keep value per element of x, so packed rows draw only
    for their real units."""
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
    # In place, so only one array of x's size is allocated.
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        # dx = y * (g - sum(g * y))
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(x, out * (g - dot))

    return _from_op(out, (x,), backward)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias: np.ndarray,
            c: float) -> tuple[np.ndarray, np.ndarray]:
    """softmax(q kᵀ · c + bias) v over the last two axes, and that softmax P.
    It runs the ufuncs of the matmul, scale, add_const, softmax, matmul chain
    in their order and on their operand layouts, so its values are bitwise
    the chain's."""
    p = q @ np.swapaxes(k, -1, -2)
    p *= c
    p += bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v, p


def _attend_grads(q: np.ndarray, k: np.ndarray, v: np.ndarray, p: np.ndarray,
                  g: np.ndarray, c: float) -> tuple[np.ndarray, ...]:
    """dQ, dK, dV of ``_attend`` from its output's gradient g and P."""
    dv = np.swapaxes(p, -1, -2) @ g
    ds = g @ np.swapaxes(v, -1, -2)  # dP, made c * P ⊙ (dP - rowsum(dP ⊙ P)) in place
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    ds *= c
    dk = np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2)
    return ds @ k, dk, dv


def packed_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                     mask: np.ndarray, heads: int, c: float) -> Tensor:
    """A self-attention layer as one node on (tokens, d_in) rows x at the (b, s)
    mask's True positions in row-major order: softmax(q kᵀ · c) v of head h, with
    q, k and v column block h of x @ wq, x @ wk and x @ wv and the sequence's
    padded keys masked, merged and times wo."""
    tokens, d = np.count_nonzero(mask), wq.shape[-1]
    if not (x.ndim == wo.ndim == 2 and (x.shape[0], wo.shape[0]) == (tokens, d)
            and wq.shape == wk.shape == wv.shape == (x.shape[1], d)):
        raise ShapeError(f"packed_attention: x {x.shape}, wq {wq.shape}, wk {wk.shape}, "
                         f"wv {wv.shape}, wo {wo.shape} for {tokens} real positions")
    b, s = mask.shape
    qh, kh, vh = (_scatter_rows(x.data @ w.data, mask).reshape(b, s, heads, -1)
                  .swapaxes(1, 2) for w in (wq, wk, wv))  # (b, heads, s, d / heads)
    bias = np.where(mask, 0.0, MASK_FILL).astype(qh.dtype)[:, None, None, :]
    out, p = _attend(qh, kh, vh, bias, c)
    att = out.swapaxes(1, 2)[mask].reshape(tokens, d)

    def backward(g: np.ndarray) -> None:
        # matmul's backward of each product, in the order its nodes ran: bitwise.
        _accum(wo, att.T @ g)
        g = _scatter_rows((g @ wo.data.T).reshape(tokens, heads, -1), mask).swapaxes(1, 2)
        for w, gh in zip((wq, wk, wv), _attend_grads(qh, kh, vh, p, g, c)):
            gh = gh.swapaxes(1, 2)[mask].reshape(tokens, d)
            _accum(x, gh @ w.data.T)
            _accum(w, x.data.T @ gh)

    return _from_op(att @ wo.data, (x, wq, wk, wv, wo), backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accum(x, np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))

    return _from_op(out, (x,), backward)


def l2_penalty(params: Sequence[Tensor], lam: float) -> Tensor:
    """lam * sum over params of (p * p).sum(), as a 0-d node of the first
    parameter's dtype; its backward adds 2 * lam * p to each parameter's
    gradient.

    The squared sums are added in parameter order and scaled last, so the
    value is bitwise that of the sum_all/mul/add/scale chain. ``fit``
    keeps the term out of the graph: ``RmsProp(weight_decay=2 * lam)``
    applies the same gradient term inside its update and returns the value.
    """
    if not params:
        raise UsageError("the L2 term needs at least one tensor")
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


def _padded(x: Tensor, mask: np.ndarray, op: str, fill: float = 0.0) -> np.ndarray:
    """x's rows, one per True position of the (..., s) mask, scattered to (..., s, d)."""
    if not mask.any(axis=-1).all():
        raise UsageError(f"{op}: a row has no unmasked positions")
    tokens = np.count_nonzero(mask)
    if x.ndim < 2 or math.prod(x.shape[:-1]) != tokens:
        raise ShapeError(f"{op}: {x.shape} rows for {tokens} real positions")
    return _scatter_rows(x.data.reshape(tokens, x.shape[-1]), mask, fill)


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over each (..., s) mask row's real positions -> (..., d), summed
    in the padded (..., s, d) layout. x holds one row per True position of
    mask in row-major order: (tokens, d), or leading axes that flatten to it."""
    counts = mask.sum(axis=-1).astype(x.dtype)[..., None]  # (..., 1)
    out = _padded(x, mask, "masked_mean").sum(axis=-2) / counts

    def backward(g: np.ndarray) -> None:
        # Each row gets its own sequence's g / count.
        per_seq = (g * (1 / counts)).reshape(-1, x.shape[-1])
        _accum(x, per_seq[np.flatnonzero(mask) // mask.shape[-1]].reshape(x.shape))

    return _from_op(out, (x,), backward)


def masked_max(x: Tensor, mask: np.ndarray) -> Tensor:
    """Column-wise max over each (..., s) mask row's real positions ->
    (..., d), for x laid out as in ``masked_mean``."""
    padded = _padded(x, mask, "masked_max", -np.inf)
    idx = padded.argmax(axis=-2)  # (..., d); ties -> lowest index
    out = np.take_along_axis(padded, idx[..., None, :], axis=-2).squeeze(-2)

    def backward(g: np.ndarray) -> None:
        # Position p of a sequence is packed row (True positions before p).
        rank = np.cumsum(mask).reshape(mask.shape) - 1
        gx = np.zeros_like(x.data).reshape(-1, x.shape[-1])
        gx[np.take_along_axis(rank, idx, axis=-1), np.arange(x.shape[-1])] = g
        _accum(x, gx.reshape(x.shape))

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
