"""RMSprop with per-parameter accumulators and an optional coupled L2 term.

g   <- g + weight_decay * p          (only when weight_decay > 0)
acc <- rho * acc + (1 - rho) * g^2
p   <- p - lr * g / (sqrt(acc) + eps)

The L2 term is coupled, as in ``torch.optim.RMSprop(weight_decay=...)``:
it joins the gradient before the accumulator sees it. ``fit`` passes
``2 * lambda_l2``, the gradient of ``lambda_l2 * sum(p * p)``, so the
update is bitwise the one a graph ``l2_penalty`` term would give.
``step`` also returns that term's value, so training reads parameter
memory once per step.

Each parameter is walked in blocks of ``BLOCK`` elements through two
preallocated buffers per dtype, with ``out=`` ufuncs. A step therefore
allocates no parameter-sized temporary, and a block's operands stay in
cache across the passes. Every element goes through the same operations
in the same order as the whole-array formulas above, so the result is
bitwise the same at any block size. The penalty's value adds up one
``np.dot`` per block as a float64, in parameter and block order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor

# Elements per block: 128 KB of float32, so the four block operands fit
# in a core's L2 cache.
BLOCK = 1 << 15


class RmsProp:
    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 rho: float = 0.9, eps: float = 1e-8, weight_decay: float = 0.0):
        if not 0 < lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {rho}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if not 0 <= weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.weight_decay = weight_decay
        # C order, so every accumulator block is a view.
        self.acc = [np.zeros(p.shape, dtype=p.dtype) for p in self.params]
        self._buffers: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> float:
        """Apply one update from the gradients stored on the parameters and
        return the L2 penalty whose gradient it added, ``weight_decay / 2 *
        sum(p * p)`` before the update (0.0 without weight decay).

        Gradients are consumed: each parameter's .grad is reset to None.
        A missing gradient counts as zero: without weight decay the
        accumulator decays and the value stays. A gradient whose shape is
        not its parameter's raises ShapeError before anything changes.
        """
        for p in self.params:
            if p.grad is not None and p.grad.shape != p.shape:
                raise ShapeError(f"gradient of shape {p.grad.shape} for a "
                                 f"parameter of shape {p.shape}")
        squares = 0.0
        for p, acc in zip(self.params, self.acc):
            if p.grad is None and not self.weight_decay:
                acc *= self.rho
                continue
            squares += self._update(p.data, acc, p.grad)
            p.grad = None
        return 0.5 * self.weight_decay * squares

    def _update(self, data: np.ndarray, acc: np.ndarray, grad: np.ndarray | None) -> float:
        """Update one parameter in place; return its sum of squares before
        the update, or 0.0 without weight decay."""
        bufs = self._buffers.get(data.dtype)
        if bufs is None:
            bufs = self._buffers[data.dtype] = (np.empty(BLOCK, data.dtype),
                                                np.empty(BLOCK, data.dtype))
        # reshape(-1) is a view of C-ordered arrays and a copy of others;
        # a copied parameter is written back at the end.
        copied = not data.flags.c_contiguous
        flat_p, flat_a = data.reshape(-1), acc.reshape(-1)
        flat_g = None if grad is None else grad.reshape(-1)
        lr, rho, eps, decay = self.lr, self.rho, self.eps, self.weight_decay
        squares = 0.0
        for start in range(0, flat_p.size, BLOCK):
            p, a = flat_p[start:start + BLOCK], flat_a[start:start + BLOCK]
            t, u = bufs[0][:p.size], bufs[1][:p.size]
            np.multiply(a, rho, out=a)
            if decay:
                squares += float(np.dot(p, p))
                g = np.multiply(p, decay, out=t)
                if flat_g is not None:
                    np.add(flat_g[start:start + BLOCK], g, out=g)
            else:
                g = flat_g[start:start + BLOCK]
            np.multiply(g, 1.0 - rho, out=u)
            np.multiply(u, g, out=u)
            np.add(a, u, out=a)
            np.sqrt(a, out=u)
            np.add(u, eps, out=u)
            np.multiply(g, lr, out=t)
            np.divide(t, u, out=t)
            np.subtract(p, t, out=p)
        if copied:
            data[...] = flat_p.reshape(data.shape)
        return squares
