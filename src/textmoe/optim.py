"""RMSprop with per-parameter accumulators.

acc <- rho * acc + (1 - rho) * g^2
p   <- p - lr * g / (sqrt(acc) + eps)
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


class RmsProp:
    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 rho: float = 0.9, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {rho}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.params = list(params)
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.acc = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from the gradients stored on the parameters.

        Gradients are consumed: each parameter's .grad is reset to None.
        A missing gradient counts as zero: the accumulator decays and the
        value stays.
        """
        for p, acc in zip(self.params, self.acc):
            acc *= self.rho
            g = p.grad
            if g is None:
                continue
            acc += (1.0 - self.rho) * g * g
            p.data -= self.lr * g / (np.sqrt(acc) + self.eps)
            p.grad = None
