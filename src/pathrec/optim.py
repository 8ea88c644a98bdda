"""Minimal Adam optimizer over a list of numpy parameter arrays."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam whose update runs in place, a block of rows at a time.

    ``step`` writes every intermediate into two small scratch buffers
    with ``out=``, in the order of the textbook update
    ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``. Each operation is
    elementwise, so the result is bitwise equal to evaluating that
    expression with whole-array temporaries, while the working set of a
    block stays in cache and no parameter-sized buffer is allocated.
    """

    BLOCK = 1 << 15  # scratch elements per buffer

    def __init__(self, params: list[np.ndarray], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = (np.empty(self.BLOCK), np.empty(self.BLOCK))

    def step(self, grads: list[np.ndarray]):
        """Update parameters in place from one gradient per parameter."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            rows = max(1, self.BLOCK * len(p) // max(p.size, 1))
            for start in range(0, len(p), rows):
                block = slice(start, start + rows)
                self._update(p[block], g[block], m[block], v[block], b1c, b2c)

    def _update(self, p, g, m, v, b1c: float, b2c: float):
        a, b = (buf[:p.size].reshape(p.shape) for buf in self._scratch)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.square(g, out=a)
        v += np.multiply(a, 1.0 - self.beta2, out=a)
        np.divide(m, b1c, out=a)
        a *= self.lr
        np.divide(v, b2c, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        p -= np.divide(a, b, out=a)
