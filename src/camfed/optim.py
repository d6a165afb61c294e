"""Optimizers that step a whole ParamStore.

`lr` is a float or a per-index array, so one call applies the two rates of
a local update (one for the shared slice, one for the private slice) from a
single backward pass.
"""

import numpy as np

from .params import ParamStore


class NonFiniteGradientError(ValueError):
    """Raised when an update would consume a NaN or infinite gradient."""


def sgd_step(store: ParamStore, lr) -> None:
    """Plain gradient step values <- values - lr * grads."""
    if not np.isfinite(store.grads).all():
        raise NonFiniteGradientError("sgd_step: non-finite gradient")
    store.values -= lr * store.grads


class AdamW:
    """Decoupled-weight-decay Adam, stepping its moments and the store in
    place through two preallocated buffers."""

    def __init__(self, n_params: int, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(n_params, dtype=np.float64)
        self.v = np.zeros(n_params, dtype=np.float64)
        self.t = 0
        self._a = np.empty(n_params, dtype=np.float64)
        self._b = np.empty(n_params, dtype=np.float64)

    def step(self, store: ParamStore, lr=None) -> None:
        """Apply one update to every index, at rate `lr` (default self.lr).

        m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g g;
        values <- values - lr ((m / c1) / (sqrt(v / c2) + eps) + wd values)
        """
        g = store.grads
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("AdamW.step: non-finite gradient")
        lr = self.lr if lr is None else lr
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(m, c1, out=a)
        a /= b
        a += np.multiply(self.weight_decay, store.values, out=b)
        a *= lr
        store.values -= a
