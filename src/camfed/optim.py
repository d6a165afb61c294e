"""Optimizers over ParamStore slices.

Both update rules accept an optional flat-index subset so the two-rate local
update (one rate for the shared slice, another for the private slice) can be
applied from a single backward pass without special casing.
AdamW keeps a per-index step count so bias correction stays exact when
different slices are stepped a different number of times.
"""

import numpy as np

from .params import ParamStore


class NonFiniteGradientError(ValueError):
    """Raised when an update would consume a NaN or infinite gradient."""


def _resolve(store: ParamStore, idx):
    if idx is None:
        return slice(None)
    return np.asarray(idx, dtype=np.int64)


def sgd_step(store: ParamStore, lr: float, idx=None) -> None:
    """Plain gradient step values <- values - lr * grads on the given slice."""
    sel = _resolve(store, idx)
    g = store.grads[sel]
    if not np.isfinite(g).all():
        raise NonFiniteGradientError("sgd_step: non-finite gradient")
    store.values[sel] -= lr * g


class AdamW:
    """Decoupled-weight-decay Adam with per-index bias correction."""

    def __init__(self, n_params: int, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(n_params, dtype=np.float64)
        self.v = np.zeros(n_params, dtype=np.float64)
        self.steps = np.zeros(n_params, dtype=np.int64)

    def step(self, store: ParamStore, lr: float | None = None, idx=None) -> None:
        """Apply one update to the given slice (whole store when idx is None)."""
        sel = _resolve(store, idx)
        g = store.grads[sel]
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("AdamW.step: non-finite gradient")
        lr = self.lr if lr is None else lr
        self.steps[sel] += 1
        t = self.steps[sel]
        self.m[sel] = self.beta1 * self.m[sel] + (1.0 - self.beta1) * g
        self.v[sel] = self.beta2 * self.v[sel] + (1.0 - self.beta2) * g * g
        if t.size and t[0] == t[-1] and (t == t[0]).all():
            # uniform step count on this slice: scalar bias correction
            c1 = 1.0 - self.beta1 ** int(t[0])
            c2 = 1.0 - self.beta2 ** int(t[0])
        else:
            c1 = 1.0 - self.beta1 ** t
            c2 = 1.0 - self.beta2 ** t
        update = (self.m[sel] / c1) / (np.sqrt(self.v[sel] / c2) + self.eps)
        store.values[sel] -= lr * (update + self.weight_decay * store.values[sel])
