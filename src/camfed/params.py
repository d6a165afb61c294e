"""Flat parameter storage.

A ParamStore holds a model's parameters as one flat float64 vector and its
gradient. Partitions, deltas and optimizers all address parameters by flat
index, which keeps the public/private split and the transmission audit
trivially checkable. Which indices form which named segment is the model's
layout (`model._plan`), not the store's.
"""

import numpy as np


class ParamStore:
    """One flat float64 value vector of length `n` and its gradient."""

    def __init__(self, n: int, values: np.ndarray | None = None):
        self.n = int(n)
        if values is None:
            self.values = np.zeros(self.n, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.n,):
                raise ValueError(
                    f"values length {values.shape} does not match ({self.n},)")
            self.values = values.copy()
        self.grads = np.zeros(self.n, dtype=np.float64)
