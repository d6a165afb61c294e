"""Flat parameter storage with named contiguous segments.

A ParamStore is the single source of truth for a model's parameters: one
flat float64 vector plus a segment table. Partition policies, deltas and
optimizers all address parameters by flat index, which keeps the
public/private split and the transmission audit trivially checkable.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    length: int


class ParamStore:
    """Named segments over one flat float64 value vector and its gradient."""

    def __init__(self, segment_sizes: list, values: np.ndarray | None = None):
        """`segment_sizes` is an ordered list of (name, length) pairs."""
        segments = []
        offset = 0
        for name, length in segment_sizes:
            if length <= 0:
                raise ValueError(f"segment {name!r} must have positive length")
            segments.append(Segment(name, offset, int(length)))
            offset += int(length)
        names = [s.name for s in segments]
        if len(set(names)) != len(names):
            raise ValueError("duplicate segment names")
        self.segments = segments
        self._by_name = {s.name: s for s in segments}
        self.n = offset
        if values is None:
            self.values = np.zeros(self.n, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.n,):
                raise ValueError(
                    f"values length {values.shape} does not match segments ({self.n},)"
                )
            self.values = values.copy()
        self.grads = np.zeros(self.n, dtype=np.float64)

    def slice_of(self, name: str) -> slice:
        seg = self._by_name[name]
        return slice(seg.offset, seg.offset + seg.length)

    def view(self, name: str) -> np.ndarray:
        return self.values[self.slice_of(name)]

    def grad_view(self, name: str) -> np.ndarray:
        return self.grads[self.slice_of(name)]

    def indices(self, names) -> np.ndarray:
        """Sorted flat indices covered by the given segment names."""
        parts = [np.arange(s.offset, s.offset + s.length)
                 for s in self.segments if s.name in set(names)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64)

    def clone(self) -> "ParamStore":
        out = ParamStore([(s.name, s.length) for s in self.segments], self.values)
        out.grads = self.grads.copy()
        return out

    def segment_table(self) -> list:
        return [(s.name, s.offset, s.length) for s in self.segments]
