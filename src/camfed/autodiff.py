"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Ops build an implicit tape: every Tensor that needs a gradient records its
parents and a backward closure, and carries a monotonically increasing
creation id. Since an op can only consume already-created tensors, creation
order is a topological order of the graph, and `Tensor.backward` simply walks
nodes in descending creation id. An op whose inputs are all constants keeps
neither, so a forward over constants builds no tape and each intermediate is
freed once the next op has consumed it. There is no graph optimization; the
models this engine serves are tiny.

All arithmetic is float64. Ops are pure: running the same graph twice on the
same inputs yields bit-identical outputs.
"""

import itertools
import math

import numpy as np

_NODE_COUNTER = itertools.count()


class EmptySupportError(ValueError):
    """Raised when a masked reduction has no active cells."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph: float64 data plus gradient plumbing."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False, _parents=()):
        self.data = _as_f64(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = None
        self._nid = next(_NODE_COUNTER)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _attach(self, backward) -> "Tensor":
        """Give an op's output its backward closure, if a gradient flows."""
        if self.requires_grad:
            self._backward = backward
        return self

    def _accum(self, g: np.ndarray) -> None:
        # grads are never mutated in place anywhere, so aliasing g is safe
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar root, filling `.grad` on the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        nodes = []
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(p for p in node._parents if p.requires_grad)
        nodes.sort(key=lambda n: n._nid, reverse=True)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """A leaf that never receives gradient."""
    return Tensor(data, requires_grad=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, _parents=(a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return out._attach(bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, _parents=(a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return out._attach(bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient into the constant)."""
    c = float(c)
    out = Tensor(a.data * c, _parents=(a,))

    def bwd(g):
        if a.requires_grad:
            a._accum(g * c)

    return out._attach(bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
        )
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return out._attach(bwd)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b with a row-broadcast bias."""
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"affine dimension mismatch: {x.data.shape} x "
                         f"{w.data.shape}")
    out = Tensor(x.data @ w.data + b.data, _parents=(x, w, b))

    def bwd(g):
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    return out._attach(bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    out = Tensor(np.where(mask, a.data, 0.0), _parents=(a,))

    def bwd(g):
        if a.requires_grad:
            a._accum(g * mask)

    return out._attach(bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch on sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise normalization to zero mean, unit variance (no affine params)."""
    if a.data.ndim != 2:
        raise ValueError("layer_norm expects a 2-D tensor")
    # `add.reduce` then a divide is exactly what `.mean` computes, and the
    # variance is numpy's own var arithmetic on the centred rows: bit-identical
    # to a.data.var(axis=1). Centring and scaling reuse one buffer.
    n = a.data.shape[1]
    xhat = a.data - np.add.reduce(a.data, axis=1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = Tensor(xhat, _parents=(a,))

    def bwd(g):
        if a.requires_grad:
            gm = np.add.reduce(g, axis=1, keepdims=True) / n
            t = g * xhat
            gx = np.add.reduce(t, axis=1, keepdims=True) / n
            ga = g - gm
            ga -= np.multiply(xhat, gx, out=t)
            ga *= inv_std
            a._accum(ga)

    return out._attach(bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _parents=(a,))

    def bwd(g):
        if a.requires_grad:
            a._accum(g.reshape(a.data.shape))

    return out._attach(bwd)


def mean(a: Tensor) -> Tensor:
    """Mean over all elements, returning a scalar tensor."""
    n = a.data.size
    out = Tensor(a.data.mean(), _parents=(a,))

    def bwd(g):
        if a.requires_grad:
            a._accum(np.full(a.data.shape, float(g) / n))

    return out._attach(bwd)


def tile_rows(a: Tensor, reps: int) -> Tensor:
    """Repeat a 2-D tensor `reps` times along axis 0."""
    if a.data.ndim != 2:
        raise ValueError("tile_rows expects a 2-D tensor")
    out = Tensor(np.tile(a.data, (reps, 1)), _parents=(a,))
    n = a.data.shape[0]

    def bwd(g):
        if a.requires_grad:
            a._accum(g.reshape(reps, n, -1).sum(axis=0))

    return out._attach(bwd)


def _softmax_(x: np.ndarray) -> None:
    """Softmax over the last axis, in place.

    The row max is taken one column at a time: max is exact in any order,
    and a short last axis makes numpy's strided reduction the slower way.
    Where +0.0 and -0.0 tie for a row's max, either sign gives the same
    exp(x - max), so the result does not depend on which one wins.
    """
    row_max = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(row_max, x[..., j], out=row_max)
    x -= row_max[..., None]
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)


def batched_cross_attention(qp: Tensor, kp: Tensor, vp: Tensor,
                            n_heads: int, batch: int) -> Tensor:
    """Scaled-dot-product attention over `batch` samples and `n_heads` heads.

    qp is the projected query, (n_q, f), shared by every sample. kp / vp are
    the projected keys and values stacked per sample, (batch*n_k, f). Heads
    are contiguous column blocks of width f // n_heads. Returns
    (batch*n_q, f).

    One fused op instead of per-head slice/matmul/softmax chains: the whole
    batch runs as a handful of broadcasted 3-D matmuls.
    """
    f = qp.data.shape[1]
    if f % n_heads != 0:
        raise ValueError("feature dim must divide by n_heads")
    dh = f // n_heads
    n_k = kp.data.shape[0] // batch
    n_q = qp.data.shape[0]
    scale_f = 1.0 / math.sqrt(dh)

    q4 = qp.data.reshape(n_q, n_heads, dh).transpose(1, 0, 2)[None]  # (1,H,nq,dh)
    k4 = kp.data.reshape(batch, n_k, n_heads, dh).transpose(0, 2, 1, 3)
    v4 = vp.data.reshape(batch, n_k, n_heads, dh).transpose(0, 2, 1, 3)

    attn = q4 @ k4.transpose(0, 1, 3, 2)                            # (B,H,nq,nk)
    attn *= scale_f
    _softmax_(attn)
    out4 = attn @ v4                                                # (B,H,nq,dh)
    out = out4.transpose(0, 2, 1, 3).reshape(batch * n_q, f)
    result = Tensor(out, _parents=(qp, kp, vp))

    def bwd(g):
        g4 = g.reshape(batch, n_q, n_heads, dh).transpose(0, 2, 1, 3)
        if vp.requires_grad:
            gv = attn.transpose(0, 1, 3, 2) @ g4                    # (B,H,nk,dh)
            vp._accum(gv.transpose(0, 2, 1, 3).reshape(batch * n_k, f))
        gs = g4 @ v4.transpose(0, 1, 3, 2)                          # (B,H,nq,nk)
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= scale_f
        if qp.requires_grad:
            gq = (gs @ k4).sum(axis=0)                              # (H,nq,dh)
            qp._accum(gq.transpose(1, 0, 2).reshape(n_q, f))
        if kp.requires_grad:
            gk = gs.transpose(0, 1, 3, 2) @ q4                      # (B,H,nk,dh)
            kp._accum(gk.transpose(0, 2, 1, 3).reshape(batch * n_k, f))

    return result._attach(bwd)


def bce_with_logits(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked-mean binary cross-entropy on logits, averaged over samples.

    `logits` and the {0,1} `targets` are (h, w) for one sample or (n, h, w)
    for a batch; the {0,1} `mask` is (h, w) and shared by every sample. The
    result is the mean of the per-sample masked means. Cells with mask == 0
    contribute zero loss and exactly zero gradient. Uses the
    max(z,0) - z*y + log1p(exp(-|z|)) form, so large logits never overflow.
    """
    t = _as_f64(targets)
    m = _as_f64(mask)
    z = logits.data
    if z.ndim not in (2, 3) or t.shape != z.shape or m.shape != z.shape[-2:]:
        raise ValueError("bce_with_logits: shape mismatch")
    count = m.sum()
    if count == 0:
        raise EmptySupportError("bce_with_logits: every cell is masked out")
    n = z.shape[0] if z.ndim == 3 else 1
    per_cell = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    per_sample = (per_cell * m).reshape(n, -1).sum(axis=1) / count
    # a left fold over the samples, then one scale: the same arithmetic as
    # summing n single-sample losses and scaling the sum by 1/n
    out = Tensor(sum(per_sample.tolist()) * (1.0 / n), _parents=(logits,))

    def bwd(g):
        if logits.requires_grad:
            logits._accum(float(g) * (1.0 / n) * (_sigmoid(z) - t) * m / count)

    return out._attach(bwd)
