"""The model's differentiable kernels, as forward/backward function pairs.

Each forward returns its output (and, where its backward needs more than
its inputs and output, what to keep); the matching `<op>_backward` takes
the upstream gradient and returns the gradient of the op's input. A
parameter's gradient is written into the caller's `out` array instead, so
a model can point it straight at its gradient store. There is no tape: the
model (`model.ToyBevt`) calls the backwards itself, in reverse order.

All arithmetic is float64. Kernels are pure: the same inputs give
bit-identical outputs.
"""

import math

import numpy as np

# `bench/tracer.py` wraps the backward of every op result that is an
# instance of `Tensor`. Kernels return plain arrays, so that is the empty
# tuple of types, which matches nothing.
Tensor = ()


class EmptySupportError(ValueError):
    """Raised when a masked reduction has no active cells."""


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b with a row-broadcast bias."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"affine dimension mismatch: {x.shape} x {w.shape}")
    out = x @ w
    out += b
    return out


def affine_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                    gw: np.ndarray, gb: np.ndarray, dx: bool = True):
    """Write dL/dw into `gw` and dL/db into `gb`; return dL/dx, or None
    when `dx` is false (an input that is data, not an activation)."""
    np.matmul(x.T, g, out=gw)
    # For a C-ordered g of two or more columns, einsum and add.reduce both
    # add each column's rows one after another, bit for bit, and einsum is
    # faster. For one column, or a column-major g, add.reduce sums pairwise.
    if g.shape[1] > 1 and g.flags.c_contiguous:
        np.einsum("ij->j", g, out=gb)
    else:
        np.add.reduce(g, axis=0, out=gb)
    if not dx:
        return None
    # with one output the gemm has one term per entry: the broadcast
    # product gives the same bits, faster
    return g * w.T if w.shape[1] == 1 else g @ w.T


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D arrays")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def matmul_backward(g: np.ndarray, a: np.ndarray, b: np.ndarray,
                    gb: np.ndarray, da: bool = True):
    """Write dL/db into `gb`; return dL/da, or None when `da` is false."""
    np.matmul(a.T, g, out=gb)
    return g @ b.T if da else None


def relu(a: np.ndarray) -> np.ndarray:
    # fmax drops a nan for the 0.0, and adding 0.0 turns a -0.0 into +0.0:
    # bit for bit np.where(a > 0, a, 0.0), at a fraction of its cost
    out = np.fmax(a, 0.0)
    out += 0.0
    return out


def relu_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of relu's input from its output `out` (out > 0 iff a > 0)."""
    return g * (out > 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # One exp of -|x| serves both signs, so it never overflows: 1/(1+e)
    # where x >= 0, e/(1+e) below. Bit for bit the two-branch formula.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def layer_norm(a: np.ndarray, eps: float = 1e-5):
    """Row-wise normalization to zero mean, unit variance (no affine params).

    Returns (xhat, inv_std), the output and the per-row 1/std its backward
    reads.
    """
    if a.ndim != 2:
        raise ValueError("layer_norm expects a 2-D array")
    # `add.reduce` then a divide is exactly what `.mean` computes, and the
    # variance is numpy's own var arithmetic on the centred rows: bit-identical
    # to a.var(axis=1). Centring and scaling reuse one buffer.
    n = a.shape[1]
    xhat = a - np.add.reduce(a, axis=1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    return xhat, inv_std


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray,
                        inv_std: np.ndarray) -> np.ndarray:
    n = g.shape[1]
    gm = np.add.reduce(g, axis=1, keepdims=True) / n
    t = g * xhat
    gx = np.add.reduce(t, axis=1, keepdims=True) / n
    ga = g - gm
    ga -= np.multiply(xhat, gx, out=t)
    ga *= inv_std
    return ga


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum of x over axis 2, bit for bit `x.sum(axis=-1)` of x with that
    axis moved last and made contiguous.

    Float addition is not associative, so a key-major softmax matches the
    query-major one (and the model's outputs match their earlier values)
    only if its sums add in numpy's order. numpy sums a contiguous row
    pairwise from +0.0, and this adds whole slices x[:, :, i] in that same
    order: one at a time below 8 slices; up to 128, eight running sums over
    blocks of 8, joined by the fixed tree ((0+1)+(2+3))+((4+5)+(6+7)) and
    followed by the remainder one at a time; above 128, the two halves,
    split at a multiple of 8, each summed so. Each addition covers every
    output at once, so a short summed axis costs a few calls, not one per
    output.
    """
    n = x.shape[2]
    if n < 8:
        out = x[:, :, 0] + 0.0
        for i in range(1, n):
            out += x[:, :, i]
        return out
    out = _pairwise_block(x, 0, n)
    out += 0.0      # numpy's reduction starts from +0.0
    return out


def _pairwise_block(x: np.ndarray, lo: int, n: int) -> np.ndarray:
    # numpy's pairwise_sum of x[:, :, lo:lo + n] for n >= 8
    if n > 128:
        half = n // 2
        half -= half % 8
        out = _pairwise_block(x, lo, half)
        out += _pairwise_block(x, lo + half, n - half)
        return out
    r = x[:, :, lo:lo + 8].copy()
    end = lo + n - n % 8
    for i in range(lo + 8, end, 8):
        r += x[:, :, i:i + 8]
    out = r[:, :, 0] + r[:, :, 1]
    out += r[:, :, 2] + r[:, :, 3]
    right = r[:, :, 4] + r[:, :, 5]
    right += r[:, :, 6] + r[:, :, 7]
    out += right
    for i in range(end, lo + n):
        out += x[:, :, i]
    return out


def batched_cross_attention(qp: np.ndarray, kp: np.ndarray, vp: np.ndarray,
                            n_heads: int, batch: int):
    """Scaled-dot-product attention over `batch` samples and `n_heads` heads.

    qp is the projected query, (n_q, f), shared by every sample. kp / vp are
    the projected keys and values stacked per sample, (batch*n_k, f). Heads
    are contiguous column blocks of width f // n_heads. Returns the
    (batch*n_q, f) output and what the backward keeps: the attention
    weights and the per-head views of qp, kp and vp.

    The weights are key-major, (batch, n_heads, n_k, n_q): the softmax runs
    over axis 2, so its max, shift, exp and divide each broadcast along the
    contiguous query axis (n_q is the BEV grid's cell count, n_k only the
    number of active camera bins), one numpy call each instead of one per
    query row. The max is exact in any order and the row sums go through
    `_pairwise_sum`, so the weights are bit for bit those of a query-major
    softmax over the last axis. The matmuls are the query-major ones with
    operands swapped or transposed. OpenBLAS gives the same products at the
    model's head width of 8; at some widths (1-4 and 12 of those tried) its
    kernel for a transposed operand sums in another order, so the outputs
    differ from a query-major kernel's in the last bits.
    """
    f = qp.shape[1]
    if f % n_heads != 0:
        raise ValueError("feature dim must divide by n_heads")
    dh = f // n_heads
    n_k = kp.shape[0] // batch
    n_q = qp.shape[0]
    scale_f = 1.0 / math.sqrt(dh)

    q4 = qp.reshape(n_q, n_heads, dh).transpose(1, 0, 2)[None]    # (1,H,nq,dh)
    k4 = kp.reshape(batch, n_k, n_heads, dh).transpose(0, 2, 1, 3)
    v4 = vp.reshape(batch, n_k, n_heads, dh).transpose(0, 2, 1, 3)

    attn = k4 @ q4.transpose(0, 1, 3, 2)                            # (B,H,nk,nq)
    attn *= scale_f
    # where +0.0 and -0.0 tie for the max, either gives the same exp(x - max)
    attn -= np.maximum.reduce(attn, axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= _pairwise_sum(attn)[:, :, None]
    out4 = attn.transpose(0, 1, 3, 2) @ v4                          # (B,H,nq,dh)
    out = out4.transpose(0, 2, 1, 3).reshape(batch * n_q, f)
    return out, (attn, q4, k4, v4)


def batched_cross_attention_backward(g: np.ndarray, kept):
    """Gradients of (qp, kp, vp) from the output gradient g, (batch*n_q, f),
    and the forward's `kept` tuple, whose weights are key-major."""
    attn, q4, k4, v4 = kept
    batch, n_heads, n_k, n_q = attn.shape
    dh = q4.shape[-1]
    f = n_heads * dh
    scale_f = 1.0 / math.sqrt(dh)
    g4 = g.reshape(batch, n_q, n_heads, dh).transpose(0, 2, 1, 3)
    gv = attn @ g4                                                  # (B,H,nk,dh)
    gs = v4 @ g4.transpose(0, 1, 3, 2)                              # (B,H,nk,nq)
    gs -= _pairwise_sum(gs * attn)[:, :, None]
    gs *= attn
    gs *= scale_f
    gq = (gs.transpose(0, 1, 3, 2) @ k4).sum(axis=0)                # (H,nq,dh)
    gk = gs @ q4                                                    # (B,H,nk,dh)
    return (gq.transpose(1, 0, 2).reshape(n_q, f),
            gk.transpose(0, 2, 1, 3).reshape(batch * n_k, f),
            gv.transpose(0, 2, 1, 3).reshape(batch * n_k, f))


def _bce_operands(logits, targets, mask):
    t = np.asarray(targets, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    z = logits
    if z.ndim not in (2, 3) or t.shape != z.shape or m.shape != z.shape[-2:]:
        raise ValueError("bce_with_logits: shape mismatch")
    count = m.sum()
    if count == 0:
        raise EmptySupportError("bce_with_logits: every cell is masked out")
    n = z.shape[0] if z.ndim == 3 else 1
    return z, t, m, count, n


def bce_with_logits(logits: np.ndarray, targets: np.ndarray,
                    mask: np.ndarray) -> float:
    """Masked-mean binary cross-entropy on logits, averaged over samples.

    `logits` and the {0,1} `targets` are (h, w) for one sample or (n, h, w)
    for a batch; the {0,1} `mask` is (h, w) and shared by every sample. The
    result is the mean of the per-sample masked means. Cells with mask == 0
    contribute zero loss and exactly zero gradient. Uses the
    max(z,0) - z*y + log1p(exp(-|z|)) form, so large logits never overflow.
    """
    z, t, m, count, n = _bce_operands(logits, targets, mask)
    per_cell = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    per_sample = (per_cell * m).reshape(n, -1).sum(axis=1) / count
    # a left fold over the samples, then one scale: the same arithmetic as
    # summing n single-sample losses and scaling the sum by 1/n
    return sum(per_sample.tolist()) * (1.0 / n)


def bce_with_logits_backward(logits: np.ndarray, targets: np.ndarray,
                             mask: np.ndarray) -> np.ndarray:
    """Gradient of `bce_with_logits` with respect to `logits`."""
    z, t, m, count, n = _bce_operands(logits, targets, mask)
    return (1.0 / n) * (_sigmoid(z) - t) * m / count
