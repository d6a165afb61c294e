"""Gradient and value checks for the kernel pairs.

Every kernel's backward is checked against central finite differences
(step 1e-5) of its forward on randomized small inputs; fused kernels
additionally get brute-force value oracles.
"""

import math

import numpy as np
import pytest

from camfed import autodiff as ad
from camfed.autodiff import EmptySupportError


def finite_difference(fn, arrays, which, step=1e-5):
    """Central-difference gradient of scalar fn w.r.t. arrays[which]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[which])
    flat = grad.ravel()
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            probe = [a.copy() for a in base]
            probe[which].ravel()[i] += sign * step
            val = fn(probe)
            flat[i] += sign * val / (2.0 * step)
    return grad


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def affine_pair(arrays, g):
    x, w, b = arrays
    gw, gb = np.empty_like(w), np.empty_like(b)
    return [ad.affine_backward(g, x, w, gw, gb), gw, gb]


def matmul_pair(arrays, g):
    a, b = arrays
    gb = np.empty_like(b)
    return [ad.matmul_backward(g, a, b, gb), gb]


def relu_pair(arrays, g):
    return [ad.relu_backward(g, ad.relu(arrays[0]))]


def layer_norm_pair(arrays, g):
    return [ad.layer_norm_backward(g, *ad.layer_norm(arrays[0]))]


def attention_pair(arrays, g):
    _, kept = ad.batched_cross_attention(*arrays, n_heads=2, batch=2)
    return list(ad.batched_cross_attention_backward(g, kept))


def check_pair(forward, backward, shapes, rng, tol=1e-6, shift=0.0):
    """Compare backward(arrays, weights) with the finite-difference
    gradient of the weighted sum of forward(arrays).

    A random projection is used instead of a plain sum because some
    kernels (softmax, layer_norm) have constant output sums, which would
    make the check vacuous.
    """
    arrays = [rng.standard_normal(s) + shift for s in shapes]
    weights = rng.standard_normal(forward(arrays).shape)

    def scalar(arr_list):
        return float((forward(arr_list) * weights).sum())

    analytic = backward(arrays, weights)
    worst = 0.0
    for k, grad in enumerate(analytic):
        numeric = finite_difference(scalar, arrays, k)
        worst = max(worst, max_rel_err(grad, numeric))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3g} > {tol}"


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(np.eye(2), b), [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_selects_row(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        m = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ad.matmul(p, m), [[5.0, 6.0], [0.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            check_pair(lambda a: ad.matmul(a[0], a[1]), matmul_pair,
                       [(3, 4), (4, 2)], rng)

    def test_backward_without_input_gradient_still_writes_gb(self):
        rng = np.random.default_rng(1)
        a, b, g = (rng.standard_normal(s) for s in ((3, 4), (4, 2), (3, 2)))
        gb = np.empty((4, 2))
        assert ad.matmul_backward(g, a, b, gb, da=False) is None
        np.testing.assert_array_equal(gb, a.T @ g)


class TestBceWithLogits:
    def test_zero_logits_all_background(self):
        loss = ad.bce_with_logits(np.zeros((3, 3)), np.zeros((3, 3)),
                                  np.ones((3, 3)))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_logits(self):
        targets = np.array([[1.0, 0.0]])
        loss = ad.bce_with_logits(np.array([[20.0, -20.0]]), targets,
                                  np.ones((1, 2)))
        assert loss <= 1e-8

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) * 2.0
        y = (rng.random((4, 4)) < 0.4).astype(float)
        m = (rng.random((4, 4)) < 0.7).astype(float)
        if m.sum() == 0:
            m[0, 0] = 1.0
        # direct per-cell summation
        total = 0.0
        for i in range(4):
            for j in range(4):
                if m[i, j] == 1.0:
                    p = 1.0 / (1.0 + math.exp(-z[i, j]))
                    total += -(y[i, j] * math.log(p) + (1 - y[i, j]) * math.log(1 - p))
        expected = total / m.sum()
        assert ad.bce_with_logits(z, y, m) == pytest.approx(expected, abs=1e-12)

    def test_all_masked_raises(self):
        for kernel in (ad.bce_with_logits, ad.bce_with_logits_backward):
            with pytest.raises(EmptySupportError):
                kernel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_masked_cells_get_zero_gradient(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((4, 4))
        m = np.zeros((4, 4))
        m[0, :] = 1.0
        grad = ad.bce_with_logits_backward(z, np.zeros((4, 4)), m)
        assert np.all(grad[1:, :] == 0.0)
        assert np.any(grad[0, :] != 0.0)

    def test_loss_nonnegative_and_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = rng.standard_normal((3, 3))
            y = (rng.random((3, 3)) < 0.5).astype(float)
            assert ad.bce_with_logits(z, y, np.ones((3, 3))) >= 0.0
            grad = ad.bce_with_logits_backward(z, y, np.ones((3, 3)))

            def scalar(arrs):
                return ad.bce_with_logits(arrs[0], y, np.ones((3, 3)))

            numeric = finite_difference(scalar, [z], 0)
            assert max_rel_err(grad, numeric) <= 1e-6

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_batch_equals_folded_per_sample_losses_exactly(self, n):
        # the composition a batched loss replaces: one loss per sample, a
        # left fold of additions and a 1/n scale, in value; in gradient,
        # each sample's (1/n) (sigmoid(z) - y) m / count
        rng = np.random.default_rng(40 + n)
        z = rng.standard_normal((n, 16, 16)) * 3.0
        y = (rng.random((n, 16, 16)) < 0.3).astype(float)
        m = (rng.random((16, 16)) < 0.6).astype(float)
        loss = ad.bce_with_logits(z, y, m)
        grad = ad.bce_with_logits_backward(z, y, m)
        total = ad.bce_with_logits(z[0], y[0], m)
        for row, target in zip(z[1:], y[1:]):
            total = total + ad.bce_with_logits(row, target, m)
        total = total * (1.0 / n)
        assert loss == total
        for i in range(n):
            np.testing.assert_array_equal(
                grad[i], (1.0 / n) * (ad._sigmoid(z[i]) - y[i]) * m / m.sum())
        assert np.all(grad[:, m == 0.0] == 0.0)

    @pytest.mark.parametrize("targets, mask", [
        (np.zeros((4, 4)), np.ones((4, 4))),
        (np.zeros((2, 4, 4)), np.ones((2, 4, 4))),
        (np.zeros((2, 4, 4)), np.ones((4, 3)))])
    def test_batch_shape_mismatch_raises(self, targets, mask):
        for kernel in (ad.bce_with_logits, ad.bce_with_logits_backward):
            with pytest.raises(ValueError, match="shape mismatch"):
                kernel(np.zeros((2, 4, 4)), targets, mask)


class TestElementwiseOps:
    def test_sigmoid_equals_two_branch_formula_bitwise(self):
        rng = np.random.default_rng(29)
        edges = [0.0, -0.0, 5e-324, -5e-324, 700.0, -700.0, 745.0, -745.0,
                 746.0, -746.0, np.inf, -np.inf]
        x = np.concatenate([rng.standard_normal(10**5) * 30.0, edges])
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert ad._sigmoid(x).tobytes() == want.tobytes()
        batch = x[:1024].reshape(4, 16, 16)
        assert ad._sigmoid(batch).tobytes() == want[:1024].tobytes()

    def test_relu(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            # keep inputs away from the kink
            check_pair(lambda a: ad.relu(a[0]), relu_pair, [(4, 4)], rng,
                       shift=0.5)

    def test_relu_equals_where_formula_exactly(self):
        rng = np.random.default_rng(9)
        a = np.concatenate([rng.standard_normal(20),
                            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                             5e-324, -5e-324]])
        out = ad.relu(a)
        want = np.where(a > 0.0, a, 0.0)
        np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
        g = rng.standard_normal(a.shape)
        g[-3:] = -1.0
        np.testing.assert_array_equal(
            ad.relu_backward(g, out).view(np.int64),
            (g * (a > 0.0)).view(np.int64))

    def test_layer_norm(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            check_pair(lambda a: ad.layer_norm(a[0])[0], layer_norm_pair,
                       [(3, 6)], rng, tol=1e-5)

    @pytest.mark.parametrize("shape", [(1024, 16), (4096, 16), (5, 3)])
    def test_layer_norm_equals_mean_var_formula_exactly(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = (rng.standard_normal(shape) * rng.uniform(0.1, 50.0)
                 + rng.uniform(-20.0, 20.0))
            mu = a.mean(axis=1, keepdims=True)
            want = (a - mu) * (1.0 / np.sqrt(a.var(axis=1, keepdims=True)
                                             + 1e-5))
            np.testing.assert_array_equal(ad.layer_norm(a)[0], want)

    def test_affine(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            check_pair(lambda a: ad.affine(a[0], a[1], a[2]), affine_pair,
                       [(3, 4), (4, 2), (2,)], rng)

    @pytest.mark.parametrize("n_out", [1, 16])
    def test_affine_backward_writes_the_formula_into_its_outputs(self, n_out):
        # gw and gb are written in place, as x.T @ g and g.sum(axis=0)
        rng = np.random.default_rng(29)
        x, w = rng.standard_normal((1024, 16)), rng.standard_normal((16, n_out))
        g = rng.standard_normal((1024, n_out))
        flat = np.full(16 * n_out + n_out, np.nan)
        gw, gb = flat[:16 * n_out].reshape(16, n_out), flat[16 * n_out:]
        gx = ad.affine_backward(g, x, w, gw, gb)
        np.testing.assert_array_equal(gw, x.T @ g)
        np.testing.assert_array_equal(gb, g.sum(axis=0))
        np.testing.assert_array_equal(gx, g @ w.T)
        assert ad.affine_backward(g, x, w, gw, gb, dx=False) is None

    @pytest.mark.parametrize("shape", [(1024, 16), (1024, 32), (96, 16),
                                       (6, 16), (6, 2), (1, 16), (1024, 1),
                                       (5, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_affine_backward_fast_paths_equal_reference_bitwise(self, shape,
                                                                order):
        # each fast path (the bias sum, the one-output input gradient) is
        # bit for bit add.reduce and the gemm, over magnitudes 1e-13..1e13
        rng = np.random.default_rng(31)
        n, n_out = shape
        for _ in range(10):
            g = np.asarray(rng.standard_normal(shape)
                           * np.exp(rng.uniform(-30.0, 30.0, shape)),
                           order=order)
            x = rng.standard_normal((n, 3))
            w = rng.standard_normal((3, n_out)) * 1e3
            gw, gb = np.empty((3, n_out)), np.empty(n_out)
            gx = ad.affine_backward(g, x, w, gw, gb)
            assert gb.tobytes() == np.add.reduce(g, axis=0).tobytes()
            assert gx.tobytes() == np.ascontiguousarray(g @ w.T).tobytes()

    @pytest.mark.parametrize("shape", [(1024, 16), (5, 3)])
    def test_layer_norm_gradient_equals_mean_formula_exactly(self, shape):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(shape) * 7.0 + 3.0
        g = rng.standard_normal(shape)
        xc = a - a.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True)
                                / shape[1] + 1e-5)
        xhat = xc * inv_std
        want = inv_std * (g - g.mean(axis=1, keepdims=True)
                          - xhat * (g * xhat).mean(axis=1, keepdims=True))
        out, kept_inv_std = ad.layer_norm(a)
        np.testing.assert_array_equal(out, xhat)
        np.testing.assert_array_equal(
            ad.layer_norm_backward(g, out, kept_inv_std), want)


def mean_max_attention(q, k, v, n_heads, batch, g):
    """Attention by `.max` and out-of-place softmax arithmetic: the output,
    then the gradients of q, k and v for upstream gradient g."""
    n_q, f = q.shape
    dh = f // n_heads
    n_k = k.shape[0] // batch
    scale_f = 1.0 / math.sqrt(dh)
    q4 = q.reshape(n_q, n_heads, dh).transpose(1, 0, 2)[None]
    k4 = k.reshape(batch, n_k, n_heads, dh).transpose(0, 2, 1, 3)
    v4 = v.reshape(batch, n_k, n_heads, dh).transpose(0, 2, 1, 3)
    scores = (q4 @ k4.transpose(0, 1, 3, 2)) * scale_f
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = (attn @ v4).transpose(0, 2, 1, 3).reshape(batch * n_q, f)
    g4 = g.reshape(batch, n_q, n_heads, dh).transpose(0, 2, 1, 3)
    gv = attn.transpose(0, 1, 3, 2) @ g4
    ga = g4 @ v4.transpose(0, 1, 3, 2)
    gs = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True))
    gs *= scale_f
    gq = (gs @ k4).sum(axis=0)
    gk = gs.transpose(0, 1, 3, 2) @ q4
    return (out, gq.transpose(1, 0, 2).reshape(n_q, f),
            gk.transpose(0, 2, 1, 3).reshape(batch * n_k, f),
            gv.transpose(0, 2, 1, 3).reshape(batch * n_k, f))


def assert_attention_equals_mean_max(batch, heads, n_q, n_k, dh):
    rng = np.random.default_rng(27)
    f = heads * dh
    q = rng.standard_normal((n_q, f)) * 2.0
    k = rng.standard_normal((batch * n_k, f))
    v = rng.standard_normal((batch * n_k, f))
    g = rng.standard_normal((batch * n_q, f))
    # top-score ties: query 0 scores every key +0.0, and keys 0 and 1 of
    # every sample point far along query 1
    q[0] = 0.0
    if n_k > 1:
        for b in range(batch):
            k[b * n_k] = k[b * n_k + 1] = 4.0 * q[1]
    out, kept = ad.batched_cross_attention(q, k, v, n_heads=heads,
                                           batch=batch)
    gq, gk, gv = ad.batched_cross_attention_backward(g, kept)
    want = mean_max_attention(q, k, v, heads, batch, g)
    for got, ref in zip((out, gq, gk, gv), want):
        np.testing.assert_array_equal(got, ref)


class TestBatchedCrossAttention:
    # The model's heads (2 of width 8 over a 16x16 grid) with key counts
    # that cross numpy's pairwise-sum thresholds at 8 and 128, plus a small
    # odd shape. The key-major matmuls give the query-major products bit for
    # bit at these head widths; at some others (1-4, 12) OpenBLAS picks a
    # kernel for the transposed operand that sums in another order.
    @pytest.mark.parametrize("batch,heads,n_q,n_k,dh", [
        (batch, 2, 256, n_k, 8)
        for n_k in (1, 5, 7, 8, 9, 16, 18, 24, 129, 200)
        for batch in (1, 2, 4, 8)] + [(3, 3, 7, 5, 3)])
    def test_equals_mean_max_formula_exactly(self, batch, heads, n_q, n_k,
                                             dh):
        assert_attention_equals_mean_max(batch, heads, n_q, n_k, dh)

    @pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 16, 18, 24, 127, 128, 129,
                                   200, 300])
    def test_pairwise_sum_equals_numpy_row_sum_bitwise(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2, 3, n, 5)) * 10.0 ** rng.uniform(
            -8, 8, (2, 3, n, 5))
        x[0, 0] = -0.0          # an all -0.0 row sums to +0.0
        want = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).sum(axis=-1)
        assert ad._pairwise_sum(x).tobytes() == want.tobytes()

    def test_softmax_signed_zero_ties_equal_mean_max_formula(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((3, 2, 6, 5))
        x[0, 0, :, :2] = (0.0, -0.0)
        x[0, 1, :, :2] = (-0.0, 0.0)
        x[1, :, :, 3] = -0.0
        x[1, :, :, 4] = 0.0
        x[0, :, :, 2:] = -np.abs(x[0, :, :, 2:])
        x[1, :, :, :3] = -np.abs(x[1, :, :, :3]) - 1.0
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        # the kernel's key-major softmax, keys on axis 2
        w = np.ascontiguousarray(x.transpose(0, 1, 3, 2))
        w -= np.maximum.reduce(w, axis=2, keepdims=True)
        np.exp(w, out=w)
        w /= ad._pairwise_sum(w)[:, :, None]
        np.testing.assert_array_equal(w.transpose(0, 1, 3, 2), want)

    def test_gradient_shared_query(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            check_pair(lambda a: ad.batched_cross_attention(
                a[0], a[1], a[2], n_heads=2, batch=2)[0], attention_pair,
                [(3, 4), (10, 4), (10, 4)], rng)

    def test_equal_scores_average_values(self):
        # a zero query scores every key alike: each head returns the mean
        # of its sample's value rows
        rng = np.random.default_rng(25)
        v = rng.standard_normal((2 * 5, 4))
        out, _ = ad.batched_cross_attention(np.zeros((3, 4)),
                                            rng.standard_normal((10, 4)), v,
                                            n_heads=2, batch=2)
        for b in range(2):
            expected = v[b * 5:(b + 1) * 5].mean(axis=0)
            np.testing.assert_allclose(out[b * 3:(b + 1) * 3],
                                       np.tile(expected, (3, 1)), atol=1e-12)

    def test_large_scores_no_overflow(self):
        # scores near 1e6 must not overflow the softmax: the winning key's
        # value row comes back
        q = np.array([[1000.0, 1000.0]])
        k = np.array([[1000.0, 1000.0], [-1000.0, -1000.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        out, _ = ad.batched_cross_attention(q, k, v, n_heads=1, batch=1)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 2.0]], atol=1e-12)

    def test_weights_sum_to_one(self):
        # with every value row equal to c, any weighting summing to one
        # returns c
        rng = np.random.default_rng(26)
        c = rng.standard_normal(4)
        for _ in range(10):
            q = rng.standard_normal((3, 4)) * 3.0
            k = rng.standard_normal((10, 4)) * 3.0
            out, _ = ad.batched_cross_attention(q, k, np.tile(c, (10, 1)),
                                                n_heads=2, batch=2)
            np.testing.assert_allclose(out, np.tile(c, (6, 1)), atol=1e-12)

    def test_matches_naive_per_head_composition(self):
        # the fused kernel must equal the slice/softmax/matmul composition
        rng = np.random.default_rng(23)
        n_q, n_k, f, heads, batch = 3, 5, 4, 2, 2
        q = rng.standard_normal((n_q, f))
        k = rng.standard_normal((batch * n_k, f))
        v = rng.standard_normal((batch * n_k, f))
        fused, _ = ad.batched_cross_attention(q, k, v, n_heads=heads,
                                              batch=batch)
        dh = f // heads
        for b in range(batch):
            kb, vb = k[b * n_k:(b + 1) * n_k], v[b * n_k:(b + 1) * n_k]
            outs = []
            for h in range(heads):
                qh = q[:, h * dh:(h + 1) * dh]
                kh = kb[:, h * dh:(h + 1) * dh]
                vh = vb[:, h * dh:(h + 1) * dh]
                scores = qh @ kh.T / math.sqrt(dh)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                attn = e / e.sum(axis=1, keepdims=True)
                outs.append(attn @ vh)
            expected = np.concatenate(outs, axis=1)
            np.testing.assert_allclose(fused[b * n_q:(b + 1) * n_q], expected,
                                       atol=1e-12)


class TestKernelBehavior:
    def test_repeat_run_bit_identical(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))

        def run():
            t = ad.matmul(ad.relu(a), ad.layer_norm(b)[0])
            out, kept = ad.batched_cross_attention(t, t, t, n_heads=2,
                                                   batch=1)
            return (out,) + ad.batched_cross_attention_backward(out, kept)

        for first, second in zip(run(), run()):
            assert np.array_equal(first, second)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 5)) * 50.0
        ops = (ad.relu, lambda t: ad.layer_norm(t)[0],
               lambda t: ad.batched_cross_attention(t, t, t, n_heads=1,
                                                    batch=1)[0],
               lambda t: ad.bce_with_logits(t, np.ones((5, 5)),
                                            np.ones((5, 5))),
               lambda t: ad.bce_with_logits_backward(t, np.ones((5, 5)),
                                                     np.ones((5, 5))))
        for op in ops:
            assert np.isfinite(op(x)).all()

    def test_kernels_do_not_write_their_inputs(self):
        rng = np.random.default_rng(19)
        x, w, b, g = (rng.standard_normal(s)
                      for s in ((6, 4), (4, 4), (4,), (6, 4)))
        arrays = (x, w, b, g)
        for a in arrays:
            a.setflags(write=False)
        ad.relu_backward(g, ad.relu(x))
        ad.affine_backward(g, x, w, np.empty((4, 4)), np.empty(4))
        ad.matmul_backward(g, x, w, np.empty((4, 4)))
        ad.layer_norm_backward(g, *ad.layer_norm(x))
        ad.batched_cross_attention_backward(
            g, ad.batched_cross_attention(x, x, x, n_heads=2, batch=1)[1])
