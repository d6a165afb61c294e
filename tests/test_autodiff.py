"""Gradient and value checks for the tensor engine.

Every differentiable op is checked against central finite differences
(step 1e-5) on randomized small inputs; fused ops additionally get
brute-force value oracles.
"""

import math

import numpy as np
import pytest

from camfed import autodiff as ad
from camfed.autodiff import EmptySupportError, Tensor


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


def check_op(build, shapes, rng, tol=1e-6, shift=0.0):
    """Compare analytic and numeric grads of a weighted sum of build(tensors).

    A random projection is used instead of a plain sum because some ops
    (softmax, layer_norm) have constant output sums, which would make the
    check vacuous.
    """
    arrays = [rng.standard_normal(s) + shift for s in shapes]
    weights = rng.standard_normal(build([Tensor(a) for a in arrays]).shape)

    def scalar(arr_list):
        ts = [Tensor(a) for a in arr_list]
        return float((build(ts).data * weights).sum())

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    proj = ad.mul(out, ad.constant(weights))
    total = ad.scale(ad.mean(proj), proj.size)   # weighted sum as scalar root
    total.backward()
    worst = 0.0
    for k, t in enumerate(tensors):
        numeric = finite_difference(scalar, arrays, k)
        analytic = t.grad if t.grad is not None else np.zeros_like(arrays[k])
        worst = max(worst, max_rel_err(analytic, numeric))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3g} > {tol}"


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_selects_row(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ad.matmul(p, m).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            check_op(lambda ts: ad.matmul(ts[0], ts[1]), [(3, 4), (4, 2)], rng)


class TestBceWithLogits:
    def test_zero_logits_all_background(self):
        logits = Tensor(np.zeros((3, 3)))
        loss = ad.bce_with_logits(logits, np.zeros((3, 3)), np.ones((3, 3)))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_logits(self):
        targets = np.array([[1.0, 0.0]])
        logits = Tensor(np.array([[20.0, -20.0]]))
        loss = ad.bce_with_logits(logits, targets, np.ones((1, 2)))
        assert loss.item() <= 1e-8

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
        loss = ad.bce_with_logits(Tensor(z), y, m)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(EmptySupportError):
            ad.bce_with_logits(Tensor(np.zeros((2, 2))), np.zeros((2, 2)),
                               np.zeros((2, 2)))

    def test_masked_cells_get_zero_gradient(self):
        rng = np.random.default_rng(4)
        z = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        y = np.zeros((4, 4))
        m = np.zeros((4, 4))
        m[0, :] = 1.0
        loss = ad.bce_with_logits(z, y, m)
        loss.backward()
        assert np.all(z.grad[1:, :] == 0.0)
        assert np.any(z.grad[0, :] != 0.0)

    def test_loss_nonnegative_and_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = rng.standard_normal((3, 3))
            y = (rng.random((3, 3)) < 0.5).astype(float)
            t = Tensor(z, requires_grad=True)
            loss = ad.bce_with_logits(t, y, np.ones((3, 3)))
            assert loss.item() >= 0.0
            loss.backward()

            def scalar(arrs):
                return ad.bce_with_logits(Tensor(arrs[0]), y, np.ones((3, 3))).item()

            numeric = finite_difference(scalar, [z], 0)
            assert max_rel_err(t.grad, numeric) <= 1e-6


    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_batch_equals_folded_per_sample_losses_exactly(self, n):
        # the composition a batched loss replaces: one loss per sample, a
        # left fold of ad.add and a 1/n scale, in value and in gradient
        rng = np.random.default_rng(40 + n)
        z = rng.standard_normal((n, 16, 16)) * 3.0
        y = (rng.random((n, 16, 16)) < 0.3).astype(float)
        m = (rng.random((16, 16)) < 0.6).astype(float)
        batched = Tensor(z.copy(), requires_grad=True)
        loss = ad.bce_with_logits(batched, y, m)
        loss.backward()
        rows = [Tensor(z[i].copy(), requires_grad=True) for i in range(n)]
        total = ad.bce_with_logits(rows[0], y[0], m)
        for row, target in zip(rows[1:], y[1:]):
            total = ad.add(total, ad.bce_with_logits(row, target, m))
        total = ad.scale(total, 1.0 / n)
        total.backward()
        assert loss.item() == total.item()
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(batched.grad[i], row.grad)
        assert np.all(batched.grad[:, m == 0.0] == 0.0)

    @pytest.mark.parametrize("targets, mask", [
        (np.zeros((4, 4)), np.ones((4, 4))),
        (np.zeros((2, 4, 4)), np.ones((2, 4, 4))),
        (np.zeros((2, 4, 4)), np.ones((4, 3)))])
    def test_batch_shape_mismatch_raises(self, targets, mask):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.bce_with_logits(Tensor(np.zeros((2, 4, 4))), targets, mask)


class TestElementwiseOps:
    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            check_op(lambda ts: ad.add(ts[0], ts[1]), [(3, 4), (4,)], rng)

    def test_mul(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            check_op(lambda ts: ad.mul(ts[0], ts[1]), [(3, 4), (3, 4)], rng)

    def test_relu(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            # keep inputs away from the kink
            check_op(lambda ts: ad.relu(ts[0]), [(4, 4)], rng, shift=0.5)

    def test_layer_norm(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            check_op(lambda ts: ad.layer_norm(ts[0]), [(3, 6)], rng, tol=1e-5)

    @pytest.mark.parametrize("shape", [(1024, 16), (4096, 16), (5, 3)])
    def test_layer_norm_equals_mean_var_formula_exactly(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = (rng.standard_normal(shape) * rng.uniform(0.1, 50.0)
                 + rng.uniform(-20.0, 20.0))
            mu = a.mean(axis=1, keepdims=True)
            want = (a - mu) * (1.0 / np.sqrt(a.var(axis=1, keepdims=True)
                                             + 1e-5))
            np.testing.assert_array_equal(ad.layer_norm(Tensor(a)).data, want)

    def test_reshape(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            check_op(lambda ts: ad.reshape(ts[0], (2, 6)), [(3, 4)], rng)

    def test_mean(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            check_op(lambda ts: ad.mean(ts[0]), [(3, 4)], rng)

    def test_scale(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            check_op(lambda ts: ad.scale(ts[0], 2.5), [(3, 3)], rng)

    def test_tile_rows(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            check_op(lambda ts: ad.tile_rows(ts[0], 3), [(2, 4)], rng)

    def test_affine(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            check_op(lambda ts: ad.affine(ts[0], ts[1], ts[2]),
                     [(3, 4), (4, 2), (2,)], rng)

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
        x = Tensor(a, requires_grad=True)
        out = ad.layer_norm(x)
        np.testing.assert_array_equal(out.data, xhat)
        out._backward(g)
        np.testing.assert_array_equal(x.grad, want)


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


class TestBatchedCrossAttention:
    @pytest.mark.parametrize("batch,heads,n_q,n_k,dh",
                             [(4, 2, 256, 24, 8), (3, 3, 7, 5, 3)])
    def test_equals_mean_max_formula_exactly(self, batch, heads, n_q, n_k,
                                             dh):
        rng = np.random.default_rng(27)
        f = heads * dh
        q = rng.standard_normal((n_q, f)) * 2.0
        k = rng.standard_normal((batch * n_k, f))
        v = rng.standard_normal((batch * n_k, f))
        g = rng.standard_normal((batch * n_q, f))
        # top-score ties: query 0 scores every key +0.0, and keys 0 and 1
        # of every sample point far along query 1
        q[0] = 0.0
        for b in range(batch):
            k[b * n_k] = k[b * n_k + 1] = 4.0 * q[1]
        qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
        out = ad.batched_cross_attention(qt, kt, vt, n_heads=heads,
                                         batch=batch)
        out._backward(g)
        want = mean_max_attention(q, k, v, heads, batch, g)
        for got, ref in zip((out.data, qt.grad, kt.grad, vt.grad), want):
            np.testing.assert_array_equal(got, ref)

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
        ad._softmax_(x)
        np.testing.assert_array_equal(x, want)
    def test_gradient_shared_query(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            check_op(lambda ts: ad.batched_cross_attention(
                ts[0], ts[1], ts[2], n_heads=2, batch=2),
                [(3, 4), (10, 4), (10, 4)], rng)

    def test_equal_scores_average_values(self):
        # a zero query scores every key alike: each head returns the mean
        # of its sample's value rows
        rng = np.random.default_rng(25)
        v = rng.standard_normal((2 * 5, 4))
        out = ad.batched_cross_attention(Tensor(np.zeros((3, 4))),
                                         Tensor(rng.standard_normal((10, 4))),
                                         Tensor(v), n_heads=2, batch=2).data
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
        out = ad.batched_cross_attention(Tensor(q), Tensor(k), Tensor(v),
                                         n_heads=1, batch=1).data
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
            out = ad.batched_cross_attention(
                Tensor(q), Tensor(k), Tensor(np.tile(c, (10, 1))), n_heads=2,
                batch=2).data
            np.testing.assert_allclose(out, np.tile(c, (6, 1)), atol=1e-12)

    def test_matches_naive_per_head_composition(self):
        # the fused op must equal the slice/softmax/matmul composition
        rng = np.random.default_rng(23)
        n_q, n_k, f, heads, batch = 3, 5, 4, 2, 2
        q = rng.standard_normal((n_q, f))
        k = rng.standard_normal((batch * n_k, f))
        v = rng.standard_normal((batch * n_k, f))
        fused = ad.batched_cross_attention(Tensor(q), Tensor(k), Tensor(v),
                                           n_heads=heads, batch=batch).data
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


class TestGraphBehavior:
    def test_repeat_run_bit_identical(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))

        def run():
            t = ad.matmul(ad.relu(Tensor(a)), ad.layer_norm(Tensor(b)))
            return ad.batched_cross_attention(t, t, t, n_heads=2, batch=1).data

        first, second = run(), run()
        assert np.array_equal(first, second)

    def test_shared_subexpression_grad(self):
        # y = x used twice: grad must accumulate both paths
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        out = ad.add(ad.mul(x, x), x)   # x^2 + x -> d/dx = 2x + 1 = 5
        ad.mean(out).backward()
        assert x.grad[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(x, x).backward()

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((5, 5)) * 50.0)
        ops = (ad.relu, ad.layer_norm,
               lambda t: ad.batched_cross_attention(t, t, t, n_heads=1,
                                                    batch=1),
               lambda t: ad.bce_with_logits(t, np.ones((5, 5)),
                                            np.ones((5, 5))))
        for op in ops:
            assert np.isfinite(op(x).data).all()

    def test_ops_over_constants_keep_no_graph(self):
        rng = np.random.default_rng(19)
        x = ad.constant(rng.standard_normal((4, 4)))
        w = ad.constant(rng.standard_normal((4, 4)))
        b = ad.constant(rng.standard_normal(4))
        ones = np.ones((4, 4))
        outs = [ad.add(x, w), ad.mul(x, w), ad.scale(x, 2.0), ad.matmul(x, w),
                ad.affine(x, w, b), ad.relu(x), ad.layer_norm(x),
                ad.reshape(x, (2, 8)), ad.mean(x), ad.tile_rows(x, 2),
                ad.batched_cross_attention(x, w, w, n_heads=2, batch=2),
                ad.bce_with_logits(x, ones, ones)]
        for out in outs:
            assert out.requires_grad is False
            assert out._parents == ()
            assert out._backward is None
        # one input that needs a gradient brings the graph back
        leaf = Tensor(w.data, requires_grad=True)
        out = ad.matmul(x, leaf)
        assert out.requires_grad and out._parents == (x, leaf)
        assert out._backward is not None
