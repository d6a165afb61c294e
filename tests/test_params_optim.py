import numpy as np
import pytest

from camfed.optim import AdamW, NonFiniteGradientError, sgd_step
from camfed.params import ParamStore


@pytest.fixture
def store():
    s = ParamStore([("a", 3), ("b", 2)])
    s.values[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
    return s


class TestParamStore:
    def test_segments_contiguous_and_cover(self, store):
        assert store.segment_table() == [("a", 0, 3), ("b", 3, 2)]
        assert store.n == 5
        assert store.grads.shape == (5,)

    def test_views_alias_values(self, store):
        store.view("b")[0] = 99.0
        assert store.values[3] == 99.0

    def test_indices(self, store):
        np.testing.assert_array_equal(store.indices(["b"]), [3, 4])
        np.testing.assert_array_equal(store.indices(["a", "b"]), [0, 1, 2, 3, 4])
        assert store.indices([]).size == 0

    def test_clone_is_independent(self, store):
        c = store.clone()
        c.values[0] = -1.0
        assert store.values[0] == 1.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParamStore([("a", 2), ("a", 3)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamStore([("a", 2)], values=np.zeros(3))


class TestSgd:
    def test_zero_lr_identity(self, store):
        store.grads[:] = 1.0
        before = store.values.copy()
        sgd_step(store, lr=0.0)
        np.testing.assert_array_equal(store.values, before)

    def test_arithmetic(self):
        s = ParamStore([("a", 2)])
        s.values[:] = [1.0, 2.0]
        s.grads[:] = [1.0, 1.0]
        sgd_step(s, lr=0.5)
        np.testing.assert_array_equal(s.values, [0.5, 1.5])

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        s = ParamStore([("a", 64)])
        s.values[:] = rng.standard_normal(64)
        s.grads[:] = rng.standard_normal(64)
        expected = s.values - 0.07 * s.grads
        sgd_step(s, lr=0.07)
        np.testing.assert_allclose(s.values, expected, atol=1e-15, rtol=0)

    def test_slice_only(self, store):
        # a per-index rate that is zero off the slice freezes those indices
        store.grads[:] = 1.0
        sgd_step(store, lr=np.array([1.0, 0.0, 0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(store.values, [0.0, 2.0, 3.0, 4.0, 4.0])

    def test_nonfinite_rejected(self, store):
        store.grads[1] = np.nan
        with pytest.raises(NonFiniteGradientError):
            sgd_step(store, lr=0.1)


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self, store):
        opt = AdamW(store.n, lr=0.1, weight_decay=0.0)
        before = store.values.copy()
        opt.step(store)
        np.testing.assert_array_equal(store.values, before)

    def test_single_step_oracle(self):
        # from zero moments: delta = -lr * g / (|g| + eps), bias correction
        # cancels exactly on the first step
        s = ParamStore([("a", 3)])
        s.values[:] = [1.0, 1.0, 1.0]
        g = np.array([0.5, -2.0, 3.0])
        s.grads[:] = g
        lr, eps = 0.01, 1e-8
        opt = AdamW(s.n, lr=lr, eps=eps, weight_decay=0.0)
        opt.step(s)
        expected = 1.0 - lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(s.values, expected, atol=1e-12, rtol=0)

    def test_decoupled_decay_shrinks(self):
        s = ParamStore([("a", 4)])
        s.values[:] = [1.0, -2.0, 3.0, -4.0]
        before = s.values.copy()
        opt = AdamW(s.n, lr=0.1, weight_decay=0.01)
        opt.step(s)   # zero gradient
        np.testing.assert_allclose(s.values, before * (1.0 - 0.1 * 0.01),
                                   atol=1e-15, rtol=0)

    def test_nonfinite_rejected(self, store):
        store.grads[0] = np.inf
        with pytest.raises(NonFiniteGradientError):
            AdamW(store.n).step(store)

    def test_two_step_bias_correction_oracle(self):
        s = ParamStore([("a", 2)])
        s.values[:] = [1.0, -1.0]
        g1, g2 = np.array([0.5, -2.0]), np.array([1.5, 0.25])
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = AdamW(s.n, lr=lr, betas=(b1, b2), eps=eps, weight_decay=0.0)
        s.grads[:] = g1
        opt.step(s)
        after_one = s.values.copy()
        s.grads[:] = g2
        opt.step(s)
        m = b1 * (1 - b1) * g1 + (1 - b1) * g2
        v = b2 * (1 - b2) * g1 ** 2 + (1 - b2) * g2 ** 2
        update = (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
        np.testing.assert_allclose(s.values, after_one - lr * update,
                                   atol=1e-15, rtol=0)
        assert opt.t == 2

    def test_disjoint_slices_match_vector_step(self):
        # one step with a per-index rate equals, bit for bit, scalar-rate
        # steps of fresh optimizers on each part, because moments and the
        # update are elementwise
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(10)
        g = rng.standard_normal(10)
        idx_u, idx_v = np.arange(0, 6), np.arange(6, 10)
        lr = np.empty(10)
        lr[idx_u], lr[idx_v] = 0.05, 0.02

        whole = ParamStore([("a", 10)], values=vals)
        whole.grads[:] = g
        AdamW(10).step(whole, lr=lr)
        for idx, rate in ((idx_u, 0.05), (idx_v, 0.02)):
            part = ParamStore([("a", idx.size)], values=vals[idx])
            part.grads[:] = g[idx]
            AdamW(idx.size).step(part, lr=rate)
            np.testing.assert_array_equal(whole.values[idx], part.values)
