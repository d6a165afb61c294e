import math

import numpy as np
import pytest

from camfed import autodiff as ad
from camfed.model import (ModelConfig, PartitionPolicy, SEGMENT_NAMES, ToyBevt,
                          _rig_geometry, build_layout, camera_ray_directions,
                          init_params, load_checkpoint, pose_rotation,
                          ray_features, save_checkpoint, split_params)
from camfed.world import CameraPose, CameraRig, rig_from_preset, render_views, sample_scene

SMALL = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2, encoder_hidden=8,
                    decoder_hidden=8, n_azimuth_bins=12, n_elevation_bins=2,
                    n_view_channels=4, max_cameras=4, world_extent=16.0)


def small_rig(n_cams=2):
    return rig_from_preset("car", camera_ids=list(range(1, n_cams + 1)),
                           n_azimuth_bins=SMALL.n_azimuth_bins,
                           n_elevation_bins=SMALL.n_elevation_bins)


def small_sample(seed=0, n_cams=2):
    rig = small_rig(n_cams)
    rng = np.random.default_rng(seed)
    views = rng.random((n_cams, SMALL.n_azimuth_bins, SMALL.n_elevation_bins,
                        SMALL.n_view_channels))
    target = (rng.random(SMALL.bev_grid) < 0.3).astype(float)
    return rig, views, target


def train_step(model, views_list, rig, targets, mask):
    """One batch's loss; its gradient is left in model.params.grads."""
    logits, acts = model.forward_batch(views_list, rig)
    model.backward(acts, ad.bce_with_logits_backward(logits, targets, mask))
    return ad.bce_with_logits(logits, targets, mask)


def loss_of(model, views_list, rig, targets, mask):
    return ad.bce_with_logits(model.forward_batch(views_list, rig)[0],
                              targets, mask)


class TestInit:
    def test_deterministic(self):
        a = init_params(SMALL, seed=5)
        b = init_params(SMALL, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_biases_zero(self):
        store = init_params(SMALL, seed=1)
        model = ToyBevt(SMALL, store)
        for key, (sl, shape) in model._offsets.items():
            if ".b" in key:
                assert np.all(store.values[sl] == 0.0), key

    def test_xavier_variance(self):
        # a 1000-element weight matrix: sample variance within 20% of
        # 2 / (fan_in + fan_out)
        cfg = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2,
                          encoder_hidden=100, n_azimuth_bins=8,
                          n_elevation_bins=5, n_view_channels=2)
        # encoder.w1 is (10, 100) = 1000 entries
        store = init_params(cfg, seed=3)
        model = ToyBevt(cfg, store)
        sl, shape = model._offsets["encoder.w1"]
        assert int(np.prod(shape)) == 1000
        target = 2.0 / (shape[0] + shape[1])
        var = store.values[sl].var()
        assert abs(var - target) / target < 0.2

    def test_query_range(self):
        store = init_params(SMALL, seed=2)
        q = store.view("bev_query")
        assert np.all(np.abs(q) <= 0.1)
        assert q.std() > 0.01


class TestPartition:
    def test_segment_names(self):
        store = init_params(SMALL, seed=0)
        assert tuple(s.name for s in store.segments) == SEGMENT_NAMES

    def test_fedavg_empty_private(self):
        store = init_params(SMALL, seed=0)
        pub, priv = split_params(store, PartitionPolicy.from_scheme("fedavg"))
        assert priv.size == 0
        assert pub.size == store.n

    def test_fedcap_private_is_pos_embed(self):
        store = init_params(SMALL, seed=0)
        pub, priv = split_params(store, PartitionPolicy.from_scheme("fedcap"))
        np.testing.assert_array_equal(priv, store.indices(["pos_embed"]))

    def test_partition_identity_all_schemes(self):
        store = init_params(SMALL, seed=0)
        for scheme in ("fedavg", "fedrep", "fedtp", "fedcap"):
            pub, priv = split_params(store, PartitionPolicy.from_scheme(scheme))
            assert pub.size + priv.size == store.n
            assert np.intersect1d(pub, priv).size == 0
            merged = np.sort(np.concatenate([pub, priv]))
            np.testing.assert_array_equal(merged, np.arange(store.n))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            PartitionPolicy.from_scheme("fancy")


class TestGeometry:
    def test_identity_pose_rays_unchanged(self):
        pose = CameraPose(height=2.0, roll=0.0, pitch=0.0, yaw=0.0)
        rig = CameraRig(cameras=(pose,), name="custom")
        feats = ray_features(rig, 8)
        assert feats.shape == (8, 3)
        np.testing.assert_allclose(feats, camera_ray_directions(8),
                                   atol=1e-15)

    def test_yaw_180_negates_xy(self):
        rig = CameraRig(cameras=(CameraPose(height=1.0, yaw=180.0),),
                        name="custom")
        feats = ray_features(rig, 8)
        base = camera_ray_directions(8)
        np.testing.assert_allclose(feats[:, 0], -base[:, 0], atol=1e-12)
        np.testing.assert_allclose(feats[:, 1], -base[:, 1], atol=1e-12)

    def test_rotation_matches_composition_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            roll, pitch, yaw = rng.uniform(-180, 180, 3)
            r, p, y = map(math.radians, (roll, pitch, yaw))
            rx = np.array([[1, 0, 0],
                           [0, math.cos(r), -math.sin(r)],
                           [0, math.sin(r), math.cos(r)]])
            ry = np.array([[math.cos(p), 0, math.sin(p)],
                           [0, 1, 0],
                           [-math.sin(p), 0, math.cos(p)]])
            rz = np.array([[math.cos(y), -math.sin(y), 0],
                           [math.sin(y), math.cos(y), 0],
                           [0, 0, 1]])
            expected = rz @ ry @ rx
            np.testing.assert_allclose(pose_rotation(roll, pitch, yaw),
                                       expected, atol=1e-12)

    def test_ray_set_invariant_under_bin_multiple_yaw_shift(self):
        # rotating every yaw by a whole number of bin widths permutes the
        # full-circle ray set exactly
        n_bins = 12
        delta = 360.0 / n_bins * 2
        rig_a = CameraRig(cameras=(CameraPose(height=1.5, yaw=10.0),),
                          name="custom")
        rig_b = CameraRig(cameras=(CameraPose(height=1.5, yaw=10.0 + delta),),
                          name="custom")
        rays_a = ray_features(rig_a, n_bins)
        rays_b = ray_features(rig_b, n_bins)
        order = lambda r: np.lexsort((r[:, 2], r[:, 1], r[:, 0]))
        np.testing.assert_allclose(rays_a[order(rays_a)], rays_b[order(rays_b)],
                                   atol=1e-12)


class TestForward:
    def test_logits_shape(self):
        rig, views, _ = small_sample()
        model = ToyBevt(SMALL, seed=0)
        logits = model.forward(views, rig)
        assert logits.shape == SMALL.bev_grid

    def test_batch_is_one_tensor_whose_rows_equal_single_forwards(self):
        model = ToyBevt(SMALL, seed=0)
        rig = small_rig()
        views = [small_sample(seed=s)[1] for s in range(3)]
        logits, _ = model.forward_batch(views, rig)
        assert logits.shape == (3, *SMALL.bev_grid)
        for row, v in zip(logits, views):
            np.testing.assert_array_equal(row, model.forward(v, rig))

    def test_too_many_cameras(self):
        cfg = ModelConfig(feat_dim=8, bev_grid=(8, 8), max_cameras=1,
                          n_azimuth_bins=12, n_elevation_bins=2)
        rig, views, _ = small_sample()
        model = ToyBevt(cfg, seed=0)
        with pytest.raises(ValueError):
            model.forward(views, rig)

    def test_identical_tokens_give_constant_logits(self):
        # permutation symmetry: with the positional branch and the cell
        # geometry projections zeroed, all-zero views make every token
        # identical; forcing every query row to a common vector then makes
        # every cell's logit identical (decoder biases are zero-initialized)
        model = ToyBevt(SMALL, seed=1)
        store = model.params
        store.view("pos_embed")[:] = 0.0
        for key, (sl, _) in model._offsets.items():
            if key.endswith(".wc"):
                store.values[sl] = 0.0
        q = store.view("bev_query").reshape(SMALL.n_query_cells, SMALL.feat_dim)
        q[:] = q[0]
        rig = small_rig()
        views = np.zeros((2, SMALL.n_azimuth_bins, SMALL.n_elevation_bins,
                          SMALL.n_view_channels))
        logits = model.forward(views, rig)
        assert np.allclose(logits, logits.flat[0], atol=1e-12)

    def test_masked_query_cell_gets_zero_grad(self):
        rig, views, target = small_sample()
        model = ToyBevt(SMALL, seed=2)
        mask = np.ones(SMALL.bev_grid)
        mask[0, :] = 0.0
        train_step(model, [views], rig, target[None], mask)
        qgrad = model.params.grad_view("bev_query").reshape(
            SMALL.n_query_cells, SMALL.feat_dim)
        masked_rows = np.nonzero(mask.ravel() == 0.0)[0]
        active_rows = np.nonzero(mask.ravel() == 1.0)[0]
        assert np.all(qgrad[masked_rows] == 0.0)
        assert np.any(qgrad[active_rows] != 0.0)

    def _query_grad(self, model, views_list, rig, targets, mask):
        loss = train_step(model, views_list, rig, targets, mask)
        qgrad = model.params.grad_view("bev_query").reshape(
            SMALL.n_query_cells, SMALL.feat_dim)
        return loss, model.params.grads.copy(), qgrad.copy()

    def test_all_ones_mask_gives_every_query_row_grad(self):
        rig, views, target = small_sample(seed=8)
        model = ToyBevt(SMALL, seed=9)
        _, _, qgrad = self._query_grad(model, [views], rig, target[None],
                                       np.ones(SMALL.bev_grid))
        assert np.all(np.any(qgrad != 0.0, axis=1))

    def test_checkerboard_mask_zeroes_half_the_query_rows(self):
        rig, views, target = small_sample(seed=10)
        model = ToyBevt(SMALL, seed=11)
        mask = (np.indices(SMALL.bev_grid).sum(axis=0) % 2).astype(float)
        _, _, qgrad = self._query_grad(model, [views], rig, target[None], mask)
        zero_rows = np.all(qgrad == 0.0, axis=1)
        np.testing.assert_array_equal(zero_rows, mask.ravel() == 0.0)

    def test_masked_batch_query_rows_get_zero_grad(self):
        rig = small_rig()
        rng = np.random.default_rng(12)
        views = [rng.random((2, SMALL.n_azimuth_bins, SMALL.n_elevation_bins,
                             SMALL.n_view_channels)) for _ in range(3)]
        targets = (rng.random((3, *SMALL.bev_grid)) < 0.3).astype(float)
        mask = (rng.random(SMALL.bev_grid) < 0.5).astype(float)
        model = ToyBevt(SMALL, seed=13)
        _, _, qgrad = self._query_grad(model, views, rig, targets, mask)
        off = mask.ravel() == 0.0
        assert np.all(qgrad[off] == 0.0)
        assert np.any(qgrad[~off] != 0.0)

    def test_targets_at_masked_cells_change_nothing(self):
        rig, views, target = small_sample(seed=14)
        mask = np.ones(SMALL.bev_grid)
        mask[:, :3] = 0.0
        flipped = np.where(mask == 0.0, 1.0 - target, target)
        model = ToyBevt(SMALL, seed=15)
        loss_a, grads_a, _ = self._query_grad(model, [views], rig,
                                              target[None], mask)
        loss_b, grads_b, _ = self._query_grad(model, [views], rig,
                                              flipped[None], mask)
        assert loss_a == loss_b
        np.testing.assert_array_equal(grads_a, grads_b)

    def test_all_zero_mask_rejected(self):
        rig, views, target = small_sample(seed=16)
        model = ToyBevt(SMALL, seed=17)
        mask = np.zeros(SMALL.bev_grid)
        with pytest.raises(ad.EmptySupportError):
            ad.bce_with_logits(model.forward(views, rig), target, mask)

    def test_full_gradient_check(self):
        # analytic gradient of the masked loss w.r.t. every parameter vs
        # central finite differences
        rig, views, target = small_sample(seed=3)
        mask = np.ones(SMALL.bev_grid)
        mask[0, 0] = 0.0
        model = ToyBevt(SMALL, seed=4)
        store = model.params
        train_step(model, [views], rig, target[None], mask)
        analytic = store.grads.copy()

        step = 1e-5
        rng = np.random.default_rng(5)
        probe = rng.choice(store.n, size=200, replace=False)
        worst = 0.0
        for i in probe:
            saved = store.values[i]
            store.values[i] = saved + step
            up = loss_of(model, [views], rig, target[None], mask)
            store.values[i] = saved - step
            dn = loss_of(model, [views], rig, target[None], mask)
            store.values[i] = saved
            numeric = (up - dn) / (2 * step)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
        assert worst <= 1e-4, f"full-model gradient rel err {worst:.3g}"

    def test_fedcap_local_step_only_changes_pos_embed(self):
        from camfed.optim import sgd_step
        rig, views, target = small_sample(seed=6)
        mask = np.ones(SMALL.bev_grid)
        model = ToyBevt(SMALL, seed=7)
        store = model.params
        pub, priv = split_params(store, PartitionPolicy.from_scheme("fedcap"))
        before = store.values.copy()
        train_step(model, [views], rig, target[None], mask)
        lr = np.zeros(store.n)
        lr[priv] = 0.1
        sgd_step(store, lr=lr)   # frozen public slice
        changed = np.nonzero(store.values != before)[0]
        assert changed.size > 0
        assert np.all(np.isin(changed, store.indices(["pos_embed"])))


class TestBackward:
    @pytest.mark.parametrize("segment", SEGMENT_NAMES)
    def test_segment_gradient_matches_finite_differences(self, segment):
        # a batch of three, so the broadcast positional and query rows
        # sum their gradient over the batch
        rig = small_rig(3)
        rng = np.random.default_rng(SEGMENT_NAMES.index(segment))
        views = [rng.random((3, SMALL.n_azimuth_bins, SMALL.n_elevation_bins,
                             SMALL.n_view_channels)) for _ in range(3)]
        targets = (rng.random((3, *SMALL.bev_grid)) < 0.3).astype(float)
        mask = (rng.random(SMALL.bev_grid) < 0.8).astype(float)
        model = ToyBevt(SMALL, seed=30)
        store = model.params
        train_step(model, views, rig, targets, mask)
        analytic = store.grads.copy()
        sl = store.slice_of(segment)
        probe = rng.choice(np.arange(sl.start, sl.stop),
                           size=min(40, sl.stop - sl.start), replace=False)
        step, worst = 1e-5, 0.0
        for i in probe:
            saved = store.values[i]
            store.values[i] = saved + step
            up = loss_of(model, views, rig, targets, mask)
            store.values[i] = saved - step
            dn = loss_of(model, views, rig, targets, mask)
            store.values[i] = saved
            numeric = (up - dn) / (2 * step)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
        assert np.any(analytic[sl] != 0.0)
        assert worst <= 1e-4, f"{segment} gradient rel err {worst:.3g}"

    def test_overwrites_grads_and_writes_no_negative_zero(self):
        rig, views, target = small_sample(seed=31)
        mask = np.ones(SMALL.bev_grid)
        mask[:2] = 0.0
        model = ToyBevt(SMALL, seed=32)
        train_step(model, [views], rig, target[None], mask)
        clean = model.params.grads.copy()
        model.params.grads[:] = -0.0
        model.params.grads[::3] = np.nan
        train_step(model, [views], rig, target[None], mask)
        np.testing.assert_array_equal(model.params.grads.view(np.int64),
                                      clean.view(np.int64))
        zeros = clean == 0.0
        assert zeros.any() and not np.signbit(clean[zeros]).any()

    def test_train_logits_equal_eval_logits(self):
        rig = small_rig(2)
        views = [small_sample(seed=s)[1] for s in range(4)]
        model = ToyBevt(SMALL, seed=33)
        logits, acts = model.forward_batch(views, rig)
        assert acts.batch == 4
        assert acts.tok.shape[0] == 4 * acts.pos_in.shape[0]
        for v, row in zip(views, logits):
            np.testing.assert_array_equal(model.forward(v, rig), row)

    def test_plan_is_built_once_per_config_and_read_only(self):
        a, b = ToyBevt(SMALL, seed=0), ToyBevt(SMALL, seed=1)
        assert a._offsets is b._offsets
        assert a._cell_features is b._cell_features
        assert not a._cell_features.flags.writeable
        other = ToyBevt(ModelConfig(feat_dim=8, bev_grid=(8, 8),
                                    n_azimuth_bins=12, n_elevation_bins=2),
                        seed=0)
        assert other._offsets is not a._offsets
        with pytest.raises(ValueError, match="layout"):
            ToyBevt(SMALL, init_params(other.config, seed=0))

    def test_rig_geometry_is_shared_by_key_and_read_only(self):
        rays, active = _rig_geometry(small_rig(2), SMALL.n_azimuth_bins)
        again = _rig_geometry(small_rig(2), SMALL.n_azimuth_bins)
        assert again[0] is rays and again[1] is active
        assert not rays.flags.writeable and not active.flags.writeable
        assert rays.shape == (int(active.sum()), 3)
        full, _ = _rig_geometry(small_rig(2), 24)
        assert full is not rays


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = init_params(SMALL, seed=11)
        extras = {"private:0": np.arange(4.0), "private:1": np.ones(3)}
        meta = {"round": 7, "note": "test"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, SMALL, extra_arrays=extras, meta=meta)
        store2, cfg2, extras2, meta2 = load_checkpoint(path)
        assert cfg2 == SMALL
        assert meta2 == meta
        np.testing.assert_array_equal(store2.values, store.values)
        assert store2.segment_table() == store.segment_table()
        np.testing.assert_array_equal(extras2["private:0"], np.arange(4.0))
        np.testing.assert_array_equal(extras2["private:1"], np.ones(3))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        blob = b'{"format": "other"}'
        import struct
        with open(path, "wb") as fh:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:-400], lambda blob: blob[:-1],
        lambda blob: blob + b"\0", lambda blob: blob[:5]],
        ids=["cut-400", "cut-1", "extra-byte", "no-header"])
    def test_wrong_length_rejected(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(SMALL, seed=11), SMALL,
                        extra_arrays={"private:0": np.arange(100.0)})
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_checkpoint(path)
