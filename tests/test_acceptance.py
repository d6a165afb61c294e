"""Acceptance criteria, one test per criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The directional criteria (5, 6, 9, 11) share 5-seed runs of the
use-case presets through module-scoped fixtures; everything else runs in
seconds.
"""

import math
import time

import numpy as np
import pytest

from camfed import autodiff as ad
from camfed import federation
from camfed.experiments import (ClientSpec, ExperimentConfig, build_engine,
                                cross_eval_matrix, preset, run_experiment)
from camfed.federation import (aggregate, compress_topk, dense_delta,
                               lr_schedule)
from camfed.masking import amcm_mask
from camfed.metrics import convergence_diagnostic, iou
from camfed.model import ModelConfig, ToyBevt, init_params
from camfed.optim import AdamW
from camfed.params import ParamStore
from camfed.seeding import derive_rng, derive_seed
from camfed.world import CameraPose, CameraRig, build_client_dataset, rig_from_preset

SEEDS = [0, 1, 2, 3, 4]

SMALL = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2, encoder_hidden=8,
                    decoder_hidden=8, n_azimuth_bins=12, n_elevation_bins=2)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared 5-seed uc1 runs (criteria 5, 6, 11)
# ---------------------------------------------------------------------------

def weighted_series(engine, field):
    out = []
    for t in range(1, engine.round + 1):
        recs = [r for r in engine.records
                if r.round == t and not np.isnan(getattr(r, field))]
        w = np.array([len(engine.clients[r.client_id].dataset.points)
                      for r in recs], dtype=float)
        out.append(float(np.average([getattr(r, field) for r in recs],
                                    weights=w)))
    return out


@pytest.fixture(scope="module")
def uc1_runs():
    """Run the uc1 preset for both schemes over 5 seeds; keep summaries."""
    results = {"fedcap": [], "fedavg": []}
    timing = {"fedcap": 0.0, "fedavg": 0.0, "cross_eval": 0.0}
    for seed in SEEDS:
        for scheme in ("fedcap", "fedavg"):
            cfg = preset("uc1")
            cfg.scheme = scheme
            cfg.seed = seed
            t0 = time.time()
            engine = build_engine(cfg)
            engine.run()
            timing[scheme] += time.time() - t0
            summary = {
                "finals": [
                    [r for r in engine.records if r.client_id == cid][-1].val_iou
                    for cid in range(3)],
                "loss": weighted_series(engine, "train_loss"),
                "grad_norm": weighted_series(engine, "grad_norm"),
                "warmup": cfg.warmup_rounds,
            }
            if scheme == "fedcap":
                t1 = time.time()
                summary["diag_row_max"] = \
                    cross_eval_matrix(engine).diagonal_is_row_max()
                timing["cross_eval"] += time.time() - t1
            results[scheme].append(summary)
    results["timing"] = timing
    return results


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_gradient_integrity(self):
        t0 = time.time()
        # each half draws from its own generator, so the model instances do
        # not depend on how many kernel cases run before them
        worst_ops = self._check_ops(np.random.default_rng(0))
        worst_model = self._check_full_model(np.random.default_rng(0))
        elapsed = time.time() - t0
        ok = worst_ops <= 1e-4 and worst_model <= 1e-4 and elapsed < 30.0
        report(1, ok, f"ops rel err {worst_ops:.2e}, full model "
                      f"{worst_model:.2e}, {elapsed:.1f}s (< 30s)")

    @staticmethod
    def _fd(fn, arrays, which, step=1e-5):
        grad = np.zeros_like(arrays[which])
        flat = grad.ravel()
        for i in range(flat.size):
            for sign in (1.0, -1.0):
                probe = [a.copy() for a in arrays]
                probe[which].ravel()[i] += sign * step
                flat[i] += sign * fn(probe) / (2.0 * step)
        return grad

    @staticmethod
    def _check_ops(rng):
        def affine_bwd(arrays, g):
            x, w, b = arrays
            gw, gb = np.empty_like(w), np.empty_like(b)
            return [ad.affine_backward(g, x, w, gw, gb), gw, gb]

        def matmul_bwd(arrays, g):
            gb = np.empty_like(arrays[1])
            return [ad.matmul_backward(g, *arrays, gb), gb]

        def attention_bwd(arrays, g):
            _, kept = ad.batched_cross_attention(*arrays, 2, 2)
            return list(ad.batched_cross_attention_backward(g, kept))

        # (forward, backward, input shapes, input shift) per kernel pair
        cases = [
            (lambda a: ad.matmul(a[0], a[1]), matmul_bwd,
             [(3, 4), (4, 2)], 0.0),
            (lambda a: ad.affine(a[0], a[1], a[2]), affine_bwd,
             [(3, 4), (4, 2), (2,)], 0.0),
            (lambda a: ad.relu(a[0]),
             lambda a, g: [ad.relu_backward(g, ad.relu(a[0]))],
             [(4, 4)], 0.7),
            (lambda a: ad.layer_norm(a[0])[0],
             lambda a, g: [ad.layer_norm_backward(g, *ad.layer_norm(a[0]))],
             [(3, 6)], 0.0),
            (lambda a: ad.batched_cross_attention(a[0], a[1], a[2], 2, 2)[0],
             attention_bwd, [(3, 4), (10, 4), (10, 4)], 0.0),
        ]
        worst = 0.0
        for forward, backward, shapes, shift in cases:
            for _ in range(10):
                arrays = [rng.standard_normal(s) + shift for s in shapes]
                weights = rng.standard_normal(forward(arrays).shape)

                def scalar(arr_list):
                    return float((forward(arr_list) * weights).sum())

                for k, analytic in enumerate(backward(arrays, weights)):
                    numeric = TestCriterion1._fd(scalar, arrays, k)
                    denom = np.maximum(
                        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
                    worst = max(worst, float(
                        np.max(np.abs(analytic - numeric) / denom)))
        # bce separately (needs targets/mask): one sample, then a batch of
        # two sharing one (4, 4) mask with a masked-out cell
        batch_mask = np.ones((4, 4))
        batch_mask[1, 2] = 0.0
        for shape, mask in (((4, 4), np.ones((4, 4))),
                            ((2, 4, 4), batch_mask)):
            for _ in range(10):
                z = rng.standard_normal(shape)
                y = (rng.random(shape) < 0.4).astype(float)
                grad = ad.bce_with_logits_backward(z, y, mask)
                numeric = TestCriterion1._fd(
                    lambda arrs: ad.bce_with_logits(arrs[0], y, mask), [z], 0)
                denom = np.maximum(
                    np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)
                worst = max(worst,
                            float(np.max(np.abs(grad - numeric) / denom)))
        return worst

    def _check_full_model(self, rng):
        # 2-camera, 8x8-grid instances; probe a random coordinate subset
        rig = rig_from_preset("car", camera_ids=[1, 2], n_azimuth_bins=12,
                              n_elevation_bins=2)
        worst = 0.0
        for inst in range(10):
            views = rng.random((2, 12, 2, 4))
            target = (rng.random((8, 8)) < 0.3).astype(float)
            mask = np.ones((8, 8))
            mask[0, int(rng.integers(0, 8))] = 0.0
            model = ToyBevt(SMALL, init_params(SMALL, seed=100 + inst))
            store = model.params
            logits, acts = model.forward_batch([views], rig)
            model.backward(acts, ad.bce_with_logits_backward(
                logits, target[None], mask))
            analytic = store.grads.copy()
            step = 1e-5
            for i in rng.choice(store.n, size=120, replace=False):
                saved = store.values[i]
                store.values[i] = saved + step
                up = ad.bce_with_logits(model.forward(views, rig), target,
                                        mask)
                store.values[i] = saved - step
                dn = ad.bce_with_logits(model.forward(views, rig), target,
                                        mask)
                store.values[i] = saved
                numeric = (up - dn) / (2 * step)
                denom = max(abs(analytic[i]), abs(numeric), 1e-6)
                worst = max(worst, abs(analytic[i] - numeric) / denom)
        return worst


# ---------------------------------------------------------------------------
# 2. aggregation oracle
# ---------------------------------------------------------------------------

class TestCriterion2:
    def test_aggregation_oracle(self):
        t0 = time.time()
        rng = np.random.default_rng(1)
        worst = 0.0
        weight_sets = [[1388.0, 1448.0, 6372.0]] + [
            list(rng.uniform(1, 1000, int(rng.integers(1, 8))))
            for _ in range(99)]
        for weights in weight_sets:
            n = int(rng.integers(5, 60))
            base = rng.standard_normal(n)
            pub = np.arange(n, dtype=np.int64)
            entries = [(k, dense_delta(pub, rng.standard_normal(n)), w)
                       for k, w in enumerate(weights)]
            total = sum(weights)
            expected = base.copy()
            for _, d, w in entries:
                expected = expected + (w / total) * d.values
            got = aggregate(entries, base, pub)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        elapsed = time.time() - t0
        ok = worst <= 1e-12 and elapsed < 5.0
        report(2, ok, f"100 instances incl. fleet weight ratios, max abs err "
                      f"{worst:.2e} (<= 1e-12), {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 3. plain-averaging equivalence of the partitioned engine
# ---------------------------------------------------------------------------

class TestCriterion3:
    def test_fedavg_equivalence(self):
        t0 = time.time()
        master_seed = 17
        rounds, lr, warmup = 10, 5e-3, 3
        specs = [("car", 60), ("bus", 61), ("truck", 62)]
        engine = build_engine(ExperimentConfig(
            clients=[ClientSpec(name, 10, seed=seed) for name, seed in specs],
            scheme="fedavg", rounds=rounds, seed=master_seed,
            warmup_rounds=warmup, lr_u=lr, lr_v=lr, model=SMALL))
        engine.run()

        # independent monolithic reference: full-vector local training and
        # an explicit weighted average of client parameter vectors
        ref = self._monolithic(master_seed, rounds, lr, warmup, specs)
        diff = float(np.max(np.abs(engine.store.values - ref)))
        elapsed = time.time() - t0
        ok = diff <= 1e-10 and elapsed < 60.0
        report(3, ok, f"10 rounds, 3 clients: max |engine - reference| = "
                      f"{diff:.2e} (<= 1e-10), {elapsed:.1f}s (< 60s)")

    @staticmethod
    def _monolithic(master_seed, rounds, lr, warmup, specs):
        cfg = SMALL
        datasets, rigs, masks, seeds, weights = [], [], [], [], []
        for name, seed in specs:
            rig = rig_from_preset(name, n_azimuth_bins=12, n_elevation_bins=2)
            ds = build_client_dataset(rig, 10, seed=seed, grid=(8, 8))
            rigs.append(rig)
            datasets.append(ds)
            masks.append(amcm_mask(rig, cfg.bev_grid, cfg.world_extent))
            seeds.append(seed)
            weights.append(10.0)
        store = init_params(cfg, derive_seed(master_seed, "init"))
        seg_sizes = [(s.name, s.length) for s in store.segments]
        for t in range(1, rounds + 1):
            lr_t = lr_schedule(t, lr, warmup, rounds)
            local_values = []
            for ds, rig, mask, seed in zip(datasets, rigs, masks, seeds):
                local = ParamStore(seg_sizes, values=store.values.copy())
                model = ToyBevt(cfg, local)
                opt = AdamW(local.n)
                rng = derive_rng(master_seed, "batch", t, seed)
                train = ds.train
                order = rng.permutation(len(train))
                for lo in range(0, len(order), 4):
                    batch = [train[i] for i in order[lo:lo + 4]]
                    logits, acts = model.forward_batch(
                        [p.views for p in batch], rig)
                    model.backward(acts, ad.bce_with_logits_backward(
                        logits, np.stack([p.bev_gt for p in batch]), mask))
                    opt.step(local, lr=lr_t)
                local_values.append(local.values)
            total = sum(weights)
            store.values = sum((w / total) * v
                               for w, v in zip(weights, local_values))
        return store.values


# ---------------------------------------------------------------------------
# 4. privacy invariant
# ---------------------------------------------------------------------------

class TestCriterion4:
    def test_private_indices_never_transmitted(self, monkeypatch):
        t0 = time.time()
        engine = build_engine(ExperimentConfig(
            clients=[ClientSpec(name, 8, seed=30 + i)
                     for i, name in enumerate(("car", "bus", "truck"))],
            scheme="fedcap", rounds=20, seed=23, warmup_rounds=0,
            lr_u=5e-3, lr_v=5e-3, topk_retention=0.25, model=SMALL))
        sent = []

        def recording_aggregate(entries, base_values, public_idx):
            sent.extend(d for _, d, _ in entries)
            return aggregate(entries, base_values, public_idx)

        monkeypatch.setattr(federation, "aggregate", recording_aggregate)
        init_private = engine.store.values[engine.private_idx].copy()
        engine.run()
        private = set(engine.private_idx.tolist())
        n_deltas = len(sent)
        leaked = sum(not private.isdisjoint(d.indices.tolist()) for d in sent)
        server_touched = not np.array_equal(
            engine.store.values[engine.private_idx], init_private)
        elapsed = time.time() - t0
        ok = (n_deltas > 0 and leaked == 0 and not server_touched
              and elapsed < 60.0)
        report(4, ok, f"20-round run, {n_deltas} transmitted deltas, "
                      f"{leaked} containing private indices (exact 0), "
                      f"server private slice untouched, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 5. directional personalization claim on the fleet preset
# ---------------------------------------------------------------------------

class TestCriterion5:
    def test_personalized_beats_global_on_majority(self, uc1_runs):
        cap = np.array([r["finals"] for r in uc1_runs["fedcap"]])
        avg = np.array([r["finals"] for r in uc1_runs["fedavg"]])
        med_cap = np.median(cap, axis=0)
        med_avg = np.median(avg, axis=0)
        wins = int(np.sum(med_cap >= med_avg))
        elapsed = uc1_runs["timing"]["fedcap"] + uc1_runs["timing"]["fedavg"]
        ok = wins >= 2 and elapsed < 600.0
        report(5, ok, f"median IoU per client cap={np.round(med_cap, 3)} vs "
                      f"avg={np.round(med_avg, 3)}: cap >= avg on {wins}/3 "
                      f"(need >= 2), runs took {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 6. cross-evaluation diagonal dominance
# ---------------------------------------------------------------------------

class TestCriterion6:
    def test_diagonal_dominance(self, uc1_runs):
        counts = [r["diag_row_max"] for r in uc1_runs["fedcap"]]
        med = float(np.median(counts))
        elapsed = uc1_runs["timing"]["cross_eval"]
        ok = med >= 2 and elapsed < 600.0
        report(6, ok, f"diagonal is row max on {counts} rows per seed, "
                      f"median {med} (need >= 2); cross-eval cost "
                      f"{elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 7. masking invariants
# ---------------------------------------------------------------------------

class TestCriterion7:
    def test_masking_invariants(self):
        t0 = time.time()
        # (a) shape identical across 1..4 camera rigs
        shapes = {amcm_mask(rig_from_preset("car", camera_ids=list(range(1, n + 1))),
                            (16, 16), 16.0).shape
                  for n in (1, 2, 3, 4)}
        shape_ok = shapes == {(16, 16)}

        # (b) masked cells receive exactly-zero gradient through the model
        rig = rig_from_preset("car", camera_ids=[1], n_azimuth_bins=12,
                              n_elevation_bins=2)
        mask = amcm_mask(rig, SMALL.bev_grid, SMALL.world_extent)
        assert 0 < mask.sum() < mask.size
        model = ToyBevt(SMALL, init_params(SMALL, seed=5))
        rng = np.random.default_rng(9)
        views = rng.random((1, 12, 2, 4))
        target = (rng.random((8, 8)) < 0.3).astype(float)
        logits, acts = model.forward_batch([views], rig)
        model.backward(acts, ad.bce_with_logits_backward(logits, target[None],
                                                         mask))
        qgrad = model.params.grad_view("bev_query").reshape(64, SMALL.feat_dim)
        off = mask.ravel() == 0.0
        grad_ok = bool(np.all(qgrad[off] == 0.0) and np.any(qgrad[~off] != 0.0))
        hygiene = float(np.linalg.norm(qgrad[off]))

        # (c) mask cell counts match the per-cell wedge oracle on 20 rigs
        count_ok = True
        for k in range(20):
            r = np.random.default_rng(200 + k)
            cams = tuple(CameraPose(height=float(r.uniform(1, 8)),
                                    yaw=float(r.uniform(-180, 180)),
                                    fov_azimuth=float(r.uniform(40, 180)))
                         for _ in range(int(r.integers(1, 5))))
            rig_k = CameraRig(cameras=cams, name="custom")
            got = amcm_mask(rig_k, (16, 16), 16.0)
            exp = self._wedge_oracle(rig_k, (16, 16), 16.0)
            if not np.array_equal(got, exp):
                count_ok = False
        elapsed = time.time() - t0
        ok = shape_ok and grad_ok and count_ok and elapsed < 10.0
        report(7, ok, f"shape invariance {shape_ok}, masked-grad norm "
                      f"{hygiene} (exact 0), 20-rig wedge oracle {count_ok}, "
                      f"{elapsed:.1f}s (< 10s)")

    @staticmethod
    def _wedge_oracle(rig, grid, extent):
        from camfed.world import wrap_angle
        h, w = grid
        out = np.zeros((h, w))
        for i in range(h):
            for j in range(w):
                y = -extent + (i + 0.5) * (2.0 * extent / h)
                x = -extent + (j + 0.5) * (2.0 * extent / w)
                rng = math.hypot(x, y)
                if rng == 0.0:
                    out[i, j] = 1.0
                    continue
                b = math.degrees(math.atan2(y, x))
                for cam in rig.cameras:
                    if (abs(float(wrap_angle(b - cam.yaw)))
                            <= cam.fov_azimuth / 2.0):
                        out[i, j] = 1.0
                        break
        return out


# ---------------------------------------------------------------------------
# 8. top-k exactness
# ---------------------------------------------------------------------------

class TestCriterion8:
    def test_topk_exactness(self):
        t0 = time.time()
        rng = np.random.default_rng(3)
        all_ok = True
        for _ in range(100):
            n = int(rng.integers(20, 1500))
            rho = float(rng.uniform(0.02, 0.98))
            vals = np.round(rng.standard_normal(n), 2)
            delta = dense_delta(np.arange(n, dtype=np.int64), vals)
            got = compress_topk(delta, rho)
            k = math.ceil(rho * n)
            order = sorted(range(n), key=lambda i: (-abs(vals[i]), i))
            if not np.array_equal(got.indices, np.sort(order[:k])):
                all_ok = False
            if got.bits_upload != k * 96:
                all_ok = False
        elapsed = time.time() - t0
        ok = all_ok and elapsed < 5.0
        report(8, ok, f"100 vectors vs full-sort oracle with tie rule, bits "
                      f"= k*96: {all_ok}, {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 9. straggler degradation on the vehicular-network preset analog
# ---------------------------------------------------------------------------

class TestCriterion9:
    @staticmethod
    def analog_config(ratio, seed):
        clients = ([ClientSpec(rig="bus", n_points=8, local_epochs=2)
                    for _ in range(2)]
                   + [ClientSpec(rig="truck", n_points=8, local_epochs=2)
                      for _ in range(2)]
                   + [ClientSpec(rig="car", n_points=8, local_epochs=2)
                      for _ in range(8)])
        return ExperimentConfig(
            name="uc5-analog", scheme="fedavg", rounds=40, warmup_rounds=10,
            lr_u=5e-3, lr_v=5e-3, straggler_ratio=ratio, seed=seed,
            clients=clients)

    def test_stragglers_degrade_final_iou(self):
        t0 = time.time()
        medians = {}
        for ratio in (0.0, 0.8):
            finals = []
            for seed in SEEDS:
                engine = build_engine(self.analog_config(ratio, seed))
                engine.run()
                last = [r.val_iou for r in engine.records
                        if r.round == engine.round]
                finals.append(float(np.mean(last)))
            medians[ratio] = float(np.median(finals))
        elapsed = time.time() - t0
        ok = medians[0.8] <= medians[0.0] and elapsed < 900.0
        report(9, ok, f"12-client analog, T=40, 5 seeds: median final IoU "
                      f"at ratio 0.8 = {medians[0.8]:.4f} <= "
                      f"{medians[0.0]:.4f} at 0.0, {elapsed:.0f}s (< 15min)")


# ---------------------------------------------------------------------------
# 10. byte-identical determinism of the preset run
# ---------------------------------------------------------------------------

class TestCriterion10:
    def test_byte_identical_runs(self, tmp_path):
        t0 = time.time()
        cfg = preset("uc1")
        cfg.seed = 7
        run_experiment(cfg, tmp_path / "a", workers=1)
        run_experiment(cfg, tmp_path / "b", workers=1)
        run_experiment(cfg, tmp_path / "c", workers=3)
        csv_a = (tmp_path / "a" / "rounds.csv").read_bytes()
        csv_b = (tmp_path / "b" / "rounds.csv").read_bytes()
        csv_c = (tmp_path / "c" / "rounds.csv").read_bytes()
        same = csv_a == csv_b == csv_c
        elapsed = time.time() - t0
        ok = same and elapsed < 300.0
        report(10, ok, f"rerun and 3-worker CSVs byte-identical: {same}, "
                       f"{elapsed:.0f}s (< 5min)")


# ---------------------------------------------------------------------------
# 11. convergence sanity
# ---------------------------------------------------------------------------

class TestCriterion11:
    def test_loss_halves_and_gradnorm_decays(self, uc1_runs):
        ratios, slopes = [], []
        for r in uc1_runs["fedcap"]:
            loss = r["loss"]
            first5 = float(np.median(loss[:5]))
            last5 = float(np.median(loss[-5:]))
            ratios.append(last5 / first5)
            slopes.append(convergence_diagnostic(r["grad_norm"],
                                                 warmup=r["warmup"]))
        med_ratio = float(np.median(ratios))
        med_slope = float(np.median(slopes))
        ok = med_ratio < 0.5 and med_slope < 0.0
        report(11, ok, f"median(last-5 loss)/median(first-5 loss) = "
                       f"{med_ratio:.3f} (< 0.5), median grad-norm log-log "
                       f"slope {med_slope:.3f} (< 0)")
