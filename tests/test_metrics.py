import numpy as np
import pytest

from camfed import metrics
from camfed.autodiff import EmptySupportError
from camfed.federation import ClientState, EngineOptions, FederationEngine
from camfed.masking import amcm_mask
from camfed.metrics import (convergence_diagnostic, cross_evaluate, iou,
                            mean_iou, rounds_to_target)
from camfed.model import ModelConfig, PartitionPolicy, ToyBevt
from camfed.params import ParamStore
from camfed.world import build_client_dataset, rig_from_preset

BIG = 20.0   # logit that saturates sigmoid


def logits_from(pred):
    return np.where(np.asarray(pred) == 1.0, BIG, -BIG)


class TestIou:
    def test_perfect_match(self):
        gt = np.zeros((4, 4))
        gt[1, 1] = gt[2, 2] = 1.0
        assert iou(logits_from(gt), gt, np.ones((4, 4))) == 1.0

    def test_disjoint_zero(self):
        gt = np.zeros((4, 4)); gt[0, 0] = 1.0
        pred = np.zeros((4, 4)); pred[3, 3] = 1.0
        assert iou(logits_from(pred), gt, np.ones((4, 4))) == 0.0

    def test_half_overlap_counting_oracle(self):
        gt = np.zeros((4, 4))
        gt[0, 0] = gt[0, 1] = gt[0, 2] = gt[0, 3] = 1.0
        pred = np.zeros((4, 4))
        pred[0, 0] = pred[0, 1] = 1.0   # 2 of 4, no false positives
        assert iou(logits_from(pred), gt, np.ones((4, 4))) == 0.5

    def test_empty_union_convention(self):
        z = np.full((3, 3), -BIG)
        assert iou(z, np.zeros((3, 3)), np.ones((3, 3))) == 1.0

    def test_all_masked_raises(self):
        with pytest.raises(EmptySupportError):
            iou(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_mask_excludes_cells(self):
        gt = np.zeros((2, 2)); gt[0, 0] = 1.0
        pred = np.zeros((2, 2)); pred[0, 0] = 1.0; pred[1, 1] = 1.0
        mask = np.ones((2, 2)); mask[1, 1] = 0.0   # hide the false positive
        assert iou(logits_from(pred), gt, mask) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = (rng.random((5, 5)) < 0.4).astype(float)
            b = (rng.random((5, 5)) < 0.4).astype(float)
            m = np.ones((5, 5))
            ab = iou(logits_from(a), b, m)
            ba = iou(logits_from(b), a, m)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            iou(np.zeros((2, 2)), np.zeros((3, 3)), np.ones((3, 3)))


class TestMeanIou:
    CFG = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2, encoder_hidden=8,
                      decoder_hidden=8, n_azimuth_bins=12, n_elevation_bins=2)

    @pytest.mark.parametrize("cameras", [[1], [1, 2, 3, 4]])
    def test_chunked_equals_one_forward_per_point(self, cameras):
        # 17 points cross the 16-point chunk boundary
        rig = rig_from_preset("car", camera_ids=cameras, n_azimuth_bins=12,
                              n_elevation_bins=2)
        points = build_client_dataset(rig, 17, seed=3, grid=(8, 8)).points
        mask = amcm_mask(rig, (8, 8), 16.0)
        model = ToyBevt(self.CFG, seed=4)
        # centre the decoder bias so predictions mix positives and negatives
        sl, _ = model._offsets["decoder.b2"]
        model.params.values[sl] -= np.median(
            model.forward(points[0].views, rig, mask).data)
        single = [iou(model.forward(p.views, rig, mask).data, p.bev_gt, mask)
                  for p in points]
        assert len(set(single)) > 1
        assert mean_iou(model, rig, mask, points) == float(np.mean(single))

    def test_builds_no_tape(self):
        rig = rig_from_preset("car", n_azimuth_bins=12, n_elevation_bins=2)
        points = build_client_dataset(rig, 20, seed=3, grid=(8, 8)).points
        mask = amcm_mask(rig, (8, 8), 16.0)
        model = ToyBevt(self.CFG, seed=4)
        for _ in range(3):
            mean_iou(model, rig, mask, points)
            assert len(model._leaves) == 0
        # training forwards still record their leaves afterwards
        model.forward(points[0].views, rig, mask)
        assert len(model._leaves) > 0

    def test_no_points_is_nan(self):
        rig = rig_from_preset("car", n_azimuth_bins=12, n_elevation_bins=2)
        model = ToyBevt(self.CFG, seed=4)
        assert np.isnan(mean_iou(model, rig, np.ones((8, 8)), []))


class TestConvergenceDiagnostic:
    def test_inverse_sqrt_slope(self):
        t = np.arange(1, 101)
        series = 3.7 / np.sqrt(t)
        assert convergence_diagnostic(series) == pytest.approx(-0.5, abs=1e-6)

    def test_constant_slope_zero(self):
        assert convergence_diagnostic([2.0] * 50) == pytest.approx(0.0, abs=1e-12)

    def test_power_law_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = rng.uniform(-1.5, -0.2)
            series = 2.0 * np.arange(1, 61) ** p
            assert convergence_diagnostic(series) == pytest.approx(p, abs=1e-6)

    def test_warmup_window(self):
        # flat during warmup, then decaying: fitting only past warmup must
        # recover the decay
        t = np.arange(1, 81)
        series = np.full(t.shape, 5.0)
        tail = t > 20
        series[tail] = 5.0 * (t[tail] - 20.0) ** -0.5
        # windowed fit uses global round index, so exact recovery is not
        # expected; the slope must still be clearly negative
        assert convergence_diagnostic(series, warmup=20) < -0.2

    def test_too_short(self):
        with pytest.raises(ValueError):
            convergence_diagnostic([1.0] * 19)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            convergence_diagnostic([1.0] * 25 + [0.0])


class TestRoundsToTarget:
    def test_monotone_series(self):
        series = np.linspace(0.0, 0.4, 10)
        assert rounds_to_target(series) <= 10

    def test_constant_series_first_round(self):
        assert rounds_to_target([0.3, 0.3, 0.3]) == 1

    def test_scan_oracle_case(self):
        # target = 0.95 * 0.30 = 0.285; first value >= target is round 4
        assert rounds_to_target([0.1, 0.2, 0.28, 0.30]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rounds_to_target([])


class TestCrossEvaluate:
    @staticmethod
    def tiny_engine(seeds, rounds=2, scheme="fedcap"):
        cfg = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2,
                          encoder_hidden=8, decoder_hidden=8,
                          n_azimuth_bins=12, n_elevation_bins=2)
        clients = []
        for i, seed in enumerate(seeds):
            rig = rig_from_preset("car", n_azimuth_bins=12, n_elevation_bins=2)
            ds = build_client_dataset(rig, 6, seed=seed, grid=(8, 8))
            clients.append(ClientState(client_id=i, rig=rig, dataset=ds,
                                       n_points=6, seed=seed))
        eng = FederationEngine(cfg, PartitionPolicy.from_scheme(scheme),
                               clients, total_rounds=rounds, master_seed=2,
                               options=EngineOptions(lr_u=1e-2, lr_v=1e-2))
        eng.run()
        return eng

    @staticmethod
    def matrix_of(engine):
        from camfed.experiments import cross_eval_matrix
        return cross_eval_matrix(engine)

    def test_single_client_1x1(self):
        m = self.matrix_of(self.tiny_engine([5]))
        assert m.values.shape == (1, 1)

    def test_identical_clients_identical_rows(self):
        # same rig, same data seed: the diagonal entries are exactly equal
        m = self.matrix_of(self.tiny_engine([5, 5]))
        assert m.values[0, 0] == m.values[1, 1]
        assert m.values[0, 1] == m.values[1, 0]

    def test_diag_row_max_counter(self):
        from camfed.metrics import CrossEvalMatrix
        m = CrossEvalMatrix(client_ids=[0, 1, 2], values=np.array(
            [[0.5, 0.2, 0.1], [0.3, 0.2, 0.4], [0.2, 0.2, 0.9]]))
        assert m.diagonal_is_row_max() == 2

    def test_csv_written(self, tmp_path):
        m = self.matrix_of(self.tiny_engine([5, 6]))
        path = tmp_path / "xe.csv"
        m.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "testset,model_0,model_1"
        assert len(lines) == 3
        cells = [c for line in lines[1:] for c in line.split(",")[1:]]
        assert not any(c.startswith("np.") for c in cells)
        np.testing.assert_array_equal([float(c) for c in cells],
                                      m.values.ravel())

    def test_takes_engine_clients(self):
        eng = self.tiny_engine([5, 6])
        m = cross_evaluate(eng.config,
                           [(s.name, s.length) for s in eng.store.segments],
                           eng.store.values, eng.private_idx, eng.clients)
        assert m.client_ids == [0, 1]
        assert m.values[1, 1] == eng.evaluate_client(eng.clients[1])

    @staticmethod
    def per_pair_matrix(engine):
        """One mean_iou per (model, testset) pair, nothing shared."""
        segments = [(s.name, s.length) for s in engine.store.segments]
        n = len(engine.clients)
        out = np.zeros((n, n))
        for j, owner in enumerate(engine.clients):
            for i, data in enumerate(engine.clients):
                model = ToyBevt(engine.config, ParamStore(
                    segments, values=engine.personalized_values(owner)))
                out[i, j] = mean_iou(model, data.rig, data.mask,
                                     data.dataset.test)
        return out

    @pytest.mark.parametrize("scheme, distinct", [("fedcap", 3), ("fedavg", 1)])
    def test_one_column_per_distinct_private_slice(self, scheme, distinct,
                                                   monkeypatch):
        eng = self.tiny_engine([5, 6, 7], scheme=scheme)
        slices = {c.private_values.tobytes() for c in eng.clients}
        assert len(slices) == distinct
        calls = []

        def counting_mean_iou(*args):
            calls.append(args)
            return mean_iou(*args)

        monkeypatch.setattr(metrics, "mean_iou", counting_mean_iou)
        m = self.matrix_of(eng)
        assert len(calls) == 3 * distinct
        np.testing.assert_array_equal(m.values, self.per_pair_matrix(eng))
        if distinct == 1:
            assert (m.values == m.values[:, :1]).all()

