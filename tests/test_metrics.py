import numpy as np
import pytest

from camfed import federation
from camfed.autodiff import EmptySupportError
from camfed.experiments import ClientSpec, ExperimentConfig, build_engine
from camfed.federation import ClientState
from camfed.masking import amcm_mask
from camfed.metrics import (EVAL_CHUNK, convergence_diagnostic,
                            cross_evaluate, iou, mean_ious, rounds_to_target)
from camfed.model import ModelConfig, ToyBevt
from camfed.params import ParamStore
from camfed.world import ClientDataset, build_client_dataset, rig_from_preset

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


def make_client(rig, points, seed=0, mask=None):
    """A client whose every point is a test point."""
    return ClientState(client_id=seed, rig=rig,
                       dataset=ClientDataset(points=list(points), n_train=0),
                       seed=seed,
                       mask=amcm_mask(rig, (8, 8), 16.0) if mask is None
                       else mask)


def reference_iou(model, client):
    """Mean IoU over one taped forward per test point; nan without points."""
    scores = [iou(model.forward(p.views, client.rig),
                  p.bev_gt, client.mask) for p in client.dataset.test]
    return float(np.mean(scores)) if scores else float("nan")


class TestMeanIou:
    CFG = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2, encoder_hidden=8,
                      decoder_hidden=8, n_azimuth_bins=12, n_elevation_bins=2)

    @classmethod
    def mixed_model(cls, rig, points):
        model = ToyBevt(cls.CFG, seed=4)
        # centre the decoder bias so predictions mix positives and negatives
        sl, _ = model._offsets["decoder.b2"]
        model.params.values[sl] -= np.median(
            model.forward(points[0].views, rig))
        return model

    @staticmethod
    def rig(name, cameras=None):
        return rig_from_preset(name, camera_ids=cameras, n_azimuth_bins=12,
                               n_elevation_bins=2)

    @classmethod
    def mixed_clients(cls):
        """bus, truck, cars on cameras [1] (twice), [1,2,3] and all four,
        and a client without test points sharing the last car's rig."""
        specs = [("bus", None, 5, 11), ("car", [1], 6, 12),
                 ("truck", None, 4, 13), ("car", [1], 7, 14),
                 ("car", [1, 2, 3], 9, 15), ("car", None, 3, 16),
                 ("car", None, 0, 17)]
        clients = []
        for name, cameras, n, seed in specs:
            rig = cls.rig(name, cameras)
            points = (build_client_dataset(rig, n, seed=seed, grid=(8, 8)).points
                      if n else [])
            clients.append(make_client(rig, points, seed=seed))
        return clients

    @pytest.mark.parametrize("cameras", [[1], [1, 2, 3, 4]])
    def test_chunked_equals_one_forward_per_point(self, cameras):
        # 17 points cross two chunk boundaries
        rig = self.rig("car", cameras)
        client = make_client(
            rig, build_client_dataset(rig, 17, seed=3, grid=(8, 8)).points)
        model = self.mixed_model(rig, client.dataset.test)
        single = [iou(model.forward(p.views, rig), p.bev_gt,
                      client.mask) for p in client.dataset.test]
        assert len(set(single)) > 1
        assert mean_ious(model, [client]) == [float(np.mean(single))]

    def test_mixed_clients_equal_per_client_reference(self):
        clients = self.mixed_clients()
        model = self.mixed_model(clients[1].rig, clients[1].dataset.test)
        got = mean_ious(model, clients)
        ref = [reference_iou(ToyBevt(self.CFG, ParamStore(
            [(s.name, s.length) for s in model.params.segments],
            values=model.params.values.copy())), c) for c in clients]
        assert len(set(ref[:-1])) > 2
        np.testing.assert_array_equal(got, ref)
        assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()

    def test_forward_batch_sees_at_most_eight_points(self, monkeypatch):
        sizes = []
        forward_batch = ToyBevt.forward_batch

        def recording(model, views_list, rig):
            sizes.append(len(views_list))
            return forward_batch(model, views_list, rig)

        monkeypatch.setattr(ToyBevt, "forward_batch", recording)
        clients = self.mixed_clients()
        mean_ious(ToyBevt(self.CFG, seed=4), clients)
        # groups in first-seen order: bus 5, front-camera cars 6 + 7 (a
        # chunk of 8 spans both), truck 4, three-camera car 9, the
        # four-camera car 3 and the client without points
        assert EVAL_CHUNK == 8
        assert sizes == [5, 8, 5, 4, 8, 1, 3]

    def test_keeps_nothing_between_calls(self):
        rig = self.rig("car")
        client = make_client(
            rig, build_client_dataset(rig, 20, seed=3, grid=(8, 8)).points)
        model = ToyBevt(self.CFG, seed=4)
        state = dict(vars(model))
        grads = model.params.grads.copy()
        first = mean_ious(model, [client])
        for _ in range(2):
            assert mean_ious(model, [client]) == first
            assert vars(model) == state
        # evaluation writes no gradient
        np.testing.assert_array_equal(model.params.grads, grads)

    def test_no_points_is_nan(self):
        client = make_client(self.rig("car"), [], mask=np.ones((8, 8)))
        model = ToyBevt(self.CFG, seed=4)
        assert np.isnan(mean_ious(model, [client])).all()


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
        eng = build_engine(ExperimentConfig(
            clients=[ClientSpec("car", 6, seed=s) for s in seeds],
            scheme=scheme, rounds=rounds, seed=2, warmup_rounds=0,
            lr_u=1e-2, lr_v=1e-2, model=cfg))
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

    def test_diag_row_max_counts_no_tie(self):
        # a row on which every model scores the same, and a diagonal that
        # only ties the row maximum, are no wins
        from camfed.metrics import CrossEvalMatrix
        m = CrossEvalMatrix(client_ids=[0, 1, 2], values=np.array(
            [[0.143, 0.143, 0.143], [0.125, 0.125, 0.0],
             [0.031, 0.031, 0.068]]))
        assert m.diagonal_is_row_max() == 1

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
        m = cross_evaluate(eng.personalized_models(), eng.clients)
        assert m.client_ids == [0, 1]
        assert m.values[1, 1] == eng.evaluate_clients()[1]

    @staticmethod
    def per_pair_matrix(engine):
        """A fresh model and one forward per point for every (model,
        testset) pair, nothing shared."""
        n = len(engine.clients)
        out = np.zeros((n, n))
        for j, owner in enumerate(engine.clients):
            for i, data in enumerate(engine.clients):
                model = ToyBevt(engine.config.model,
                                engine.personal_store(owner))
                out[i, j] = reference_iou(model, data)
        return out

    @pytest.mark.parametrize("scheme, distinct", [("fedcap", 3), ("fedavg", 1)])
    def test_one_column_per_distinct_private_slice(self, scheme, distinct,
                                                   monkeypatch):
        eng = self.tiny_engine([5, 6, 7], scheme=scheme)
        slices = {c.private_values.tobytes() for c in eng.clients}
        assert len(slices) == distinct
        built = []

        class CountingToyBevt(ToyBevt):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(federation, "ToyBevt", CountingToyBevt)
        m = self.matrix_of(eng)
        assert len(built) == distinct
        np.testing.assert_array_equal(m.values, self.per_pair_matrix(eng))
        if distinct == 1:
            assert (m.values == m.values[:, :1]).all()
