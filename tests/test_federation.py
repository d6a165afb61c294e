import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camfed
from camfed import federation
from camfed.experiments import (ClientSpec, ExperimentConfig, build_engine,
                                preset)
from camfed.federation import (Delta, aggregate, client_selection,
                               compress_topk, dense_delta, lr_schedule)
from camfed.metrics import iou
from camfed.model import ModelConfig, ToyBevt

SMALL = ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2, encoder_hidden=8,
                    decoder_hidden=8, n_azimuth_bins=12, n_elevation_bins=2)


def small_engine(n_clients=2, n_points=6, seeds=None, rigs=None, **settings):
    """An engine on the SMALL model, built from an ExperimentConfig.

    Clients cycle through car, bus, truck, car with data seeds 50, 51, ...
    unless `rigs` and `seeds` say otherwise; `settings` override the
    config's fields (`clients` included).
    """
    seeds = seeds or range(50, 50 + n_clients)
    rigs = rigs or ["car", "bus", "truck", "car"] * n_clients
    clients = [ClientSpec(rig, n_points, seed=s) for rig, s in zip(rigs, seeds)]
    base = dict(clients=clients, scheme="fedcap", rounds=3, seed=11,
                warmup_rounds=0, lr_u=1e-2, lr_v=1e-2, model=SMALL)
    return build_engine(ExperimentConfig(**(base | settings)))


class TestAggregate:
    def test_single_client_identity(self):
        base = np.arange(5.0)
        pub = np.arange(5, dtype=np.int64)
        d = dense_delta(pub, np.array([1.0, -1.0, 0.5, 0.0, 2.0]))
        out = aggregate([(0, d, 3.0)], base, pub)
        np.testing.assert_array_equal(out, base + d.values)

    def test_weighted_mean_arithmetic(self):
        base = np.zeros(2)
        pub = np.arange(2, dtype=np.int64)
        d1 = dense_delta(pub, np.array([4.0, 0.0]))
        d2 = dense_delta(pub, np.array([0.0, 4.0]))
        out = aggregate([(0, d1, 1.0), (1, d2, 3.0)], base, pub)
        np.testing.assert_allclose(out, [1.0, 3.0], atol=0)

    def test_uc1_weights_match_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        weights = [1388.0, 1448.0, 6372.0]
        norm = np.array(weights) / sum(weights)
        np.testing.assert_allclose(norm, [0.15075, 0.15727, 0.69198],
                                   atol=5e-5)
        base = rng.standard_normal(40)
        pub = np.arange(40, dtype=np.int64)
        entries = [(k, dense_delta(pub, rng.standard_normal(40)), w)
                   for k, w in enumerate(weights)]
        out = aggregate(entries, base, pub)
        # brute-force weighted sum oracle
        expected = base.copy()
        for (k, d, w) in entries:
            expected = expected + (w / sum(weights)) * d.values
        np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            k = int(rng.integers(1, 6))
            base = rng.standard_normal(n)
            pub = np.arange(n, dtype=np.int64)
            entries = [(i, dense_delta(pub, rng.standard_normal(n)),
                        float(rng.uniform(0.5, 100))) for i in range(k)]
            wsum = sum(w for _, _, w in entries)
            expected = base + sum((w / wsum) * d.values for _, d, w in entries)
            out = aggregate(entries, base, pub)
            np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(10)
        pub = np.arange(10, dtype=np.int64)
        entries = [(i, dense_delta(pub, rng.standard_normal(10)), float(i + 1))
                   for i in range(4)]
        out1 = aggregate(entries, base, pub)
        out2 = aggregate(entries[::-1], base, pub)
        np.testing.assert_array_equal(out1, out2)

    def test_zero_deltas_conserve_exactly(self):
        base = np.array([1.1, -2.2, 3.3])
        pub = np.arange(3, dtype=np.int64)
        entries = [(0, dense_delta(pub, np.zeros(3)), 1.0),
                   (1, dense_delta(pub, np.zeros(3)), 2.0)]
        out = aggregate(entries, base, pub)
        assert np.array_equal(out, base)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], np.zeros(3), np.arange(3, dtype=np.int64))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n=st.integers(1, 20),
           n_clients=st.integers(1, 5))
    def test_any_order_gives_the_same_bits_and_private_stays(self, data, n,
                                                             n_clients):
        # deltas may address any index, private ones included; the result
        # ignores arrival order and keeps every private value as it was
        finite = st.floats(-1e3, 1e3)
        base = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        public = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n)))
        ids = data.draw(st.lists(st.integers(0, 99), min_size=n_clients,
                                 max_size=n_clients, unique=True))
        entries = []
        for cid in ids:
            idx = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))),
                           dtype=np.int64)
            vals = np.array(data.draw(st.lists(finite, min_size=idx.size,
                                               max_size=idx.size)))
            weight = data.draw(st.floats(0.01, 100.0))
            entries.append((cid, Delta(idx, vals, False, 0), weight))
        public_idx = np.flatnonzero(public)
        out = aggregate(entries, base, public_idx)
        shuffled = data.draw(st.permutations(entries))
        np.testing.assert_array_equal(
            aggregate(shuffled, base, public_idx).view(np.int64),
            out.view(np.int64))
        np.testing.assert_array_equal(out[~public], base[~public])


class TestCompressTopk:
    def test_top2_by_magnitude(self):
        d = dense_delta(np.arange(4, dtype=np.int64),
                        np.array([3.0, -1.0, 0.5, 2.0]))
        out = compress_topk(d, 0.5)
        np.testing.assert_array_equal(out.indices, [0, 3])
        np.testing.assert_array_equal(out.values, [3.0, 2.0])
        assert out.bits_upload == 2 * 96
        assert not out.dense

    def test_retention_one_is_identity(self):
        d = dense_delta(np.arange(4, dtype=np.int64), np.arange(4.0))
        out = compress_topk(d, 1.0)
        assert out is d

    def test_tie_lower_index_wins(self):
        d = dense_delta(np.arange(4, dtype=np.int64),
                        np.array([1.0, -1.0, 1.0, -1.0]))
        out = compress_topk(d, 0.5)
        np.testing.assert_array_equal(out.indices, [0, 1])

    def test_matches_fullsort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(10, 1000))
            rho = float(rng.uniform(0.05, 0.95))
            vals = np.round(rng.standard_normal(n), 2)   # force some ties
            d = dense_delta(np.arange(n, dtype=np.int64), vals)
            out = compress_topk(d, rho)
            k = math.ceil(rho * n)
            order = sorted(range(n), key=lambda i: (-abs(vals[i]), i))
            expected = np.sort(np.array(order[:k]))
            np.testing.assert_array_equal(out.indices, expected)
            assert out.bits_upload == k * 96

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(),
           values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.nan,
                                math.inf, -math.inf]),
               st.floats(allow_nan=True, allow_infinity=True)),
               min_size=1, max_size=60))
    def test_keeps_the_lexsort_set(self, data, values):
        # ties, zeros of either sign, nan and infinities, at retentions of
        # 1/n, 1 and anything between; the rule: magnitude descending (nan
        # last), then index ascending, first ceil(retention * n) entries
        n = len(values)
        vals = np.array(values)
        gaps = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        idx = np.cumsum(gaps).astype(np.int64)
        rho = data.draw(st.one_of(st.just(1.0 / n), st.just(1.0),
                                  st.floats(1e-9, 1.0)))
        out = compress_topk(Delta(indices=idx, values=vals, dense=True,
                                  bits_upload=0), rho)
        k = math.ceil(rho * n)
        keep = np.sort(np.lexsort((idx, -np.abs(vals)))[:k])
        np.testing.assert_array_equal(out.indices, idx[keep])
        np.testing.assert_array_equal(out.values.view(np.int64),
                                      vals[keep].view(np.int64))
        assert out.indices.size == k

    def test_invalid_retention(self):
        d = dense_delta(np.arange(2, dtype=np.int64), np.zeros(2))
        for rho in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                compress_topk(d, rho)


class TestSelectionSchedule:
    def test_select_all(self):
        rng = np.random.default_rng(0)
        assert client_selection([2, 0, 1], 3, rng) == [0, 1, 2]

    def test_reproducible_singleton(self):
        a = client_selection([0, 1, 2], 1, np.random.default_rng(5))
        b = client_selection([0, 1, 2], 1, np.random.default_rng(5))
        assert a == b and len(a) == 1

    def test_selection_frequencies_uniform(self):
        rng = np.random.default_rng(6)
        counts = np.zeros(4)
        n = 10000
        for _ in range(n):
            counts[client_selection([0, 1, 2, 3], 1, rng)[0]] += 1
        np.testing.assert_allclose(counts / n, 0.25, atol=0.02)

    def test_m_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            client_selection([0, 1], 3, rng)
        with pytest.raises(ValueError):
            client_selection([0, 1], 0, rng)

    def test_warmup_constant(self):
        for t in range(1, 21):
            assert lr_schedule(t, 2e-5, 20, 60) == 2e-5

    def test_cosine_endpoint_zero(self):
        assert lr_schedule(60, 1.0, 20, 60) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_midpoint_half(self):
        assert lr_schedule(40, 1.0, 20, 60) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_constant(self):
        assert lr_schedule(3, 0.5, 10, 5) == 0.5


class TestLocalUpdate:
    def test_frozen_public_slice(self):
        # lr_u = 0: public delta is exactly zero, the returned private
        # slice moves
        eng = small_engine(scheme="fedcap", lr_u=0.0, lr_v=1e-2)
        client = eng.clients[0]
        up = eng.local_update(client, lr_u=0.0, lr_v=1e-2, round_no=1)
        assert np.all(up.delta.values == 0.0)
        assert not np.array_equal(up.private_values, client.private_values)
        assert math.isfinite(up.loss) and up.grad_norm > 0

    def test_writes_nothing_to_engine_or_clients(self):
        eng = small_engine(scheme="fedcap", n_clients=2)
        snapshot = lambda: ([eng.store.values.tobytes()]
                            + [c.private_values.tobytes()
                               for c in eng.clients])
        before = snapshot()
        for c in eng.clients:
            eng.local_update(c, lr_u=1e-2, lr_v=2e-2, round_no=1)
        assert snapshot() == before

    def test_personal_store_is_a_copy_with_the_private_slice(self):
        eng = small_engine(scheme="fedcap", n_clients=2)
        client = eng.clients[1]
        client.private_values = client.private_values + 1.0
        private = client.private_values.copy()
        shared = eng.store.values.copy()
        store = eng.personal_store(client)
        assert store.n == eng.store.n
        np.testing.assert_array_equal(store.values[eng.public_idx],
                                      eng.store.values[eng.public_idx])
        np.testing.assert_array_equal(store.values[eng.private_idx], private)
        store.values[:] = 7.0
        np.testing.assert_array_equal(eng.store.values, shared)
        np.testing.assert_array_equal(client.private_values, private)

    def test_fedavg_policy_trains_everything(self):
        eng = small_engine(scheme="fedavg")
        client = eng.clients[0]
        assert eng.private_idx.size == 0
        delta = eng.local_update(client, 1e-2, 1e-2, 1).delta
        assert delta.indices.size == eng.store.n
        assert np.any(delta.values != 0.0)

    def test_single_batch_sgd_matches_hand_stepped_oracle(self):
        # one client, one batch, one epoch, plain sgd: the public delta is
        # -lr * (gradient public slice) computed by an independent pass
        eng = small_engine(n_clients=1, n_points=3,   # 2 train points
                           batch_size=4, rounds=1, seed=3, optimizer="sgd",
                           lr_u=0.05, lr_v=0.05)
        client = eng.clients[0]

        # oracle: rebuild the same model and compute one batch gradient
        from camfed.autodiff import bce_with_logits_backward
        from camfed.model import ToyBevt
        from camfed.params import ParamStore
        from camfed.seeding import derive_rng
        local = ParamStore(eng.store.n, values=eng.store.values)
        model = ToyBevt(SMALL, local)
        rng = derive_rng(3, "batch", 1, client.seed)
        views, bev = client.dataset.train
        order = rng.permutation(len(bev))
        logits, acts = model.forward_batch(views[order], client.rig)
        model.backward(acts, bce_with_logits_backward(
            logits, bev[order], client.mask))
        expected = -0.05 * local.grads[eng.public_idx]

        delta = eng.local_update(client, lr_u=0.05, lr_v=0.05,
                                 round_no=1).delta
        np.testing.assert_allclose(delta.values, expected, atol=1e-12, rtol=0)

    def test_identical_clients_give_identical_deltas(self):
        eng = small_engine(seeds=[42, 42], rigs=["car", "car"], rounds=1,
                           seed=5)
        u0 = eng.local_update(eng.clients[0], 1e-2, 1e-2, 1)
        u1 = eng.local_update(eng.clients[1], 1e-2, 1e-2, 1)
        assert np.array_equal(u0.delta.values, u1.delta.values)
        assert u0.loss == u1.loss


class TestRunRound:
    def test_degenerate_single_client_round(self):
        # no compression, no stragglers: u becomes the client's local public
        eng = small_engine(n_clients=1, rounds=1, seed=9, warmup_rounds=1)
        u_before = eng.store.values.copy()
        delta_probe = eng.local_update(eng.clients[0], 1e-2, 1e-2, 1).delta
        recs = eng.run_round()
        np.testing.assert_allclose(
            eng.store.values[eng.public_idx],
            u_before[eng.public_idx] + delta_probe.values, atol=1e-12)
        assert len(recs) == 1 and recs[0].selected

    def test_round_records_schema(self):
        eng = small_engine(n_clients=3, rounds=2)
        recs = eng.run_round()
        assert len(recs) == 3
        for r in recs:
            assert r.round == 1
            assert isinstance(r.selected, bool)
            assert r.bits_down > 0 and r.bits_up > 0
            assert 0.0 <= r.val_iou <= 1.0

    def test_round_without_survivors_leaves_store_unchanged(self):
        # every selected client aborts, so no delta reaches aggregation
        eng = small_engine(scheme="fedavg", n_clients=2, rounds=1, seed=4)
        for c in eng.clients:
            train_views, _ = c.dataset.train
            train_views[:] = np.nan     # writes through to the stack
        before = eng.store.values.copy()
        recs = eng.run_round()
        assert np.array_equal(eng.store.values, before)
        assert all(r.aborted and not r.straggler for r in recs)
        assert all(r.bits_up == 0 and r.bits_down > 0 for r in recs)

    def test_privacy_no_private_indices_ever_transmitted(self, monkeypatch):
        eng = small_engine(seed=6, topk_retention=0.3)
        sent = []

        def recording_aggregate(entries, base_values, public_idx):
            sent.extend(delta for _, delta, _ in entries)
            return aggregate(entries, base_values, public_idx)

        monkeypatch.setattr(federation, "aggregate", recording_aggregate)
        eng.run()
        private = set(eng.private_idx.tolist())
        assert sent, "expected transmitted deltas"
        for delta in sent:
            assert private.isdisjoint(delta.indices.tolist())

    def test_only_survivor_deltas_reach_aggregate(self, monkeypatch):
        eng = small_engine(scheme="fedavg", n_clients=4, rounds=3, seed=8,
                           straggler_ratio=0.5)
        calls = []

        def recording_aggregate(entries, base_values, public_idx):
            calls.append(list(entries))
            return aggregate(entries, base_values, public_idx)

        monkeypatch.setattr(federation, "aggregate", recording_aggregate)
        for _ in range(3):
            recs = eng.run_round()
            entries = calls.pop()
            sent = {cid: delta for cid, delta, _ in entries}
            survivors = [r.client_id for r in recs
                         if r.selected and not r.aborted and not r.straggler]
            assert sorted(sent) == survivors
            assert any(r.straggler for r in recs)
            for r in recs:
                expected = sent[r.client_id].bits_upload \
                    if r.client_id in sent else 0
                assert r.bits_up == expected

    def test_client_step_returns_the_compressed_delta_aggregate_gets(
            self, monkeypatch):
        eng = small_engine(scheme="fedavg", n_clients=3, rounds=1, seed=7,
                           topk_retention=0.1)
        k = math.ceil(0.1 * eng.public_idx.size)
        returned, sent = {}, []
        local_update = eng.local_update

        def recording_local_update(client, *args):
            update = local_update(client, *args)
            returned[client.client_id] = update.delta
            return update

        def recording_aggregate(entries, base_values, public_idx):
            sent.extend(entries)
            return aggregate(entries, base_values, public_idx)

        monkeypatch.setattr(eng, "local_update", recording_local_update)
        monkeypatch.setattr(federation, "aggregate", recording_aggregate)
        eng.run_round()
        assert sorted(returned) == [0, 1, 2]
        for delta in returned.values():
            assert delta.indices.size == k and not delta.dense
        assert len(sent) == 3
        assert all(delta is returned[cid] for cid, delta, _ in sent)

    def test_server_private_slice_never_changes(self):
        eng = small_engine(scheme="fedcap", n_clients=2, rounds=3)
        init_private = eng.store.values[eng.private_idx].copy()
        eng.run()
        np.testing.assert_array_equal(eng.store.values[eng.private_idx],
                                      init_private)

    def test_parallel_equals_sequential(self):
        e1 = small_engine(n_clients=3, rounds=2, seed=13)
        e2 = small_engine(n_clients=3, rounds=2, seed=13)
        e1.run(workers=1)
        e2.run(workers=3)
        assert np.array_equal(e1.store.values, e2.store.values)
        for a, b in zip(e1.records, e2.records):
            assert a.val_iou == b.val_iou
            assert a.train_loss == b.train_loss or (
                np.isnan(a.train_loss) and np.isnan(b.train_loss))

    def test_nonfinite_client_aborts_and_others_aggregate(self):
        eng = small_engine(scheme="fedcap", n_clients=3)
        bad = eng.clients[1]
        bad.dataset.views[0] = np.nan
        lr = lr_schedule(1, 1e-2, 0, eng.config.rounds)
        expected = aggregate(
            [(c.client_id, eng.local_update(c, lr, lr, 1).delta,
              float(len(c.dataset.views)))
             for c in (eng.clients[0], eng.clients[2])],
            eng.store.values, eng.public_idx)
        bad_private = bad.private_values.copy()
        recs = eng.run_round()
        rec = recs[1]
        assert rec.selected and rec.aborted and not rec.straggler
        assert rec.bits_up == 0 and math.isnan(rec.train_loss)
        np.testing.assert_array_equal(bad.private_values, bad_private)
        assert all(not r.aborted and r.bits_up > 0 for r in (recs[0], recs[2]))
        np.testing.assert_array_equal(eng.store.values, expected)

    @pytest.mark.parametrize("scheme, select_m, groups", [
        ("fedavg", 3, [[0, 1, 2]]),
        ("fedcap", 1, None),          # the selected client, the other two
    ])
    def test_one_eval_model_per_distinct_private_slice(
            self, scheme, select_m, groups, monkeypatch):
        eng = small_engine(scheme=scheme, n_clients=3, select_m=select_m)
        built, calls = [], []

        class CountingToyBevt(ToyBevt):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        def recording_mean_ious(model, clients):
            calls.append((model, [c.client_id for c in clients]))
            return mean_ious(model, clients)

        mean_ious = federation.mean_ious
        monkeypatch.setattr(federation, "ToyBevt", CountingToyBevt)
        monkeypatch.setattr(federation, "mean_ious", recording_mean_ious)
        recs = eng.run_round()
        selected = [r.client_id for r in recs if r.selected]
        if groups is None:
            groups = [selected, [r.client_id for r in recs if not r.selected]]
            groups.sort()
        assert sorted(ids for _, ids in calls) == groups
        # one model per local update, then one per distinct private slice
        assert len(built) == len(selected) + len(groups)
        assert [m for m, _ in calls] == built[len(selected):]
        for r, c in zip(recs, eng.clients):
            model = ToyBevt(SMALL, eng.personal_store(c))
            ref = np.mean([iou(model.forward(views, c.rig), bev, c.mask)
                           for views, bev in zip(*c.dataset.test)])
            assert r.val_iou == float(ref)

    @pytest.mark.parametrize("scheme, owners", [
        ("fedcap", [[0], [1], [2]]), ("fedavg", [[0, 1, 2]])])
    def test_round_builds_one_model_per_distinct_slice(self, scheme, owners,
                                                        monkeypatch):
        eng = small_engine(scheme=scheme, n_clients=3)

        def no_training(client, lr_u, lr_v, round_no):
            return federation.ClientUpdate(
                delta=dense_delta(eng.public_idx,
                                  np.zeros(eng.public_idx.size)),
                private_values=client.private_values + 1e-3 * client.client_id,
                loss=0.0, grad_norm=0.0)

        built = []

        class CountingToyBevt(ToyBevt):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(eng, "local_update", no_training)
        monkeypatch.setattr(federation, "ToyBevt", CountingToyBevt)
        eng.run_round()
        assert len(built) == len(owners)
        assert [[c.client_id for c in members]
                for members, _ in eng.personalized_models()] == owners

    def test_selection_subset(self):
        eng = small_engine(n_clients=4, rounds=2, select_m=2)
        recs = eng.run_round()
        assert sum(r.selected for r in recs) == 2
        assert all(r.bits_down == 0 for r in recs if not r.selected)


class TestEngineSettings:
    def test_bits_budget_stops_engine(self):
        eng = small_engine(scheme="fedavg", rounds=5, seed=2, bits_budget=10)
        eng.run()
        assert eng.round == 1

    def test_sgd_optimizer_path(self):
        eng = small_engine(rounds=2, seed=4, optimizer="sgd")
        eng.run()
        assert eng.round == 2

    def test_bits_count_every_public_value(self):
        # a front-camera-only rig masks query cells off; its traffic still
        # counts the whole public slice down and the whole delta up
        eng = small_engine(
            clients=[ClientSpec("car", 6, cameras=[1], seed=80)],
            scheme="fedavg", rounds=1, seed=5, topk_retention=0.1)
        assert (eng.clients[0].mask == 0).any()
        rec = eng.run_round()[0]
        n_pub = eng.public_idx.size
        assert rec.bits_down == 64 * n_pub
        assert rec.bits_up == math.ceil(0.1 * n_pub) * (64 + 32)


class TestRunTrend:
    def test_loss_decreases_over_30_rounds(self):
        # stochastic claim, so asserted on medians over 5 seeds
        firsts, lasts = [], []
        for seed in range(5):
            eng = small_engine(n_clients=3, n_points=10, rounds=30,
                               seed=100 + seed, lr_u=5e-3, lr_v=5e-3,
                               warmup_rounds=10)
            eng.run()
            by_round = {}
            for r in eng.records:
                if not np.isnan(r.train_loss):
                    by_round.setdefault(r.round, []).append(r.train_loss)
            series = [float(np.mean(by_round[t])) for t in sorted(by_round)]
            firsts.append(float(np.median(series[:5])))
            lasts.append(float(np.median(series[-5:])))
        assert np.median(lasts) < np.median(firsts)


class TestDeltaValidation:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            Delta(indices=np.array([3, 1], dtype=np.int64),
                  values=np.zeros(2), dense=False, bits_upload=0)

    def test_parallel_arrays(self):
        with pytest.raises(ValueError):
            Delta(indices=np.arange(3, dtype=np.int64), values=np.zeros(2),
                  dense=False, bits_upload=0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_training_steps_fault_in_no_fresh_heap():
    # a step's few MB of temporaries stay mapped between steps: without the
    # thresholds camfed sets at import, each step faults ~1,100 pages in
    import resource

    assert camfed._heap_kept_mapped
    engine = build_engine(preset("uc1"))
    car = engine.clients[2]
    steps = car.local_epochs * math.ceil(car.dataset.n_train
                                         / engine.config.batch_size)
    engine.local_update(car, 1e-2, 1e-2, 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.local_update(car, 1e-2, 1e-2, 1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert steps == 128
    assert faults < 10 * steps
