import numpy as np
import pytest

from camfed.netsim import (CommLedger, NetworkProfile, StragglerPlan,
                           sample_stragglers)


class TestSampleStragglers:
    def test_ratio_zero_all_survive(self):
        rng = np.random.default_rng(0)
        assert sample_stragglers([3, 1, 2], 0.0, rng) == [1, 2, 3]

    def test_uc5_floor_arithmetic(self):
        # 58 selected at ratio 0.8: floor(46.4) = 46 dropped, 12 survive
        rng = np.random.default_rng(1)
        survivors = sample_stragglers(list(range(58)), 0.8, rng)
        assert len(survivors) == 12

    def test_at_least_one_survivor(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5):
            survivors = sample_stragglers(list(range(n)), 0.99, rng)
            assert len(survivors) >= 1

    def test_drop_frequencies_uniform(self):
        rng = np.random.default_rng(3)
        n, trials, ratio = 5, 10000, 0.4
        dropped = np.zeros(n)
        for _ in range(trials):
            alive = sample_stragglers(list(range(n)), ratio, rng)
            for c in range(n):
                if c not in alive:
                    dropped[c] += 1
        # floor(0.4*5)=2 dropped per trial -> per-client rate 0.4
        np.testing.assert_allclose(dropped / trials, 0.4, atol=0.02)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            sample_stragglers([0], 1.0, np.random.default_rng(0))


class TestStragglerPlan:
    def test_iid_varies_per_round(self):
        plan = StragglerPlan(NetworkProfile(straggler_ratio=0.5), [0, 1, 2, 3],
                             master_seed=7)
        picks = {tuple(plan.survivors([0, 1, 2, 3], r)) for r in range(30)}
        assert len(picks) > 1

    def test_iid_deterministic_per_round(self):
        p1 = StragglerPlan(NetworkProfile(straggler_ratio=0.5), [0, 1, 2, 3], 7)
        p2 = StragglerPlan(NetworkProfile(straggler_ratio=0.5), [0, 1, 2, 3], 7)
        for r in range(5):
            assert p1.survivors([0, 1, 2, 3], r) == p2.survivors([0, 1, 2, 3], r)

    def test_persistent_fixed_set(self):
        plan = StragglerPlan(NetworkProfile(straggler_ratio=0.5,
                                            mode="persistent"),
                             list(range(10)), master_seed=5)
        assert len(plan.permanent) == 5
        for r in range(5):
            survivors = plan.survivors(list(range(10)), r)
            assert set(survivors) == set(range(10)) - plan.permanent

    def test_overrides_force_drop_and_keep(self):
        profile = NetworkProfile(straggler_ratio=0.0,
                                 overrides={0: 1.0, 1: 0.0})
        plan = StragglerPlan(profile, [0, 1, 2], master_seed=3)
        for r in range(10):
            survivors = plan.survivors([0, 1, 2], r)
            assert 0 not in survivors
            assert 1 in survivors and 2 in survivors

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(straggler_ratio=1.0)
        with pytest.raises(ValueError):
            NetworkProfile(mode="sometimes")

    @pytest.mark.parametrize("p", [7.5, -0.1, float("nan")])
    def test_override_probability_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="override"):
            NetworkProfile(overrides={0: 0.5, 1: p})

    def test_override_probability_bounds_accepted(self):
        NetworkProfile(overrides={0: 0.0, 1: 1.0})


class TestCommLedger:
    def test_zero_bits_no_change(self):
        ledger = CommLedger()
        ledger.account(1, 0, 0, 0)
        assert ledger.total == 0

    def test_dense_broadcast_accounting(self):
        # |u| = 1000 -> 64000 bits down per selected client
        ledger = CommLedger()
        for cid in range(3):
            ledger.account(1, cid, 0, 1000 * 64)
        assert ledger.total_down == 3 * 64000

    def test_topk_upload_accounting(self):
        # rho = 0.1 on 1000 params -> 100 entries x 96 bits
        ledger = CommLedger()
        ledger.account(1, 0, 100 * 96, 0)
        assert ledger.total_up == 9600

    def test_totals_exact_sums(self):
        rng = np.random.default_rng(4)
        ledger = CommLedger()
        ups = downs = 0
        for i in range(200):
            u, d = int(rng.integers(0, 10**6)), int(rng.integers(0, 10**6))
            ledger.account(i // 10, i % 10, u, d)
            ups += u
            downs += d
        assert ledger.total_up == ups and ledger.total_down == downs
        assert ledger.total == ups + downs

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CommLedger().account(1, 0, -1, 0)

    def test_budget_check(self):
        ledger = CommLedger()
        ledger.account(1, 0, 600, 400)
        assert not ledger.over_budget(1001)
        assert ledger.over_budget(1000)
        assert ledger.over_budget(999)
        assert not ledger.over_budget(None)
