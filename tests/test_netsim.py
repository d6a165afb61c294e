import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camfed.netsim import CommLedger, StragglerPlan, sample_stragglers
from camfed.seeding import derive_rng


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

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(selected=st.lists(st.integers(-50, 500), unique=True, max_size=60),
           ratio=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**32))
    def test_survivors_are_a_sorted_subset_of_the_kept_size(self, selected,
                                                            ratio, seed):
        survivors = sample_stragglers(selected, ratio,
                                      np.random.default_rng(seed))
        n = len(selected)
        assert survivors == sorted(survivors)
        assert len(set(survivors)) == len(survivors)
        assert set(survivors) <= set(selected)
        assert len(survivors) == n - math.floor(ratio * n)


class TestStragglerPlan:
    def test_iid_varies_per_round(self):
        plan = StragglerPlan(0.5, master_seed=7)
        picks = {tuple(plan.survivors([0, 1, 2, 3], r)) for r in range(30)}
        assert len(picks) > 1

    def test_iid_deterministic_per_round(self):
        p1 = StragglerPlan(0.5, 7)
        p2 = StragglerPlan(0.5, 7)
        for r in range(5):
            assert p1.survivors([0, 1, 2, 3], r) == p2.survivors([0, 1, 2, 3], r)

    def test_ratio_zero_keeps_every_selected_client(self):
        plan = StragglerPlan(0.0, master_seed=7)
        for r in range(1, 6):
            assert plan.survivors([3, 0, 2], r) == [0, 2, 3]

    def test_draws_from_the_round_straggle_stream(self):
        plan = StragglerPlan(0.4, master_seed=3)
        for r in range(1, 6):
            expected = sample_stragglers(range(10), 0.4,
                                         derive_rng(3, "straggle", r))
            assert plan.survivors([9, 2, 5, 0, 1, 3, 4, 6, 7, 8], r) == expected


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

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(counts=st.lists(st.tuples(st.integers(0, 2**40),
                                     st.integers(0, 2**40)), max_size=40),
           bad=st.tuples(st.integers(-2**40, 2**40),
                         st.integers(-2**40, 2**40)).filter(
                             lambda c: min(c) < 0))
    def test_totals_are_the_sums_and_negatives_change_nothing(self, counts,
                                                              bad):
        ledger = CommLedger()
        for i, (up, down) in enumerate(counts):
            ledger.account(i, i % 7, up, down)
        ups = sum(up for up, _ in counts)
        downs = sum(down for _, down in counts)
        assert (ledger.total_up, ledger.total_down) == (ups, downs)
        assert ledger.total == ups + downs
        with pytest.raises(ValueError):
            ledger.account(len(counts), 0, *bad)
        assert (ledger.total_up, ledger.total_down) == (ups, downs)

    def test_budget_check(self):
        ledger = CommLedger()
        ledger.account(1, 0, 600, 400)
        assert not ledger.over_budget(1001)
        assert ledger.over_budget(1000)
        assert ledger.over_budget(999)
        assert not ledger.over_budget(None)
