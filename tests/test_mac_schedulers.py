"""Tests for the MAC scheduler zoo (PF, MT, RR, SRJF, PSS, CQA, OutRAN)."""

import numpy as np
import pytest

from repro import CellSimulation, SimConfig
from repro.core.outran import OutranScheduler
from repro.mac.bsr import BufferStatusReport
from repro.mac.pf import (
    MaxThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
)
from repro.mac.qos import CqaScheduler, PssScheduler
from repro.mac.scheduler import MIN_EWMA_BPS, UeSchedState, argmax_allocation
from repro.mac.srjf import SrjfScheduler


def make_ues(n, buffered=1000):
    ues = []
    for i in range(n):
        ue = UeSchedState(i, i)
        ue.bsr = BufferStatusReport(ue_id=i, total_bytes=buffered, head_level=0)
        ues.append(ue)
    return ues


class TestUeSchedState:
    def test_inactive_without_data(self):
        ue = UeSchedState(0, 0)
        assert not ue.active

    def test_active_with_data(self):
        ue = make_ues(1)[0]
        assert ue.active

    def test_ewma_update_converges(self):
        ue = UeSchedState(0, 0)
        for _ in range(5000):
            ue.update_ewma(10_000, 1000, fairness_window_s=1.0)
        # 10 kbit per 1 ms TTI = 10 Mbps steady state.
        assert ue.ewma_bps == pytest.approx(10e6, rel=0.02)

    def test_ewma_decays_when_idle(self):
        ue = UeSchedState(0, 0)
        ue.ewma_bps = 1e7
        for _ in range(10_000):
            ue.update_ewma(0, 1000, fairness_window_s=1.0)
        assert ue.ewma_bps == MIN_EWMA_BPS

    def test_small_fairness_window_adapts_faster(self):
        fast = UeSchedState(0, 0)
        slow = UeSchedState(1, 1)
        for _ in range(50):
            fast.update_ewma(10_000, 1000, fairness_window_s=0.01)
            slow.update_ewma(10_000, 1000, fairness_window_s=10.0)
        assert fast.ewma_bps > slow.ewma_bps


class TestArgmaxAllocation:
    def test_picks_best_per_rb(self):
        metric = np.array([[1.0, 5.0], [2.0, 1.0]])
        owner = argmax_allocation(metric, np.array([True, True]))
        assert owner.tolist() == [1, 0]

    def test_inactive_excluded(self):
        metric = np.array([[1.0], [100.0]])
        owner = argmax_allocation(metric, np.array([True, False]))
        assert owner.tolist() == [0]

    def test_nobody_active(self):
        owner = argmax_allocation(np.ones((2, 3)), np.array([False, False]))
        assert owner.tolist() == [-1, -1, -1]


class TestProportionalFair:
    def test_metric_is_rate_over_ewma(self):
        pf = ProportionalFairScheduler()
        ues = make_ues(2)
        ues[0].ewma_bps = 1e6
        ues[1].ewma_bps = 2e6
        rates = np.array([[100.0, 200.0], [100.0, 200.0]])
        metric = pf.metric_matrix(rates, ues, 0)
        assert metric[0, 0] == pytest.approx(100.0 / 1e6)
        assert metric[1, 1] == pytest.approx(200.0 / 2e6)

    def test_low_throughput_user_preferred_at_equal_rate(self):
        pf = ProportionalFairScheduler()
        ues = make_ues(2)
        ues[0].ewma_bps = 1e7
        ues[1].ewma_bps = 1e5
        rates = np.full((2, 4), 500.0)
        owner = pf.allocate(rates, ues, 0)
        assert (owner == 1).all()

    def test_on_tti_end_updates_ewma(self):
        pf = ProportionalFairScheduler(fairness_window_s=0.1)
        ues = make_ues(2)
        before = ues[0].ewma_bps
        pf.on_tti_end(ues, np.array([50_000, 0]), 1000)
        assert ues[0].ewma_bps > before

    def test_invalid_fairness_window(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(fairness_window_s=0.0)


class TestMaxThroughput:
    def test_best_channel_wins_regardless_of_history(self):
        mt = MaxThroughputScheduler()
        ues = make_ues(2)
        ues[0].ewma_bps = 1e3  # starving, but MT does not care
        rates = np.array([[100.0], [200.0]])
        owner = mt.allocate(rates, ues, 0)
        assert owner[0] == 1


class TestRoundRobin:
    def test_longest_waiting_wins(self):
        rr = RoundRobinScheduler()
        ues = make_ues(2)
        ues[0].last_served_us = 900
        ues[1].last_served_us = 100
        rates = np.array([[500.0], [100.0]])  # channel-blind
        owner = rr.allocate(rates, ues, now_us=1000)
        assert owner[0] == 1


class TestSrjf:
    def test_shortest_remaining_flow_wins_all_rbs(self):
        srjf = SrjfScheduler()
        ues = make_ues(3)
        ues[0].remaining_flow_bytes = 50_000
        ues[1].remaining_flow_bytes = 500
        ues[2].remaining_flow_bytes = 5_000
        rates = np.random.default_rng(0).uniform(1, 100, (3, 10))
        owner = srjf.allocate(rates, ues, 0)
        assert (owner == 1).all()

    def test_unknown_remaining_treated_as_infinite(self):
        srjf = SrjfScheduler()
        ues = make_ues(2)
        ues[0].remaining_flow_bytes = None
        ues[1].remaining_flow_bytes = 10**9
        owner = srjf.allocate(np.ones((2, 2)), ues, 0)
        assert (owner == 1).all()


class TestPss:
    def test_priority_set_preempts_pf(self):
        pss = PssScheduler()
        ues = make_ues(2)
        ues[0].ewma_bps = 1e5   # PF would favour user 0
        ues[1].ewma_bps = 1e8
        ues[1].qos_deadline_flows = 1
        owner = pss.allocate(np.full((2, 3), 100.0), ues, 0)
        assert (owner == 1).all()

    def test_without_deadline_flows_behaves_like_pf(self):
        pss = PssScheduler()
        pf = ProportionalFairScheduler()
        ues = make_ues(3)
        for i, ue in enumerate(ues):
            ue.ewma_bps = 1e6 * (i + 1)
        rates = np.random.default_rng(1).uniform(1, 100, (3, 8))
        assert (pss.allocate(rates, ues, 0) == pf.allocate(rates, ues, 0)).all()


class TestCqa:
    def test_urgency_grows_with_hol_delay(self):
        cqa = CqaScheduler(delay_budget_us=50_000)
        ues = make_ues(2)
        ues[0].qos_deadline_flows = 1
        ues[0].qos_hol_delay_us = 100
        ues[1].qos_deadline_flows = 1
        ues[1].qos_hol_delay_us = 200_000  # way past budget
        rates = np.full((2, 2), 100.0)
        metric = cqa.metric_matrix(rates, ues, 0)
        assert metric[1, 0] > metric[0, 0]

    def test_non_qos_user_gets_plain_pf(self):
        cqa = CqaScheduler()
        ues = make_ues(1)
        metric = cqa.metric_matrix(np.array([[100.0]]), ues, 0)
        assert metric[0, 0] == pytest.approx(100.0 / ues[0].ewma_bps)


class TestOutranScheduler:
    def test_default_wraps_pf_with_paper_epsilon(self):
        outran = OutranScheduler()
        assert outran.epsilon == 0.2
        assert "pf" in outran.name

    def test_eps0_matches_legacy_allocation(self):
        outran = OutranScheduler(epsilon=0.0)
        ues = make_ues(4)
        for i, ue in enumerate(ues):
            ue.ewma_bps = 1e6 * (i + 1)
            ue.bsr = BufferStatusReport(ue_id=i, total_bytes=100, head_level=i % 2)
        rates = np.random.default_rng(2).uniform(1, 100, (4, 16))
        legacy_owner = outran.legacy.allocate(rates, ues, 0)
        assert (outran.allocate(rates, ues, 0) == legacy_owner).all()

    def test_prioritizes_high_mlfq_priority_in_room(self):
        outran = OutranScheduler(epsilon=0.3)
        ues = make_ues(2)
        ues[0].ewma_bps = 1e6
        ues[1].ewma_bps = 1e6
        ues[0].bsr = BufferStatusReport(ue_id=0, total_bytes=100, head_level=3)
        ues[1].bsr = BufferStatusReport(ue_id=1, total_bytes=100, head_level=0)
        rates = np.array([[100.0], [80.0]])  # user 1 within 30% room
        owner = outran.allocate(rates, ues, 0)
        assert owner[0] == 1

    def test_on_tti_end_updates_legacy_state(self):
        outran = OutranScheduler()
        ues = make_ues(1)
        before = ues[0].ewma_bps
        outran.on_tti_end(ues, np.array([100_000]), 1000)
        assert ues[0].ewma_bps > before

    def test_top_k_mode(self):
        outran = OutranScheduler(top_k=2)
        assert "top2" in outran.name
        ues = make_ues(2)
        ues[0].bsr = BufferStatusReport(ue_id=0, total_bytes=100, head_level=2)
        ues[1].bsr = BufferStatusReport(ue_id=1, total_bytes=100, head_level=0)
        rates = np.array([[100.0], [0.5]])  # far apart, but top-2 admits both
        owner = outran.allocate(rates, ues, 0)
        assert owner[0] == 1

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            OutranScheduler(epsilon=-0.1)


class TestMlwdf:
    def test_delayed_deadline_user_weighted_up(self):
        from repro.mac.qos import MlwdfScheduler

        mlwdf = MlwdfScheduler(delay_budget_us=50_000)
        ues = make_ues(2)
        for ue in ues:
            ue.qos_deadline_flows = 1
        ues[0].qos_hol_delay_us = 1_000
        ues[1].qos_hol_delay_us = 100_000  # way past budget
        metric = mlwdf.metric_matrix(np.full((2, 2), 100.0), ues, 0)
        assert metric[1, 0] > metric[0, 0]

    def test_non_deadline_users_plain_pf(self):
        from repro.mac.pf import ProportionalFairScheduler
        from repro.mac.qos import MlwdfScheduler

        mlwdf = MlwdfScheduler()
        pf = ProportionalFairScheduler()
        ues = make_ues(3)
        rates = np.random.default_rng(3).uniform(1, 100, (3, 5))
        assert np.allclose(
            mlwdf.metric_matrix(rates, ues, 0), pf.metric_matrix(rates, ues, 0)
        )

    def test_invalid_delta(self):
        from repro.mac.qos import MlwdfScheduler

        with pytest.raises(ValueError):
            MlwdfScheduler(delta=1.0)


class TestExpPf:
    def test_urgent_user_dominates(self):
        from repro.mac.qos import ExpPfScheduler

        exppf = ExpPfScheduler(delay_budget_us=50_000)
        ues = make_ues(2)
        for ue in ues:
            ue.qos_deadline_flows = 1
        ues[0].qos_hol_delay_us = 0
        ues[1].qos_hol_delay_us = 200_000
        metric = exppf.metric_matrix(np.full((2, 2), 100.0), ues, 0)
        assert metric[1, 0] > metric[0, 0] * 2

    def test_urgency_bounded(self):
        from repro.mac.qos import ExpPfScheduler

        exppf = ExpPfScheduler()
        ues = make_ues(1)
        ues[0].qos_deadline_flows = 1
        ues[0].qos_hol_delay_us = 10**9  # absurd delay: still finite
        metric = exppf.metric_matrix(np.full((1, 1), 100.0), ues, 0)
        assert np.isfinite(metric).all()

    def test_factory_names(self):
        from repro.sim.cell import make_scheduler
        from repro import SimConfig

        cfg = SimConfig.lte_default(num_ues=2)
        assert make_scheduler("mlwdf", cfg).name == "mlwdf"
        assert make_scheduler("exppf", cfg).name == "exppf"


class TestBetScheduler:
    def test_bet_equalizes_service(self):
        from repro.mac.bsr import BufferStatusReport
        from repro.mac.pf import BlindEqualThroughputScheduler
        from repro.mac.scheduler import UeSchedState

        bet = BlindEqualThroughputScheduler()
        ues = []
        for i in range(2):
            ue = UeSchedState(i, i)
            ue.bsr = BufferStatusReport(ue_id=i, total_bytes=1000)
            ues.append(ue)
        ues[0].ewma_bps = 1e7
        ues[1].ewma_bps = 1e5
        rates = np.array([[1000.0], [10.0]])  # channel-blind: 1 still wins
        owner = bet.allocate(rates, ues, 0)
        assert owner[0] == 1

    def test_bet_available_via_factory(self):
        cfg = SimConfig.lte_default(num_ues=3, load=0.4, seed=2)
        res = CellSimulation(cfg, scheduler="bet").run(duration_s=1.0)
        assert res.completed_flows > 0
