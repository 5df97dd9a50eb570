"""Tests for the GBR reservation layer (paper Table 1 / section 7)."""

import numpy as np
import pytest

from repro import CellSimulation, SimConfig
from repro.mac.bsr import BufferStatusReport
from repro.mac.gbr import GbrConfig, GbrReservingScheduler
from repro.mac.pf import ProportionalFairScheduler
from repro.mac.scheduler import UeSchedState
from repro.core.outran import OutranScheduler
from repro.traffic.generator import FlowSpec


def make_ues(n):
    ues = []
    for i in range(n):
        ue = UeSchedState(i, i)
        ue.bsr = BufferStatusReport(ue_id=i, total_bytes=100_000, head_level=0)
        ues.append(ue)
    return ues


class TestGbrConfig:
    def test_tokens_accrue_and_cap(self):
        contract = GbrConfig(rate_bps=1e6, bucket_cap_s=0.01)
        for _ in range(100):
            contract.accrue(1000)  # 100 ms total at 1 Mbps = 100 kbit
        assert contract.tokens_bits == pytest.approx(1e4)  # capped at 10 ms

    def test_consume_floors_at_zero(self):
        contract = GbrConfig(rate_bps=1e6)
        contract.accrue(1000)
        contract.consume(1e9)
        assert contract.tokens_bits == 0.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            GbrConfig(rate_bps=0)


class TestReservation:
    def test_behind_gbr_ue_gets_rbs_first(self):
        inner = ProportionalFairScheduler()
        contract = GbrConfig(rate_bps=5e6)
        contract.tokens_bits = 50_000  # well behind
        sched = GbrReservingScheduler(inner, {1: contract})
        ues = make_ues(3)
        ues[1].ewma_bps = 1e9  # PF alone would never pick UE 1
        rates = np.full((3, 10), 1000.0)
        owner = sched.allocate(rates, ues, 0)
        assert (owner == 1).sum() >= 1

    def test_satisfied_gbr_ue_not_reserved(self):
        inner = ProportionalFairScheduler()
        contract = GbrConfig(rate_bps=5e6)
        contract.tokens_bits = 0.0  # guarantee met
        sched = GbrReservingScheduler(inner, {1: contract})
        ues = make_ues(2)
        ues[0].ewma_bps = 1e5
        ues[1].ewma_bps = 1e9
        rates = np.full((2, 4), 1000.0)
        owner = sched.allocate(rates, ues, 0)
        assert (owner == 0).all()  # plain PF outcome

    def test_idle_gbr_ue_not_reserved(self):
        inner = ProportionalFairScheduler()
        contract = GbrConfig(rate_bps=5e6)
        contract.tokens_bits = 50_000
        sched = GbrReservingScheduler(inner, {1: contract})
        ues = make_ues(2)
        ues[1].bsr = BufferStatusReport(ue_id=1, total_bytes=0)
        owner = sched.allocate(np.full((2, 4), 1000.0), ues, 0)
        assert (owner == 0).all()

    def test_on_tti_end_updates_tokens_and_inner(self):
        inner = ProportionalFairScheduler()
        contract = GbrConfig(rate_bps=1e6)
        sched = GbrReservingScheduler(inner, {0: contract})
        ues = make_ues(1)
        before_ewma = ues[0].ewma_bps
        sched.on_tti_end(ues, np.array([500.0]), 1000)
        assert contract.tokens_bits == pytest.approx(1000 - 500)
        assert ues[0].ewma_bps != before_ewma

    def test_name_mentions_inner(self):
        sched = GbrReservingScheduler(OutranScheduler(), {})
        assert "gbr[" in sched.name and "outran" in sched.name


class TestEndToEndIsolation:
    @staticmethod
    def _achieved_bps(reserve: bool) -> float:
        """A cell-edge UE under a Max-Throughput scheduler: without a
        guarantee MT starves it outright; the GBR reservation must keep
        its bearer served regardless."""
        from repro.mac.pf import MaxThroughputScheduler
        from repro.phy.mobility import StaticMobility

        guarantee_bps = 2e6
        cfg = SimConfig.lte_default(num_ues=6, seed=13)
        if reserve:
            contract = GbrConfig(rate_bps=guarantee_bps)
            sched = GbrReservingScheduler(MaxThroughputScheduler(), {0: contract})
        else:
            sched = MaxThroughputScheduler()
        # UE 0's bearer competes with persistent bulk downloads on every
        # other (better-channel) UE: MT never leaves them idle.
        flows = [FlowSpec(flow_id=10_000, ue_index=0,
                          size_bytes=10_000_000, start_us=0)]
        for ue_index in range(1, 6):
            flows.append(
                FlowSpec(flow_id=20_000 + ue_index, ue_index=ue_index,
                         size_bytes=60_000_000, start_us=0)
            )
        sim = CellSimulation(cfg, scheduler=sched, flows=flows)
        # Pin UE 0 at the cell edge, the rest close to the mast.
        sim.ues[0].channel.mobility = StaticMobility(195.0)
        sim.ues[0].channel.shadowing_db = 8.0
        for ue in sim.ues[1:]:
            ue.channel.mobility = StaticMobility(30.0)
            ue.channel.shadowing_db = 0.0
        sim.run(duration_s=4.0, drain_s=0.5)
        return sim._runtimes[10_000].receiver.bytes_received * 8 / 4.0

    def test_gbr_ue_sustains_rate_under_congestion(self):
        """The section 7 isolation claim: the guaranteed bearer keeps its
        rate where the same flow without a reservation is starved."""
        guaranteed = self._achieved_bps(reserve=True)
        best_effort = self._achieved_bps(reserve=False)
        assert guaranteed >= 2e6 * 0.6
        assert guaranteed > best_effort * 1.5


class TestGbrBoundaries:
    def test_reserved_rbs_not_reassigned_by_inner(self):
        contract = GbrConfig(rate_bps=1e7)
        contract.tokens_bits = 2_500  # behind by ~3 RBs worth
        sched = GbrReservingScheduler(ProportionalFairScheduler(), {0: contract})
        ues = []
        for i in range(2):
            ue = UeSchedState(i, i)
            ue.bsr = BufferStatusReport(ue_id=i, total_bytes=10_000, head_level=0)
            ues.append(ue)
        ues[1].ewma_bps = 1.0  # inner PF would give UE 1 everything
        rates = np.full((2, 8), 1000.0)
        owner = sched.allocate(rates, ues, 0)
        # UE0's reservation survives; the rest belongs to the inner pick.
        assert (owner == 0).sum() >= 1
        assert (owner == 1).sum() >= 1

    def test_all_rbs_reserved_leaves_nothing_for_inner(self):
        contract = GbrConfig(rate_bps=1e9, bucket_cap_s=1.0)
        contract.tokens_bits = 1e9
        sched = GbrReservingScheduler(ProportionalFairScheduler(), {0: contract})
        ues = []
        for i in range(2):
            ue = UeSchedState(i, i)
            ue.bsr = BufferStatusReport(ue_id=i, total_bytes=10_000, head_level=0)
            ues.append(ue)
        owner = sched.allocate(np.full((2, 4), 1000.0), ues, 0)
        assert (owner == 0).all()
