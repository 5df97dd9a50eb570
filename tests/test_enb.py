"""Unit tests for the xNodeB TTI machinery (isolated from full runs)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.net.packet import FiveTuple, Packet
from repro.sim.cell import CellSimulation
from repro.sim.config import SimConfig


def make_sim(scheduler="pf", **overrides):
    cfg = SimConfig.lte_default(num_ues=3, seed=1, **overrides)
    return CellSimulation(cfg, scheduler=scheduler, flows=[])


def ingress_packet(sim, ue_index=0, payload=1000, port=50_000, seq=0):
    packet = Packet(FiveTuple(1, 100 + ue_index, 443, port), 0, seq, payload)
    sim.enb.ingress(ue_index, packet)
    return packet


class TestIngress:
    def test_packet_lands_in_ue_buffer(self):
        sim = make_sim()
        ingress_packet(sim, ue_index=1)
        assert sim.ues[1].rlc.buffered_sdus == 1
        assert sim.ues[0].rlc.buffered_sdus == 0

    def test_flow_table_updated(self):
        sim = make_sim("outran")
        ingress_packet(sim, ue_index=0)
        assert len(sim.ues[0].flow_table) == 1

    def test_overflow_counted_at_harvest(self):
        sim = make_sim(rlc_capacity_sdus=2)
        for i in range(5):
            ingress_packet(sim, seq=i * 1000)
        sim._harvest_counters()
        assert sim.metrics.sdus_dropped == 3


class TestTtiLoop:
    def test_idle_tti_serves_nothing(self):
        sim = make_sim()
        sim.enb.on_tti()
        assert sim.metrics.total_bits == 0

    def test_backlogged_ue_gets_grant(self):
        sim = make_sim()
        ingress_packet(sim)
        sim.enb.on_tti()
        assert sim.metrics.total_bits > 0
        assert sim.ues[0].rlc.buffered_sdus == 0

    def test_transport_block_delivered_after_air_delay(self):
        sim = make_sim()
        packet = ingress_packet(sim)
        sim.enb.on_tti()
        received = []
        sim._runtimes[packet.flow_id] = SimpleNamespace(
            receiver=SimpleNamespace(on_data=lambda p, t: received.append(p))
        )
        sim.engine.run_until(sim.engine.now_us + sim.config.air_delay_us + 1)
        assert received and received[0].packet_id == packet.packet_id

    def test_bler_one_loses_every_tb(self):
        sim = make_sim(radio_bler=0.99, harq_enabled=False)
        ingress_packet(sim)
        sim.enb.on_tti()
        sim.engine.run_until(sim.engine.now_us + 100_000)
        # With near-certain BLER the TB is counted lost, nothing delivered.
        assert sim.enb.tbs_lost >= 1

    def test_grant_respects_backlog(self):
        """A UE with little data transmits only that data."""
        sim = make_sim()
        ingress_packet(sim, payload=300)
        sim.enb.on_tti()
        # Served bits account the actual PDU (payload + headers), far
        # below the full-grid grant.
        assert 0 < sim.metrics.total_bits < 10_000

    def test_last_served_updated(self):
        sim = make_sim()
        ingress_packet(sim)
        sim.engine.now_us = 5_000
        sim.enb.on_tti()
        assert sim.enb._table.last_served_us.tolist() == [5_000, 0, 0]

    def test_multiple_ues_share_grid(self):
        sim = make_sim()
        for ue in range(3):
            for i in range(120):
                ingress_packet(sim, ue_index=ue, payload=1400, seq=i * 1400)
        # A single TTI may go entirely to the instantaneously best channel,
        # but PF's EWMA must spread service within a few TTIs.
        for _ in range(20):
            sim.enb.on_tti()
        served = {ue.index for ue in sim.ues if ue.rlc.buffered_sdus < 120}
        assert len(served) >= 2


class TestBacklogScan:
    """Branches of the scan the golden corpus only covers end to end."""

    def test_pending_harq_with_empty_rlc_is_active_at_level_0(self):
        sim = make_sim("outran")
        sim.enb._harq[1].on_initial_failure([], 500, 0.1, 0)
        sim.enb.on_tti()
        table = sim.enb._table
        assert not sim.ues[1].rlc.has_backlog()
        assert table.active.tolist() == [False, True, False]
        assert table.head_levels[1] == 0

    def test_am_ctrl_only_backlog_is_active_and_traces_no_head_level(self):
        from repro.mac.bsr import IDLE_LEVEL
        from repro.rlc.am import AmStatus

        sim = make_sim("outran", rlc_mode="am", harq_enabled=False)
        trace, table = sim.enable_trace(), sim.enb._table
        sim.ues[1].rlc.queue_control(AmStatus(ack_sn=0))
        ingress_packet(sim, ue_index=2)
        sim.enb.on_tti()
        assert table.active.tolist() == [False, True, True]
        assert table.head_levels[1] == IDLE_LEVEL
        assert trace.head_levels.tolist() == [[-1, -1, 0]]


class TestOracleWiring:
    def test_srjf_sees_remaining_bytes(self):
        from repro.traffic.generator import FlowSpec

        cfg = SimConfig.lte_default(num_ues=2, seed=1)
        sim = CellSimulation(cfg, scheduler="srjf", flows=[])
        spec = FlowSpec(0, 0, 50_000, 1_000)
        sim.engine.schedule_at(1_000, sim._start_flow, spec)
        sim.engine.run_until(40_000)
        sim.enb.on_tti()
        remaining = sim.enb._table.remaining_flow
        assert 0 < remaining[0] <= 50_000 and np.isinf(remaining[1])

    def test_qos_oracle_marks_short_flows(self):
        from repro.traffic.generator import FlowSpec

        cfg = SimConfig.lte_default(num_ues=2, seed=1)
        sim = CellSimulation(cfg, scheduler="cqa", flows=[])
        spec = FlowSpec(0, 0, 5_000, 1_000, qos_short=True)
        sim.engine.schedule_at(1_000, sim._start_flow, spec)
        sim.engine.run_until(40_000)
        sim.enb.on_tti()
        assert sim.enb._table.qos_deadline_flows.tolist() == [1, 0]

    def test_wrappers_forward_the_inner_schedulers_oracle(self):
        from repro.core.outran import OutranScheduler
        from repro.mac.gbr import GbrReservingScheduler
        from repro.mac.srjf import SrjfScheduler

        assert make_sim("pf").scheduler.oracle_columns == ()
        assert make_sim("outran").scheduler.oracle_columns == ()
        wrapped = GbrReservingScheduler(OutranScheduler(SrjfScheduler()), {})
        assert wrapped.oracle_columns == SrjfScheduler.oracle_columns
        assert make_sim(wrapped).enb._oracle
        assert not make_sim(wrapped).enb._qos_oracle
        assert make_sim("pss").enb._qos_oracle


class TestOneFeed:
    """Every scheduler is fed the xNodeB's one table, built once per cell."""

    @staticmethod
    def gbr_outran():
        from repro.core.outran import OutranScheduler
        from repro.mac.gbr import GbrConfig, GbrReservingScheduler

        return GbrReservingScheduler(OutranScheduler(), {0: GbrConfig(2e6)})

    @pytest.mark.parametrize("scheduler", ["pss", "gbr[outran]"])
    def test_no_table_is_built_inside_a_tti(self, scheduler, monkeypatch):
        from repro.mac import kernels
        from repro.runner.spec import RunSpec
        from repro.sim.session import SimulationSession

        built = []
        init = kernels.SchedArrays.__init__

        def counting_init(self, num_ues):
            built.append(num_ues)
            init(self, num_ues)

        monkeypatch.setattr(kernels.SchedArrays, "__init__", counting_init)
        spec = RunSpec("lte", "pss", load=0.5, seed=7, num_ues=4, duration_s=0.3)
        if scheduler == "pss":
            session = spec.session()
        else:
            session = SimulationSession.from_config(
                spec.to_config(), self.gbr_outran(), duration_s=0.3
            )
        assert built == [4]  # the XNodeB's, at construction
        result = session.start().finish()
        assert built == [4]
        assert session.sim.enb.ttis_run > 0 and result.completed_flows > 0

    def test_every_scheduler_still_takes_a_list_of_ue_states(self):
        from repro.mac.bsr import BufferStatusReport
        from repro.mac.scheduler import UeSchedState
        from repro.sim.cell import SCHEDULER_NAMES, make_scheduler

        cfg = SimConfig.lte_default(num_ues=3, seed=1)
        rates = np.asfortranarray(np.arange(1.0, 16.0).reshape(3, 5))
        for spec in (*SCHEDULER_NAMES, self.gbr_outran()):
            sched = make_scheduler(spec, cfg)
            ues = [UeSchedState(i, i) for i in range(3)]
            for ue in ues[:2]:
                ue.bsr = BufferStatusReport(ue.ue_id, total_bytes=500, head_level=0)
            owner = sched.allocate(rates, ues, 1_000)
            assert set(owner.tolist()) <= {0, 1}, sched.name
            sched.on_tti_end(ues, np.array([8e3, 0.0, 0.0]), 1_000)
            assert ues[0].ewma_bps > ues[1].ewma_bps, sched.name
