"""End-to-end integration tests for the cell simulation.

These keep scenarios small (few UEs, a couple of seconds) so the whole
module runs in seconds, while still exercising the complete stack:
TCP senders -> core network -> PDCP -> RLC -> MAC scheduler -> channel ->
UE receivers -> ACK path.
"""

import numpy as np
import pytest

from repro import CellSimulation, SimConfig
from repro.core.outran import OutranScheduler
from repro.sim.cell import make_scheduler
from repro.sim.config import TrafficSpec
from repro.traffic.generator import FlowSpec


def small_config(**kwargs):
    defaults = dict(num_ues=4, load=0.4, seed=11)
    defaults.update(kwargs)
    return SimConfig.lte_default(**defaults)


def run(scheduler="pf", duration=1.5, flows=None, **cfg_kwargs):
    sim = CellSimulation(small_config(**cfg_kwargs), scheduler=scheduler, flows=flows)
    return sim, sim.run(duration_s=duration)


ALL_SCHEDULERS = ["pf", "mt", "rr", "srjf", "pss", "cqa", "outran", "mlfq_strict"]


class TestSchedulerFactory:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_known_names(self, name):
        sched = make_scheduler(name, small_config())
        assert sched is not None

    def test_outran_with_epsilon(self):
        sched = make_scheduler("outran:0.4", small_config())
        assert isinstance(sched, OutranScheduler)
        assert sched.epsilon == 0.4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("edf", small_config())

    def test_instance_passthrough(self):
        instance = OutranScheduler()
        assert make_scheduler(instance, small_config()) is instance


class TestBasicRuns:
    @pytest.mark.parametrize("name", ["pf", "outran", "srjf"])
    def test_flows_complete(self, name):
        _, res = run(name)
        assert res.completed_flows > 0
        assert res.censored_flows <= res.completed_flows

    def test_fcts_positive_and_bounded(self):
        _, res = run("pf")
        fcts = res.fcts_ms()
        assert (fcts > 0).all()
        assert fcts.min() >= 10.0  # at least the one-way wired delay

    def test_spectral_efficiency_sane(self):
        _, res = run("pf")
        assert 0.0 < res.mean_se() < 8.0  # below 256QAM peak efficiency

    def test_fairness_in_unit_interval(self):
        _, res = run("pf")
        assert 0.0 < res.mean_fairness() <= 1.0

    def test_deterministic_for_seed(self):
        _, res_a = run("outran")
        _, res_b = run("outran")
        assert res_a.completed_flows == res_b.completed_flows
        assert np.allclose(res_a.fcts_ms(), res_b.fcts_ms())

    def test_different_seeds_differ(self):
        _, res_a = run("pf", seed=1)
        _, res_b = run("pf", seed=2)
        assert not np.array_equal(res_a.fcts_ms(), res_b.fcts_ms())

    def test_no_decipher_failures_with_delayed_sn(self):
        _, res = run("outran")
        assert res.decipher_failures == 0

    def test_invalid_duration(self):
        sim = CellSimulation(small_config())
        with pytest.raises(ValueError):
            sim.run(duration_s=0)


class TestProvidedFlows:
    def test_explicit_flow_list_respected(self):
        flows = [
            FlowSpec(flow_id=0, ue_index=0, size_bytes=5_000, start_us=10_000),
            FlowSpec(flow_id=1, ue_index=1, size_bytes=80_000, start_us=20_000),
        ]
        sim, res = run("pf", flows=flows)
        assert res.completed_flows == 2
        buckets = sorted(r.bucket for r in res.records)
        assert buckets == ["M", "S"]

    def test_single_flow_fct_close_to_unloaded_floor(self):
        flows = [FlowSpec(flow_id=0, ue_index=0, size_bytes=2_000, start_us=0)]
        _, res = run("pf", flows=flows)
        # One-way: 10 ms wire + ~5 ms radio; no queueing competition.
        assert res.avg_fct_ms() < 30.0

    def test_flow_id_of_a_retired_flow_stays_taken(self):
        """An id is used up for the run, not only while its flow lives."""
        spec = FlowSpec(flow_id=0, ue_index=0, size_bytes=2_000, start_us=0)
        sim, res = run("pf", flows=[spec])
        assert res.completed_flows == 1
        assert 0 not in sim._runtimes  # finished and retired
        with pytest.raises(ValueError, match="flow id 0 already in use"):
            sim.start_flow(spec)


class TestRlcAmMode:
    def test_am_mode_completes_flows(self):
        _, res = run("pf", rlc_mode="am")
        assert res.completed_flows > 0

    def test_am_recovers_radio_losses(self):
        sim, res = run("outran", rlc_mode="am", radio_bler=0.05, duration=2.0,
                       harq_enabled=False)
        assert res.completed_flows > 0
        assert sim.enb.tbs_lost > 0
        retx = sum(ue.rlc.retx_transmissions for ue in sim.ues)
        assert retx > 0

    def test_um_with_bler_still_completes_via_tcp(self):
        sim, res = run("pf", radio_bler=0.03, duration=2.5, harq_enabled=False)
        assert sim.enb.tbs_lost > 0
        assert res.completed_flows > 0


class TestOutranMechanics:
    def test_outran_uses_mlfq_buffers(self):
        sim, _ = run("outran")
        assert sim.ues[0].flow_table.config.num_queues == 4

    def test_legacy_uses_fifo_buffers(self):
        sim, _ = run("pf")
        assert sim.ues[0].flow_table.config.num_queues == 1

    def test_use_mlfq_override(self):
        sim, _ = run("pf", use_mlfq=True)
        assert sim.ues[0].flow_table.config.num_queues == 4

    def test_priority_reset_runs(self):
        sim, res = run("outran", priority_reset_period_us=200_000)
        assert res.completed_flows > 0

    def test_eager_sn_with_mlfq_causes_decipher_failures(self):
        """Why OutRAN delays SN numbering: eager numbering plus MLFQ
        reordering desynchronizes the cipher counter."""
        flows = []
        fid = 0
        # A long flow and a stream of later shorts on the same UE force
        # the MLFQ to transmit newer (high-priority) SDUs before older
        # queued low-priority ones.
        flows.append(FlowSpec(fid, 0, 400_000, 0))
        for i in range(30):
            fid += 1
            flows.append(FlowSpec(fid, 0, 3_000, 50_000 + i * 30_000))
        _, res = run(
            "outran", flows=flows, duration=2.0,
            delayed_sn=False, pdcp_reorder_window=4,
        )
        assert res.decipher_failures > 0

    def test_delayed_sn_same_workload_no_failures(self):
        flows = [FlowSpec(0, 0, 400_000, 0)]
        for i in range(30):
            flows.append(FlowSpec(i + 1, 0, 3_000, 50_000 + i * 30_000))
        _, res = run("outran", flows=flows, duration=2.0, delayed_sn=True)
        assert res.decipher_failures == 0


class TestWorkloadKinds:
    def test_incast_traffic_spec(self):
        cfg = small_config().with_overrides(
            traffic=TrafficSpec(distribution="lte_cellular", load=0.5, kind="incast")
        )
        sim = CellSimulation(cfg, scheduler="outran")
        res = sim.run(duration_s=1.5)
        assert res.completed_flows > 0

    def test_nr_config_runs(self):
        cfg = SimConfig.nr_default(mu=1, num_ues=4, load=0.3, seed=5)
        sim = CellSimulation(cfg, scheduler="outran")
        res = sim.run(duration_s=0.8)
        assert res.completed_flows > 0
        assert cfg.tti_us == 500

    def test_nr_mu3_short_slots(self):
        cfg = SimConfig.nr_default(mu=3, num_ues=3, load=0.3, seed=5)
        sim = CellSimulation(cfg, scheduler="pf")
        res = sim.run(duration_s=0.5)
        assert sim.enb.ttis_run >= 0.5e6 / 125 * 0.9

    def test_mec_placement_reduces_rtt(self):
        remote = SimConfig.nr_default(mu=1, num_ues=3, load=0.3, seed=5, mec=False)
        mec = SimConfig.nr_default(mu=1, num_ues=3, load=0.3, seed=5, mec=True)
        r_remote = CellSimulation(remote, "pf").run(duration_s=1.0)
        r_mec = CellSimulation(mec, "pf").run(duration_s=1.0)
        assert r_mec.mean_rtt_ms() < r_remote.mean_rtt_ms()


class TestCapacity:
    def test_capacity_scaled(self):
        sim = CellSimulation(small_config())
        assert sim.capacity_bps() == pytest.approx(
            sim.peak_capacity_bps() * sim.config.capacity_scale
        )
        assert sim.capacity_bps() < sim.peak_capacity_bps()

    def test_capacity_deterministic(self):
        a = CellSimulation(small_config()).capacity_bps()
        b = CellSimulation(small_config()).capacity_bps()
        assert a == b
