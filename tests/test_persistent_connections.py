"""Tests for the persistent-connection (QUIC-style) limitation.

Section 4.2 "Limitation": applications reusing one five-tuple for many
short exchanges accumulate sent-bytes, so later exchanges are misfiled
into low-priority queues.  The mitigations the paper names are priority
reset (section 6.3) and -- implicitly -- treating long-idle five-tuples
as fresh flows.
"""

import pytest

from repro import CellSimulation, SimConfig
from repro.sim.ue import FLOW_IDLE_TIMEOUT_US
from repro.traffic.generator import FlowSpec


def run_streams(
    gap_us, num_streams=8, stream_bytes=30_000, duration_s=None, **cfg_kwargs
):
    """One UE fetches ``num_streams`` responses over one connection."""
    cfg = SimConfig.lte_default(num_ues=2, seed=4, **cfg_kwargs)
    flows = [
        FlowSpec(
            flow_id=i,
            ue_index=0,
            size_bytes=stream_bytes,
            start_us=1_000 + i * gap_us,
            connection=7,
        )
        for i in range(num_streams)
    ]
    sim = CellSimulation(cfg, scheduler="outran", flows=flows)
    if duration_s is None:
        duration_s = (1_000 + num_streams * gap_us) / 1e6 + 1.0
    res = sim.run(duration_s=duration_s)
    return sim, res


class TestFiveTupleReuse:
    def test_connection_flows_share_flow_table_entry(self):
        sim, res = run_streams(gap_us=100_000, num_streams=4)
        # One five-tuple despite four logical flows.
        assert len(sim.ues[0].flow_table) == 1

    def test_later_streams_demoted(self):
        """The limitation itself: stream N starts at a low level."""
        sim, _ = run_streams(gap_us=100_000, num_streams=6)
        table = sim.ues[0].flow_table
        (entry,) = table._flows.values()
        assert table.config.level_for_bytes(entry.sent_bytes) >= 2

    def test_independent_connections_not_demoted(self):
        cfg = SimConfig.lte_default(num_ues=2, seed=4)
        flows = [
            FlowSpec(i, 0, 30_000, 1_000 + i * 100_000) for i in range(6)
        ]
        sim = CellSimulation(cfg, scheduler="outran", flows=flows)
        sim.run(duration_s=1.7)
        assert len(sim.ues[0].flow_table) == 6


class TestMitigations:
    def test_idle_timeout_resets_reused_tuple(self):
        """A quiet persistent connection starts fresh on the next burst."""
        gap = FLOW_IDLE_TIMEOUT_US + 1_000_000
        # Stop 3 s after the second stream: the cell sweeps records idle
        # past the timeout, so a longer run would end with an empty table.
        sim, res = run_streams(gap_us=gap, num_streams=2, duration_s=gap / 1e6 + 1.0)
        assert res.completed_flows == 2
        table = sim.ues[0].flow_table
        (entry,) = table._flows.values()
        # Only the second stream's bytes remain counted.
        assert entry.created_us >= gap
        assert entry.sent_bytes <= 30_000 + 2_000

    def test_priority_reset_bounds_demotion(self):
        sim, _ = run_streams(
            gap_us=100_000, num_streams=6,
            priority_reset_period_us=200_000,
        )
        table = sim.ues[0].flow_table
        (entry,) = table._flows.values()
        # Reset fired between streams: counter far below 6 x 30 KB.
        assert entry.sent_bytes < 6 * 30_000

    def test_streams_complete_either_way(self):
        _, res = run_streams(gap_us=100_000, num_streams=5)
        assert res.completed_flows == 5
