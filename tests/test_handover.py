"""Tests for handover flow-state transfer (paper section 7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flow_table import FLOW_STATE_BYTES, FlowTable
from repro.core.handover import (
    export_flow_state,
    fresh_start,
    import_flow_state,
    state_transfer_bytes,
)
from repro.core.mlfq import MlfqConfig
from repro.net.packet import FiveTuple


def table_with_flows():
    table = FlowTable(MlfqConfig(num_queues=3, thresholds=(10_000, 100_000)))
    table.observe(FiveTuple(1, 2, 443, 1000), 500, 0)       # level 0 flow
    table.observe(FiveTuple(1, 2, 443, 1001), 50_000, 0)    # level 1 flow
    table.observe(FiveTuple(1, 2, 443, 1002), 500_000, 0)   # level 2 flow
    return table


class TestExportImport:
    def test_roundtrip_preserves_levels(self):
        src = table_with_flows()
        blob = export_flow_state(src)
        dst = FlowTable(src.config)
        assert import_flow_state(dst, blob) == 3
        for port in (1000, 1001, 1002):
            ft = FiveTuple(1, 2, 443, port)
            assert dst.level_of(ft) == src.level_of(ft)
            assert dst.sent_bytes(ft) == src.sent_bytes(ft)

    def test_import_overwrites_existing(self):
        src = table_with_flows()
        dst = FlowTable(src.config)
        ft = FiveTuple(1, 2, 443, 1002)
        dst.observe(ft, 5, 0)
        import_flow_state(dst, export_flow_state(src))
        assert dst.sent_bytes(ft) == 500_000

    def test_corrupt_blob_rejected(self):
        dst = FlowTable(MlfqConfig())
        with pytest.raises(ValueError):
            import_flow_state(dst, b"\x00" * 7)

    def test_empty_table_roundtrip(self):
        dst = FlowTable(MlfqConfig())
        assert import_flow_state(dst, b"") == 0
        assert len(dst) == 0


class TestAlternatives:
    def test_fresh_start_clears_history(self):
        table = table_with_flows()
        fresh_start(table)
        assert len(table) == 0
        # A continuing long flow re-enters at the top priority.
        assert table.observe(FiveTuple(1, 2, 443, 1002), 100, 1) == 0

    def test_transfer_size_matches_paper_accounting(self):
        table = table_with_flows()
        assert state_transfer_bytes(table) == 3 * FLOW_STATE_BYTES


@settings(max_examples=30, deadline=None)
@given(
    ports=st.lists(st.integers(1, 60_000), min_size=1, max_size=20, unique=True),
    sizes=st.data(),
)
def test_property_handover_roundtrip(ports, sizes):
    """Export/import preserves every flow's level, for any flow set."""
    from repro.core.flow_table import FlowTable
    from repro.core.handover import export_flow_state, import_flow_state

    table = FlowTable(MlfqConfig())
    for port in ports:
        nbytes = sizes.draw(st.integers(0, 5_000_000))
        table.observe(FiveTuple(1, 2, 443, port), nbytes, 0)
    dst = FlowTable(MlfqConfig())
    assert import_flow_state(dst, export_flow_state(table)) == len(ports)
    for port in ports:
        ft = FiveTuple(1, 2, 443, port)
        assert dst.level_of(ft) == table.level_of(ft)
