"""Tests for the RLC UM transmitter and receiver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mlfq import MlfqConfig
from repro.net.packet import FiveTuple, Packet
from repro.rlc.pdu import RLC_HEADER_BYTES
from repro.rlc.um import UmReceiver, UmTransmitter

FT = FiveTuple(1, 2, 443, 1000)


def make_packet(payload=1400, flow_id=0):
    return Packet(FT, flow_id, seq=0, payload_bytes=payload)


class TestWriteSdu:
    def test_returns_sdu_on_success(self):
        tx = UmTransmitter(0)
        sdu = tx.write_sdu(make_packet(), level=0, now_us=0)
        assert sdu is not None
        assert sdu.size == 1440  # payload + 40 B headers

    def test_overflow_drops_incoming(self):
        tx = UmTransmitter(0, capacity_sdus=2)
        assert tx.write_sdu(make_packet(), 0, 0) is not None
        assert tx.write_sdu(make_packet(), 0, 0) is not None
        assert tx.write_sdu(make_packet(), 0, 0) is None
        assert tx.sdus_dropped == 1
        assert tx.buffered_sdus == 2

    def test_drop_callback_invoked(self):
        dropped = []
        tx = UmTransmitter(0, capacity_sdus=1, on_sdu_dropped=dropped.append)
        tx.write_sdu(make_packet(), 0, 0)
        tx.write_sdu(make_packet(), 0, 0)
        assert len(dropped) == 1

    def test_mlfq_levels_respected(self):
        config = MlfqConfig(num_queues=2, thresholds=(1000,))
        tx = UmTransmitter(0, mlfq_config=config)
        tx.write_sdu(make_packet(flow_id=1), level=1, now_us=0)
        tx.write_sdu(make_packet(flow_id=2), level=0, now_us=0)
        pdu = tx.build_pdu(10_000, 0)
        assert pdu.segments[0].sdu.packet.flow_id == 2


class TestBuildPdu:
    def test_whole_sdus_concatenated(self):
        tx = UmTransmitter(0)
        for _ in range(3):
            tx.write_sdu(make_packet(500), 0, 0)
        pdu = tx.build_pdu(5_000, 0)
        assert len(pdu.segments) == 3
        assert all(s.is_first and s.is_last for s in pdu.segments)
        assert tx.buffered_sdus == 0

    def test_respects_grant(self):
        tx = UmTransmitter(0)
        for _ in range(10):
            tx.write_sdu(make_packet(1400), 0, 0)
        pdu = tx.build_pdu(3_000, 0)
        assert pdu.wire_bytes <= 3_000

    def test_segmentation_of_head_sdu(self):
        tx = UmTransmitter(0)
        tx.write_sdu(make_packet(1400), 0, 0)
        pdu = tx.build_pdu(700, 0)
        assert len(pdu.segments) == 1
        seg = pdu.segments[0]
        assert seg.is_first and not seg.is_last
        assert seg.length == 700 - RLC_HEADER_BYTES

    def test_segment_remainder_promoted_by_default(self):
        config = MlfqConfig(num_queues=2, thresholds=(1000,))
        tx = UmTransmitter(0, mlfq_config=config, promote_segments=True)
        tx.write_sdu(make_packet(1400, flow_id=1), level=1, now_us=0)
        tx.build_pdu(700, 0)
        # A fresh high-priority arrival must NOT beat the promoted segment.
        tx.write_sdu(make_packet(100, flow_id=2), level=0, now_us=1)
        pdu = tx.build_pdu(10_000, 1)
        assert pdu.segments[0].sdu.packet.flow_id == 1
        assert pdu.segments[0].is_last

    def test_strict_mode_lets_higher_priority_overtake_segment(self):
        """The section 4.4 failure mode promote_segments fixes."""
        config = MlfqConfig(num_queues=2, thresholds=(1000,))
        tx = UmTransmitter(0, mlfq_config=config, promote_segments=False)
        tx.write_sdu(make_packet(1400, flow_id=1), level=1, now_us=0)
        tx.build_pdu(700, 0)
        tx.write_sdu(make_packet(100, flow_id=2), level=0, now_us=1)
        pdu = tx.build_pdu(10_000, 1)
        assert pdu.segments[0].sdu.packet.flow_id == 2

    def test_tiny_grant_returns_none(self):
        tx = UmTransmitter(0)
        tx.write_sdu(make_packet(1400), 0, 0)
        assert tx.build_pdu(5, 0) is None
        assert tx.buffered_sdus == 1

    def test_empty_queue_returns_none(self):
        tx = UmTransmitter(0)
        assert tx.build_pdu(10_000, 0) is None

    def test_dequeue_callback_reports_delay(self):
        delays = []
        tx = UmTransmitter(0, on_sdu_dequeued=lambda sdu, d: delays.append(d))
        tx.write_sdu(make_packet(500), 0, now_us=1_000)
        tx.build_pdu(10_000, now_us=4_000)
        assert delays == [3_000]

    def test_first_tx_hook_fires_once_per_sdu(self):
        first = []
        tx = UmTransmitter(0, on_sdu_first_tx=first.append)
        tx.write_sdu(make_packet(1400), 0, 0)
        tx.build_pdu(700, 0)   # first segment
        tx.build_pdu(10_000, 1)  # remainder
        assert len(first) == 1


class TestBufferStatus:
    def test_reports_priority_attribute(self):
        config = MlfqConfig(num_queues=4, thresholds=(1, 2, 3))
        tx = UmTransmitter(0, mlfq_config=config)
        tx.write_sdu(make_packet(100), level=2, now_us=0)
        bsr = tx.buffer_status(now_us=5_000)
        assert bsr.head_level == 2
        assert bsr.total_bytes == 140

    def test_empty_buffer_report(self):
        tx = UmTransmitter(0)
        bsr = tx.buffer_status(0)
        assert not bsr.has_data
        assert bsr.head_level is None

    def test_boost_priorities(self):
        config = MlfqConfig(num_queues=2, thresholds=(1000,))
        tx = UmTransmitter(0, mlfq_config=config)
        tx.write_sdu(make_packet(100), level=1, now_us=0)
        tx.boost_priorities()
        assert tx.buffer_status(0).head_level == 0


class TestUmReceiver:
    def _wire(self, **kwargs):
        delivered = []
        rx = UmReceiver(deliver=lambda sdu, now: delivered.append(sdu), **kwargs)
        return rx, delivered

    def test_whole_sdu_delivered_immediately(self):
        rx, delivered = self._wire()
        tx = UmTransmitter(0)
        tx.write_sdu(make_packet(500), 0, 0)
        rx.receive_pdu(tx.build_pdu(10_000, 0), now_us=100)
        assert len(delivered) == 1
        assert rx.sdus_delivered == 1

    def test_segmented_sdu_delivered_after_all_segments(self):
        rx, delivered = self._wire()
        tx = UmTransmitter(0)
        tx.write_sdu(make_packet(1400), 0, 0)
        rx.receive_pdu(tx.build_pdu(700, 0), now_us=100)
        assert delivered == []
        assert rx.pending_partials == 1
        rx.receive_pdu(tx.build_pdu(10_000, 1), now_us=200)
        assert len(delivered) == 1
        assert rx.pending_partials == 0

    def test_reassembly_window_discard(self):
        rx, delivered = self._wire(reassembly_window_us=1_000)
        tx = UmTransmitter(0)
        tx.write_sdu(make_packet(1400), 0, 0)
        rx.receive_pdu(tx.build_pdu(700, 0), now_us=0)
        # Remainder arrives too late: SDU discarded, nothing delivered.
        assert rx.flush_expired(now_us=5_000) == 1
        rx.receive_pdu(tx.build_pdu(10_000, 1), now_us=5_000)
        assert delivered == []
        assert rx.sdus_discarded == 1

    def test_lost_middle_tb_leaves_partial(self):
        rx, delivered = self._wire()
        tx = UmTransmitter(0)
        tx.write_sdu(make_packet(4200), 0, 0)
        first = tx.build_pdu(1_000, 0)
        lost = tx.build_pdu(1_000, 1)  # never delivered
        last = tx.build_pdu(10_000, 2)
        rx.receive_pdu(first, 10)
        rx.receive_pdu(last, 20)
        assert delivered == []
        assert rx.pending_partials == 1


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(40, 3000), st.integers(0, 3)),
            st.tuples(st.just("build"), st.integers(0, 4000)),
        ),
        max_size=60,
    )
)
def test_property_backlog_scan_matches_report(steps):
    """The xNodeB's scan (``has_backlog`` + the Tx Q's head level) says
    what the buffer status report says, through drops and segmentation."""
    config = MlfqConfig(num_queues=4, thresholds=(1_000, 10_000, 100_000))
    tx = UmTransmitter(
        0, mlfq_config=config, capacity_sdus=6, overflow_policy="drop_lowest"
    )
    for now, step in enumerate(steps):
        if step[0] == "write":
            tx.write_sdu(make_packet(step[1]), step[2], now)
        else:
            tx.build_transmissions(step[1], now)
        bsr = tx.buffer_status(now)
        assert tx.has_backlog() == bsr.has_data
        assert bsr.head_level == tx.queue.head_level()
