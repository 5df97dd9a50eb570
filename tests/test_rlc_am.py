"""Tests for the RLC AM entities (retransmission machinery)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mlfq import MlfqConfig
from repro.net.packet import FiveTuple, Packet
from repro.rlc.am import (
    AmReceiver,
    AmStatus,
    AmTransmitter,
    MAX_RETX,
    STATUS_PDU_BYTES,
)
from repro.rlc.pdu import RlcPdu

FT = FiveTuple(1, 2, 443, 2000)


def make_packet(payload=1000, flow_id=0):
    return Packet(FT, flow_id, seq=0, payload_bytes=payload)


def drain(tx, grant=100_000, now=0):
    return tx.build_transmissions(grant, now)


class TestSequenceNumbers:
    def test_pdus_get_increasing_sns(self):
        tx = AmTransmitter(0)
        sns = []
        for i in range(3):
            tx.write_sdu(make_packet(), 0, i)
            items = drain(tx, now=i)
            sns.extend(p.sn for p in items if isinstance(p, RlcPdu))
        assert sns == [0, 1, 2]

    def test_unacked_tracked(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        drain(tx)
        assert tx.unacked_count == 1


class TestQueuePriorities:
    def test_ctrl_served_before_data(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        tx.queue_control(AmStatus(ack_sn=5))
        items = drain(tx)
        assert isinstance(items[0], AmStatus)
        assert isinstance(items[1], RlcPdu)

    def test_retx_served_before_new_data(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        drain(tx)  # sn 0 out
        tx.receive_status(AmStatus(ack_sn=1, nacks=(0,)), 100)
        tx.write_sdu(make_packet(flow_id=9), 0, 100)
        items = drain(tx, now=100)
        assert isinstance(items[0], RlcPdu) and items[0].is_retx
        assert items[0].sn == 0
        assert items[1].sn == 1  # new data afterwards

    def test_retx_deferred_when_grant_too_small(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(5000), 0, 0)
        drain(tx)
        tx.receive_status(AmStatus(ack_sn=1, nacks=(0,)), 100)
        items = tx.build_transmissions(200, 100)
        assert items == []  # retx PDU does not fit, nothing else to send


class TestStatusProcessing:
    def test_cumulative_ack_clears_unacked(self):
        tx = AmTransmitter(0)
        for i in range(3):
            tx.write_sdu(make_packet(), 0, i)
            drain(tx, now=i)
        tx.receive_status(AmStatus(ack_sn=3), 10)
        assert tx.unacked_count == 0

    def test_nack_schedules_retx_once(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        drain(tx)
        tx.receive_status(AmStatus(ack_sn=1, nacks=(0,)), 10)
        tx.receive_status(AmStatus(ack_sn=1, nacks=(0,)), 30_000)
        items = drain(tx, now=40_000)
        retx = [p for p in items if isinstance(p, RlcPdu) and p.is_retx]
        assert len(retx) == 1
        assert tx.retx_transmissions == 1

    def test_abandon_after_max_retx(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        drain(tx)
        for i in range(MAX_RETX + 1):
            tx.receive_status(AmStatus(ack_sn=1, nacks=(0,)), i)
            drain(tx, now=i)
        assert tx.pdus_abandoned == 1
        assert tx.unacked_count == 0


class TestPollTimer:
    def test_unanswered_poll_triggers_spurious_retx(self):
        tx = AmTransmitter(0, poll_pdu=1, t_poll_retransmit_us=10_000)
        tx.write_sdu(make_packet(), 0, 0)
        drain(tx, now=0)  # poll outstanding from now
        items = drain(tx, now=20_000)  # timer expired
        retx = [p for p in items if isinstance(p, RlcPdu) and p.is_retx]
        assert len(retx) == 1
        assert tx.spurious_retx == 1

    def test_status_cancels_poll_timer(self):
        tx = AmTransmitter(0, poll_pdu=1, t_poll_retransmit_us=10_000)
        tx.write_sdu(make_packet(), 0, 0)
        drain(tx, now=0)
        tx.receive_status(AmStatus(ack_sn=1), 5_000)
        items = drain(tx, now=20_000)
        assert tx.spurious_retx == 0
        assert items == []


class TestBufferStatus:
    def test_reports_retx_and_ctrl_bytes(self):
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        (pdu,) = drain(tx)
        tx.receive_status(AmStatus(ack_sn=1, nacks=(0,)), 10)
        tx.queue_control(AmStatus(ack_sn=0))
        sdu = tx.write_sdu(make_packet(500), 0, 15)
        bsr = tx.buffer_status(20)
        # The data volume is Tx + Retx + Ctrl, the TS 38.322 figure.
        assert bsr.total_bytes == sdu.size + pdu.wire_bytes + STATUS_PDU_BYTES
        assert bsr.has_data and tx.has_backlog()

    def test_mlfq_priority_passthrough(self):
        config = MlfqConfig(num_queues=2, thresholds=(100,))
        tx = AmTransmitter(0, mlfq_config=config)
        tx.write_sdu(make_packet(), level=1, now_us=0)
        assert tx.buffer_status(0).head_level == 1


class TestAmReceiver:
    def _wire(self, **kwargs):
        delivered = []
        rx = AmReceiver(deliver=lambda sdu, now: delivered.append(sdu), **kwargs)
        return rx, delivered

    def test_delivers_complete_sdus(self):
        rx, delivered = self._wire()
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        for item in drain(tx):
            rx.receive_pdu(item, 10)
        assert len(delivered) == 1

    def test_gap_produces_nack(self):
        rx, _ = self._wire(t_status_prohibit_us=0)
        tx = AmTransmitter(0)
        pdus = []
        for i in range(3):
            tx.write_sdu(make_packet(), 0, i)
            pdus.extend(p for p in drain(tx, now=i) if isinstance(p, RlcPdu))
        rx.receive_pdu(pdus[0], 10)
        status = rx.receive_pdu(pdus[2], 20)  # sn 1 lost
        assert status is not None
        assert 1 in status.nacks
        assert status.ack_sn == 3

    def test_status_prohibit_suppresses_back_to_back_status(self):
        rx, _ = self._wire(t_status_prohibit_us=50_000)
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        tx.write_sdu(make_packet(), 0, 0)
        pdus = [p for p in drain(tx) if isinstance(p, RlcPdu)]
        assert rx.receive_pdu(pdus[0], 10) is not None
        assert rx.receive_pdu(pdus[0], 20) is None  # prohibited

    def test_duplicate_retx_not_delivered_twice(self):
        rx, delivered = self._wire(t_status_prohibit_us=0)
        tx = AmTransmitter(0)
        tx.write_sdu(make_packet(), 0, 0)
        pdu = [p for p in drain(tx) if isinstance(p, RlcPdu)][0]
        rx.receive_pdu(pdu, 10)
        rx.receive_pdu(pdu, 20)
        assert len(delivered) == 1

    def test_end_to_end_loss_recovery(self):
        """Lost PDU is NACKed, retransmitted, and finally delivered."""
        rx, delivered = self._wire(t_status_prohibit_us=0)
        tx = AmTransmitter(0)
        pdus = []
        for i in range(2):
            tx.write_sdu(make_packet(flow_id=i), 0, i)
            pdus.extend(p for p in drain(tx, now=i) if isinstance(p, RlcPdu))
        # First PDU lost on the air; second arrives and reports the gap.
        status = rx.receive_pdu(pdus[1], 10)
        tx.receive_status(status, 20)
        retx = [p for p in drain(tx, now=30) if isinstance(p, RlcPdu)]
        assert retx and retx[0].is_retx
        rx.receive_pdu(retx[0], 40)
        assert len(delivered) == 2


#: One step of a random AM schedule: enqueue, grant, peer STATUS (its
#: cumulative ACK as a fraction of the SNs sent, NACKs as a bit mask of
#: the eight SNs below it), an owed control PDU, or the clock moving on
#: (past t-PollRetransmit when the step is large enough).
AM_STEP = st.one_of(
    st.tuples(st.just("write"), st.integers(40, 3000), st.integers(0, 3)),
    st.tuples(st.just("build"), st.integers(0, 4000)),
    st.tuples(st.just("status"), st.floats(0.0, 1.0), st.integers(0, 255)),
    st.tuples(st.just("ctrl")),
    st.tuples(st.just("wait"), st.integers(1, 12_000)),
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(AM_STEP, max_size=60))
def test_property_backlog_scan_matches_report(steps):
    """The xNodeB's scan (``has_backlog`` + the Tx Q's head level) says
    what the buffer status report says, whatever the three queues hold."""
    config = MlfqConfig(num_queues=4, thresholds=(1_000, 10_000, 100_000))
    tx = AmTransmitter(
        0,
        mlfq_config=config,
        capacity_sdus=6,
        overflow_policy="drop_lowest",
        poll_pdu=1,
        t_poll_retransmit_us=5_000,
    )
    now = 0
    for step in steps:
        kind = step[0]
        if kind == "write":
            tx.write_sdu(make_packet(step[1]), step[2], now)
        elif kind == "build":
            drain(tx, grant=step[1], now=now)
        elif kind == "status":
            ack_sn = round(step[1] * tx._next_sn)
            below = range(max(ack_sn - 8, 0), ack_sn)
            nacks = tuple(sn for i, sn in enumerate(below) if step[2] >> i & 1)
            tx.receive_status(AmStatus(ack_sn=ack_sn, nacks=nacks), now)
        elif kind == "ctrl":
            tx.queue_control(AmStatus(ack_sn=0))
        else:
            now += step[1]
        bsr = tx.buffer_status(now)
        assert tx.has_backlog() == bsr.has_data
        assert bsr.head_level == tx.queue.head_level()
