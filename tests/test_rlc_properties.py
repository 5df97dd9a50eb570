"""Property-based tests for RLC invariants under random schedules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mlfq import MlfqConfig
from repro.net.packet import FiveTuple, Packet
from repro.rlc.am import AmReceiver, AmStatus, AmTransmitter
from repro.rlc.pdu import RLC_HEADER_BYTES, RlcPdu
from repro.rlc.um import UmReceiver, UmTransmitter

FT = FiveTuple(3, 4, 443, 7777)


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(st.integers(40, 3000), min_size=1, max_size=25),
    grants=st.lists(st.integers(50, 4000), min_size=1, max_size=60),
    levels=st.data(),
)
def test_property_um_byte_conservation(payloads, grants, levels):
    """Every enqueued byte is either still queued or left in a PDU; no
    byte is created or destroyed by segmentation/concatenation."""
    tx = UmTransmitter(0, mlfq_config=MlfqConfig(), capacity_sdus=1000)
    total_in = 0
    for i, payload in enumerate(payloads):
        level = levels.draw(st.integers(0, 3))
        sdu = tx.write_sdu(Packet(FT, i, 0, payload), level, now_us=0)
        assert sdu is not None
        total_in += sdu.size
    total_out = 0
    for t, grant in enumerate(grants):
        pdu = tx.build_pdu(grant, now_us=t)
        if pdu is None:
            continue
        assert pdu.wire_bytes <= grant
        total_out += pdu.payload_bytes
    assert total_out + tx.buffered_bytes == total_in


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(st.integers(40, 2500), min_size=1, max_size=15),
    grants=st.lists(st.integers(200, 5000), min_size=5, max_size=40),
)
def test_property_um_lossless_channel_delivers_everything(payloads, grants):
    """Over a lossless channel, the receiver reassembles every SDU whose
    bytes fully left the transmitter, in spite of arbitrary grant sizes."""
    delivered = []
    rx = UmReceiver(deliver=lambda sdu, now: delivered.append(sdu.packet.flow_id),
                    reassembly_window_us=10**12)
    tx = UmTransmitter(0, capacity_sdus=1000)
    for i, payload in enumerate(payloads):
        tx.write_sdu(Packet(FT, i, 0, payload), 0, 0)
    for t, grant in enumerate(grants):
        pdu = tx.build_pdu(grant, now_us=t)
        if pdu is not None:
            rx.receive_pdu(pdu, now_us=t)
    # Drain whatever is left with generous grants.
    t = len(grants)
    while tx.buffered_bytes:
        pdu = tx.build_pdu(10_000, now_us=t)
        assert pdu is not None
        rx.receive_pdu(pdu, now_us=t)
        t += 1
    assert sorted(delivered) == list(range(len(payloads)))


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(st.integers(40, 3000), min_size=1, max_size=20),
    steps=st.lists(
        st.tuples(st.integers(50, 2500), st.integers(0, 4000), st.booleans()),
        min_size=1, max_size=60,
    ),
)
def test_property_um_expiry_pops_exactly_the_expired(payloads, steps):
    """``flush_expired`` pops expired partials off the front of the dict
    and stops at the first young one.  That equals a scan of every entry
    only while dict order is first-seen order; the scan is kept here."""
    window = 5_000
    rx = UmReceiver(deliver=lambda sdu, now: None, reassembly_window_us=window)
    tx = UmTransmitter(0, capacity_sdus=1000)
    for i, payload in enumerate(payloads):
        tx.write_sdu(Packet(FT, i, 0, payload), 0, 0)
    now = 0
    scanned = 0
    for grant, dt, lost in steps:
        now += dt
        pdu = tx.build_pdu(grant, now_us=now)
        if pdu is None or lost:
            continue  # a lost PDU strands the partials it would complete
        scanned += sum(
            1 for _, _, first_seen in rx._partials.values()
            if now - first_seen > window
        )
        rx.receive_pdu(pdu, now_us=now)
        assert all(
            now - first_seen <= window
            for _, _, first_seen in rx._partials.values()
        )
        assert rx.sdus_discarded == scanned


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.0, 0.6),
    num_sdus=st.integers(1, 12),
)
def test_property_am_delivers_despite_losses(seed, loss, num_sdus):
    """AM delivers every SDU exactly once under random PDU loss -- unless
    the entity legitimately abandons a PDU after MAX_RETX consecutive
    losses (possible at the high end of the loss range), in which case
    the delivered set may be short but never contains duplicates."""
    rng = np.random.default_rng(seed)
    delivered = []
    rx = AmReceiver(
        deliver=lambda sdu, now: delivered.append(sdu.packet.flow_id),
        t_status_prohibit_us=0,
    )
    tx = AmTransmitter(0, poll_pdu=1, t_poll_retransmit_us=5_000)
    for i in range(num_sdus):
        tx.write_sdu(Packet(FT, i, 0, 800), 0, now_us=0)
    now = 0
    for _ in range(400):
        now += 1_000
        for item in tx.build_transmissions(20_000, now):
            if not isinstance(item, RlcPdu):
                continue
            if rng.random() < loss:
                continue  # lost on the air
            status = rx.receive_pdu(item, now)
            if status is not None:
                tx.receive_status(status, now)
        if len(delivered) == num_sdus and tx.unacked_count == 0:
            break
    # Never a duplicate delivery, whatever the loss pattern.
    assert len(delivered) == len(set(delivered))
    if tx.pdus_abandoned == 0:
        assert sorted(delivered) == list(range(num_sdus))
    else:
        assert set(delivered) <= set(range(num_sdus))


class RememberEverythingAmReceiver:
    """Reference: the AM receiver with a set of every SN and SDU id seen."""

    def __init__(self, t_status_prohibit_us):
        self.prohibit_us = t_status_prohibit_us
        self.sns, self.done, self.partial = set(), set(), {}
        self.delivered, self.last_status_us = [], None

    def receive_pdu(self, pdu, now_us):
        self.sns.add(pdu.sn)
        for seg in pdu.segments:
            sdu_id = seg.sdu.sdu_id
            if sdu_id in self.done:
                continue
            self.partial[sdu_id] = self.partial.get(sdu_id, 0) + seg.length
            if self.partial[sdu_id] >= seg.sdu.size:
                del self.partial[sdu_id]
                self.done.add(sdu_id)
                self.delivered.append(sdu_id)
        last = self.last_status_us
        if last is not None and now_us - last < self.prohibit_us:
            return None
        self.last_status_us = now_us
        top = max(self.sns)
        return AmStatus(
            top + 1, tuple(sn for sn in range(top) if sn not in self.sns)
        )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.0, 0.5),
    duplication=st.floats(0.0, 0.3),
    holdback=st.floats(0.0, 0.6),
    num_sdus=st.integers(1, 20),
    t_status_prohibit_us=st.sampled_from([0, 2_500]),
)
def test_property_am_receive_window_equals_remembering_everything(
    seed, loss, duplication, holdback, num_sdus, t_status_prohibit_us
):
    """The windowed receiver answers every PDU with the status, and
    delivers the SDUs, of a receiver that forgets nothing -- under loss,
    duplication, reordering and the retransmissions they provoke -- while
    remembering only the SNs received above the first gap."""
    rng = np.random.default_rng(seed)
    delivered = []
    rx = AmReceiver(
        deliver=lambda sdu, now: delivered.append(sdu.sdu_id),
        t_status_prohibit_us=t_status_prohibit_us,
    )
    reference = RememberEverythingAmReceiver(t_status_prohibit_us)
    tx = AmTransmitter(0, poll_pdu=1, t_poll_retransmit_us=5_000)
    for i in range(num_sdus):
        tx.write_sdu(Packet(FT, i, 0, int(rng.integers(40, 2500))), 0, now_us=0)
    held = []  # PDUs the channel holds back: they arrive late, reordered
    now = 0
    for _ in range(300):
        now += 1_000
        arriving = []
        for item in tx.build_transmissions(int(rng.integers(200, 4000)), now):
            if not isinstance(item, RlcPdu) or rng.random() < loss:
                continue
            for _ in range(2 if rng.random() < duplication else 1):
                (held if rng.random() < holdback else arriving).append(item)
        if held and rng.random() < 0.5:
            rng.shuffle(held)
            arriving += [held.pop() for _ in range(int(rng.integers(1, len(held) + 1)))]
        for pdu in arriving:
            status = rx.receive_pdu(pdu, now)
            assert status == reference.receive_pdu(pdu, now)
            assert len(rx._received_sns) <= max(rx._highest_sn - rx._rx_next, 0)
            assert all(sn > rx._rx_next for sn in rx._received_sns)
            if status is not None:
                tx.receive_status(status, now)
    assert delivered == reference.delivered
