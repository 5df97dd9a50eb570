"""Deeper TCP behaviours: backoff, recovery paths, pathological pipes."""

import pytest

from repro.net.packet import DEFAULT_MSS, FiveTuple, Packet
from repro.net.tcp import TcpFlow, TcpReceiver
from repro.sim.engine import EventEngine

FT = FiveTuple(9, 9, 443, 9999)


class LossyPipe:
    """Pipe that drops the first ``drop_first`` data transmissions."""

    def __init__(self, engine, drop_first=0, one_way_us=5_000):
        self.engine = engine
        self.one_way_us = one_way_us
        self.drop_remaining = drop_first
        self.receiver = None
        self.sender = None
        self.transmissions = 0

    def route_data(self, packet):
        self.transmissions += 1
        if self.drop_remaining > 0:
            self.drop_remaining -= 1
            return
        self.engine.schedule_in(
            self.one_way_us,
            lambda: self.receiver.on_data(packet, self.engine.now_us),
        )

    def route_ack(self, ack):
        self.engine.schedule_in(
            self.one_way_us, self.sender.on_ack, ack.ack_seq
        )


def build(size, drop_first=0):
    engine = EventEngine()
    pipe = LossyPipe(engine, drop_first)
    receiver = TcpReceiver(0, FT, size, send_ack=pipe.route_ack)
    pipe.receiver = receiver
    sender = TcpFlow(engine, 0, FT, size, route_data=pipe.route_data,
                     initial_cwnd_segments=4)
    pipe.sender = sender
    return engine, sender, receiver, pipe


class TestRtoBackoff:
    def test_backoff_doubles_on_repeated_rto(self):
        engine, sender, receiver, pipe = build(DEFAULT_MSS, drop_first=3)
        sender.start()
        engine.run_until(10_000_000)
        assert receiver.complete
        assert sender.retransmits >= 2  # needed multiple RTOs

    def test_backoff_capped(self):
        engine, sender, _, _ = build(DEFAULT_MSS)
        sender.rto_backoff = 64
        sender._on_rto()
        assert sender.rto_backoff == 64  # stays at the cap

    def test_backoff_resets_after_progress(self):
        engine, sender, receiver, pipe = build(2 * DEFAULT_MSS, drop_first=1)
        sender.start()
        engine.run_until(10_000_000)
        assert receiver.complete
        assert sender.rto_backoff == 1


class TestRecoveryPaths:
    def test_newreno_partial_ack_retransmits_next_hole(self):
        """Two losses in one window: recovery must fill both holes
        without a second fast-retransmit trigger."""
        engine = EventEngine()
        pipe = LossyPipe(engine)
        size = 10 * DEFAULT_MSS
        receiver = TcpReceiver(0, FT, size, send_ack=pipe.route_ack)
        pipe.receiver = receiver
        sender = TcpFlow(engine, 0, FT, size, route_data=pipe.route_data,
                         initial_cwnd_segments=10)
        pipe.sender = sender
        # Drop segments 2 and 5 (first transmissions only).
        drops = {2 * DEFAULT_MSS, 5 * DEFAULT_MSS}
        original_route = pipe.route_data

        def selective(packet):
            if packet.seq in drops and not packet.is_retx:
                drops.discard(packet.seq)
                return
            original_route(packet)

        sender.route_data = selective
        sender.start()
        engine.run_until(30_000_000)
        assert receiver.complete
        assert sender.retransmits >= 2

    def test_sender_ignores_acks_after_done(self):
        engine, sender, receiver, pipe = build(DEFAULT_MSS)
        sender.start()
        engine.run_until(1_000_000)
        assert sender.done
        sender.on_ack(DEFAULT_MSS)  # stray duplicate ACK: no crash
        assert sender.done

    def test_inflight_never_negative(self):
        engine, sender, receiver, pipe = build(20 * DEFAULT_MSS, drop_first=2)
        sender.start()
        engine.run_until(30_000_000)
        assert sender.inflight_bytes >= 0
        assert receiver.complete


class TestRttEstimator:
    def test_rto_tracks_rtt_scale(self):
        engine, sender, receiver, _ = build(30 * DEFAULT_MSS)
        sender.start()
        engine.run_until(10_000_000)
        # One-way 5 ms => RTT 10 ms; RTO floors at min_rto (200 ms).
        assert sender.srtt_us == pytest.approx(10_000, rel=0.3)
        assert sender.rto_us == sender.min_rto_us

    def test_no_rtt_sample_from_retransmission(self):
        """Karn's algorithm: retransmitted segments never feed SRTT."""
        engine, sender, receiver, pipe = build(DEFAULT_MSS, drop_first=1)
        sender.start()
        engine.run_until(10_000_000)
        # Only retransmissions delivered -> either no sample at all or a
        # sane one from a later fresh segment (here: none exist).
        assert sender.srtt_us is None or sender.srtt_us < 10_000_000


class TestPacketModel:
    def test_wire_bytes_includes_headers(self):
        packet = Packet(FT, 0, 0, 1000)
        assert packet.wire_bytes == 1040

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(FT, 0, 0, -1)

    def test_five_tuple_reverse(self):
        rev = FT.reversed()
        assert rev.src_ip == FT.dst_ip
        assert rev.dst_port == FT.src_port
        assert rev.reversed() == FT


class TestPacketEdges:
    def test_zero_payload_ack_wire_size(self):
        ack = Packet(FiveTuple(1, 2, 3, 4), 0, 0, 0, is_ack=True, ack_seq=10)
        assert ack.wire_bytes == 40  # headers only

    def test_packet_ids_unique(self):
        a = Packet(FiveTuple(1, 2, 3, 4), 0, 0, 10)
        b = Packet(FiveTuple(1, 2, 3, 4), 0, 0, 10)
        assert a.packet_id != b.packet_id
