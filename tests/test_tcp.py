"""Tests for the TCP-Cubic flow model over a controllable test pipe."""

import pytest

from repro.cc.cubic import CubicState
from repro.net.packet import DEFAULT_MSS, FiveTuple, Packet
from repro.net.tcp import SACK_BLOCKS, TcpFlow, TcpReceiver
from repro.sim.engine import EventEngine

FT = FiveTuple(1, 2, 443, 5000)


class Pipe:
    """Bidirectional delay pipe with optional packet drops by seq."""

    def __init__(self, engine, one_way_us=10_000, drop_seqs=()):
        self.engine = engine
        self.one_way_us = one_way_us
        self.drop_seqs = set(drop_seqs)
        self.receiver = None
        self.sender = None
        self.delivered = []

    def route_data(self, packet):
        if packet.seq in self.drop_seqs and not packet.is_retx:
            self.drop_seqs.discard(packet.seq)  # drop once
            return
        self.delivered.append(packet)
        self.engine.schedule_in(
            self.one_way_us, self.receiver.on_data, packet, 0
        )

    def route_ack(self, ack):
        self.engine.schedule_in(self.one_way_us, self.sender.on_ack, ack.ack_seq)


def run_flow(size_bytes, drop_seqs=(), one_way_us=10_000, initial_cwnd=4):
    engine = EventEngine()
    pipe = Pipe(engine, one_way_us, drop_seqs)
    done = {}
    receiver = TcpReceiver(
        0, FT, size_bytes, send_ack=pipe.route_ack,
        on_complete=lambda now: done.setdefault("at", engine.now_us),
    )

    def deliver(packet, _):
        receiver.on_data(packet, engine.now_us)

    pipe.receiver = type("R", (), {"on_data": staticmethod(deliver)})
    sender = TcpFlow(
        engine, 0, FT, size_bytes, route_data=pipe.route_data,
        initial_cwnd_segments=initial_cwnd,
    )
    pipe.sender = sender
    sender.start()
    engine.run_until(120_000_000)
    return sender, receiver, done.get("at"), pipe


class TestBasicTransfer:
    def test_single_packet_flow_takes_one_way_delay(self):
        sender, receiver, done_at, _ = run_flow(500)
        assert receiver.complete
        assert done_at == 10_000

    def test_flow_within_initial_window_single_round(self):
        # 4 segments fit the initial window: last byte after one one-way.
        sender, receiver, done_at, _ = run_flow(4 * DEFAULT_MSS)
        assert done_at == 10_000

    def test_flow_needing_two_rounds(self):
        # 8 segments with IW=4: second batch leaves after first ACKs (RTT).
        sender, receiver, done_at, _ = run_flow(8 * DEFAULT_MSS)
        assert done_at == pytest.approx(30_000, abs=200)

    def test_sender_done_after_final_ack(self):
        sender, receiver, done_at, _ = run_flow(500)
        assert sender.done
        assert sender.remaining_bytes == 0

    def test_large_flow_completes(self):
        sender, receiver, done_at, _ = run_flow(500_000)
        assert receiver.complete
        assert receiver.bytes_received == 500_000

    def test_invalid_size_rejected(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            TcpFlow(engine, 0, FT, 0, route_data=lambda p: None)


class TestSlowStart:
    def test_cwnd_doubles_per_round(self):
        sender, _, _, pipe = run_flow(60 * DEFAULT_MSS)
        # After completion cwnd grew well beyond the initial window.
        assert sender.cwnd_bytes > 8 * DEFAULT_MSS

    def test_rtt_estimated(self):
        sender, _, _, _ = run_flow(8 * DEFAULT_MSS)
        assert sender.srtt_us == pytest.approx(20_000, rel=0.2)


class TestLossRecovery:
    def test_fast_retransmit_repairs_single_loss(self):
        # Drop one middle segment of a 12-segment flow; dupacks trigger
        # fast retransmit, no RTO needed.
        drop = 5 * DEFAULT_MSS
        sender, receiver, done_at, _ = run_flow(
            12 * DEFAULT_MSS, drop_seqs=(drop,), initial_cwnd=12
        )
        assert receiver.complete
        assert sender.retransmits >= 1
        assert done_at < 200_000  # well under RTO

    def test_loss_reduces_cwnd(self):
        drop = 5 * DEFAULT_MSS
        sender, _, _, _ = run_flow(
            12 * DEFAULT_MSS, drop_seqs=(drop,), initial_cwnd=12
        )
        assert sender.cc.cubic.ssthresh_bytes < 1e12  # recovery entered

    def test_rto_recovers_tail_loss(self):
        # Drop the final segment: no dupacks possible, RTO must fire.
        size = 4 * DEFAULT_MSS
        drop = 3 * DEFAULT_MSS
        sender, receiver, done_at, _ = run_flow(size, drop_seqs=(drop,))
        assert receiver.complete
        assert done_at > 200_000  # paid the RTO

    def test_lost_repair_is_retried_only_past_retry_after(self):
        """A hole repaired at ``t`` goes out again only once the clock is
        past ``t + int(1.5 * srtt_us)``: not at that microsecond, but at
        the next one."""
        engine = EventEngine()
        sent = []
        sender = TcpFlow(
            engine, 0, FT, 8 * DEFAULT_MSS, route_data=sent.append,
            initial_cwnd_segments=4,
        )
        sender.start()  # segments 0-3 go out; segment 0 is lost
        sack = ((DEFAULT_MSS, 4 * DEFAULT_MSS),)
        engine.run_until(1_000)
        for _ in range(3):  # the third dupack repairs segment 0
            sender.on_ack(0, sack)
        sender.srtt_us = 10_000.5  # retry_after = int(15_000.75) = 15_000

        def repairs():
            return [packet.seq for packet in sent if packet.is_retx]

        assert repairs() == [0]
        engine.run_until(1_000 + 15_000)
        sender.on_ack(0, sack)
        assert repairs() == [0]
        engine.run_until(1_000 + 15_001)
        sender.on_ack(0, sack)
        assert repairs() == [0, 0]

    def test_multiple_losses_eventually_recover(self):
        drops = tuple(i * DEFAULT_MSS for i in (2, 6, 9))
        sender, receiver, _, _ = run_flow(
            20 * DEFAULT_MSS, drop_seqs=drops, initial_cwnd=20
        )
        assert receiver.complete


class TestCubicState:
    def test_enter_recovery_shrinks_window(self):
        cubic = CubicState()
        new = cubic.enter_recovery(100_000.0, DEFAULT_MSS)
        assert new == pytest.approx(70_000.0)
        assert cubic.w_max_bytes == 100_000.0

    def test_target_grows_toward_wmax(self):
        cubic = CubicState()
        cubic.enter_recovery(100_000.0, DEFAULT_MSS)
        early = cubic.target_bytes(0, 70_000.0, DEFAULT_MSS)
        later = cubic.target_bytes(5_000_000, 70_000.0, DEFAULT_MSS)
        assert later > early

    def test_target_convex_beyond_k(self):
        cubic = CubicState()
        cubic.enter_recovery(100_000.0, DEFAULT_MSS)
        t1 = cubic.target_bytes(8_000_000, 70_000.0, DEFAULT_MSS)
        t2 = cubic.target_bytes(16_000_000, 70_000.0, DEFAULT_MSS)
        assert t2 > t1 > 0


class TestReceiver:
    def _rx(self, size=10_000):
        acks = []
        rx = TcpReceiver(0, FT, size, send_ack=acks.append)
        return rx, acks

    def test_cumulative_ack_advances(self):
        rx, acks = self._rx()
        rx.on_data(Packet(FT, 0, 0, 1000), 0)
        assert acks[-1].ack_seq == 1000

    def test_out_of_order_buffered(self):
        rx, acks = self._rx()
        rx.on_data(Packet(FT, 0, 1000, 1000), 0)
        assert acks[-1].ack_seq == 0  # dupack
        rx.on_data(Packet(FT, 0, 0, 1000), 0)
        assert acks[-1].ack_seq == 2000  # hole filled pulls both forward

    def test_duplicate_data_does_not_regress(self):
        rx, acks = self._rx()
        rx.on_data(Packet(FT, 0, 0, 1000), 0)
        rx.on_data(Packet(FT, 0, 0, 1000), 0)
        assert acks[-1].ack_seq == 1000

    def test_completion_fires_once(self):
        fired = []
        rx = TcpReceiver(
            0, FT, 2000, send_ack=lambda a: None, on_complete=fired.append
        )
        rx.on_data(Packet(FT, 0, 0, 1000), 5)
        rx.on_data(Packet(FT, 0, 1000, 1000), 9)
        rx.on_data(Packet(FT, 0, 1000, 1000), 12)  # dup after completion
        assert fired == [9]
        assert rx.completed_us == 9


class TestSackBlocks:
    def _rx(self):
        acks = []
        rx = TcpReceiver(0, FT, 100_000, send_ack=acks.append)
        return rx, acks

    def test_adjacent_blocks_merge(self):
        rx, acks = self._rx()
        rx.on_data(Packet(FT, 0, 2_000, 1_000), 0)
        rx.on_data(Packet(FT, 0, 3_000, 1_000), 0)
        assert rx.sack_blocks() == ((2_000, 4_000),)

    def test_disjoint_blocks_reported_separately(self):
        rx, _ = self._rx()
        rx.on_data(Packet(FT, 0, 2_000, 1_000), 0)
        rx.on_data(Packet(FT, 0, 10_000, 1_000), 0)
        assert rx.sack_blocks() == ((2_000, 3_000), (10_000, 11_000))

    def test_blocks_cleared_once_hole_fills(self):
        rx, _ = self._rx()
        rx.on_data(Packet(FT, 0, 1_000, 1_000), 0)
        rx.on_data(Packet(FT, 0, 0, 1_000), 0)  # fills the hole
        assert rx.sack_blocks() == ()

    def test_block_limit(self):
        rx, _ = self._rx()
        for i in range(10):
            rx.on_data(Packet(FT, 0, 2_000 * (i + 1), 500), 0)
        assert len(rx.sack_blocks()) == SACK_BLOCKS == 4
