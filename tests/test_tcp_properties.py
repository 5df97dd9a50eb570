"""Property-based tests: TCP completes under arbitrary loss patterns."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.packet import DEFAULT_MSS, FiveTuple
from repro.net.tcp import TcpFlow, TcpReceiver
from repro.sim.engine import EventEngine

FT = FiveTuple(2, 3, 443, 6543)


def run_lossy_flow(size_bytes, loss_rate, seed, one_way_us=8_000):
    """Flow over a pipe dropping data packets i.i.d.; ACKs are safe."""
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    state = {}

    def route_data(packet):
        if rng.random() < loss_rate:
            return
        engine.schedule_in(
            one_way_us, state["rx"].on_data, packet, 0
        )

    def route_ack(ack):
        engine.schedule_in(
            one_way_us, state["tx"].on_ack, ack.ack_seq, ack.sack_blocks
        )

    receiver = TcpReceiver(0, FT, size_bytes, send_ack=route_ack)
    # Deliver with the engine clock, not the stale 0 timestamp.
    original = receiver.on_data
    receiver.on_data = lambda p, _t: original(p, engine.now_us)
    sender = TcpFlow(engine, 0, FT, size_bytes, route_data=route_data,
                     initial_cwnd_segments=4)
    state["rx"], state["tx"] = receiver, sender
    sender.start()
    engine.run_until(600_000_000)  # 10 simulated minutes: ample
    return sender, receiver


@settings(max_examples=25, deadline=None)
@given(
    size_segments=st.integers(1, 60),
    loss=st.floats(0.0, 0.35),
    seed=st.integers(0, 10_000),
)
# Regression: cum-ACKs arriving after an RTO repair used to poison the
# RTT estimator (sample = hole-repair stall, not path RTT), ballooning
# the RTO to its 60 s cap and starving the final segment.
@example(size_segments=39, loss=0.3125, seed=516)
def test_property_completes_under_iid_loss(size_segments, loss, seed):
    """Any flow completes under i.i.d. loss < 35%, and the receiver never
    acknowledges bytes beyond the flow size."""
    size = size_segments * DEFAULT_MSS
    sender, receiver = run_lossy_flow(size, loss, seed)
    assert receiver.complete
    assert receiver.bytes_received == size
    assert sender.done
    assert sender.snd_una == size


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_lossless_is_retx_free(seed):
    sender, receiver = run_lossy_flow(30 * DEFAULT_MSS, 0.0, seed)
    assert sender.retransmits == 0
    assert receiver.complete


@settings(max_examples=15, deadline=None)
@given(
    size_segments=st.integers(2, 40),
    loss=st.floats(0.0, 0.3),
    seed=st.integers(0, 1000),
)
def test_property_sack_blocks_are_coherent(size_segments, loss, seed):
    """SACK blocks never include acknowledged or out-of-range bytes."""
    size = size_segments * DEFAULT_MSS
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    observed = []

    def route_data(packet):
        if rng.random() < loss:
            return
        engine.schedule_in(5_000, rx.on_data, packet, 0)

    def route_ack(ack):
        observed.append((ack.ack_seq, ack.sack_blocks))
        engine.schedule_in(5_000, tx.on_ack, ack.ack_seq, ack.sack_blocks)

    rx = TcpReceiver(0, FT, size, send_ack=route_ack)
    tx = TcpFlow(engine, 0, FT, size, route_data=route_data)
    tx.start()
    engine.run_until(600_000_000)
    for ack_seq, blocks in observed:
        for start, end in blocks:
            assert ack_seq <= start < end <= size


@settings(max_examples=25, deadline=None)
@given(
    size_segments=st.integers(2, 60),
    loss=st.floats(0.0, 0.3),
    seed=st.integers(0, 10_000),
)
def test_property_rtt_sampler_pops_exactly_the_acked(size_segments, loss, seed):
    """``_sample_rtt`` pops acked send times off the front of the dict and
    samples the last one popped.  That is the highest acked timed segment
    only while keys stay in ascending order; checked around every ACK."""
    size = size_segments * DEFAULT_MSS
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    samples = []

    def route_data(packet):
        if rng.random() < loss:
            return
        engine.schedule_in(8_000, rx.on_data, packet, 0)

    def checked_on_ack(ack_seq, sack_blocks):
        if tx.done:
            return
        timed = dict(tx._send_times)
        advances = ack_seq > tx.snd_una
        now = engine.now_us
        del samples[:]
        tx.on_ack(ack_seq, sack_blocks)
        acked = [seq for seq in timed if seq < ack_seq]
        if advances and acked:
            assert samples == [now - timed[max(acked)]]
        else:
            assert samples == []
        keys = list(tx._send_times)
        assert all(seq >= ack_seq for seq in keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def route_ack(ack):
        engine.schedule_in(8_000, checked_on_ack, ack.ack_seq, ack.sack_blocks)

    rx = TcpReceiver(0, FT, size, send_ack=route_ack)
    original = rx.on_data
    rx.on_data = lambda p, _t: original(p, engine.now_us)
    tx = TcpFlow(engine, 0, FT, size, route_data=route_data)
    feed_cc = tx.cc.on_rtt_sample
    tx.cc.on_rtt_sample = lambda rtt, now: (samples.append(rtt), feed_cc(rtt, now))
    tx.start()
    engine.run_until(600_000_000)
    assert tx.done
