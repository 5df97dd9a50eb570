"""Property-based tests: TCP completes under arbitrary loss patterns."""

import copy

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


# -- the lazy retransmission timer ------------------------------------------


class EagerRtoFlow(TcpFlow):
    """The timer the lazy one must be indistinguishable from: cancel the
    queued entry and push a new one on every arm."""

    def _arm_rto(self):
        self._cancel_rto()
        if not self.done and self.snd_una < self.size_bytes:
            self._rto_event = self.engine.schedule_in(
                self.rto_us * self.rto_backoff, self._on_rto
            )


class CheckedRtoFlow(TcpFlow):
    """The sender under test, its timer's contract asserted around every
    arm and every wake-up."""

    armed = None  # (deadline_us, rank) of the last arm
    cancels = 0  # arms that moved the deadline earlier: one tombstone each

    def _arm_rto(self):
        engine, timer = self.engine, self._rto_event
        pending = engine.pending()
        rank = next(copy.copy(engine._seq))  # what an eager push would take
        super()._arm_rto()
        deadline = engine.now_us + self.rto_us * self.rto_backoff
        self.armed = (deadline, rank)
        if timer is not None and timer[0] <= deadline:
            assert engine.pending() == pending  # a later deadline queues nothing
        else:
            assert engine.pending() == pending + 1
            self.cancels += timer is not None
        self.check_heap()

    def _on_rto(self):
        entry, armed, fired = self._rto_event, self.armed, self.rto_firings
        super()._on_rto()
        if self.rto_firings > fired:  # fired, not an early wake-up
            assert armed == (self.engine.now_us, entry[1])

    def check_heap(self):
        """One queued timer per running sender, none for a finished one,
        and no entry without a cause: ``pending()`` is the hops in flight,
        the timers, and one tombstone per earlier deadline or finish."""
        queue, flows = self.engine._queue, self.peers
        for flow in flows:
            timers = sum(entry[2] == flow._on_rto for entry in queue)
            assert timers == (flow.packets_sent > 0 and not flow.done)
        causes = sum(flow.cancels + flow.done for flow in flows)
        assert sum(entry[2] is None for entry in queue) <= causes
        assert self.engine.pending() <= self.hops[0] + len(flows) + causes


class _Log(list):
    """The tracer hooks a sender calls, as one ordered record."""

    def on_tcp_tx(self, flow_id, packet, now_us):
        self.append((now_us, "tx", flow_id, packet.seq, packet.is_retx))

    def on_tcp_rto(self, flow_id, now_us):
        self.append((now_us, "rto", flow_id))

    def on_tcp_recovery(self, flow_id, now_us):
        self.append((now_us, "recovery", flow_id))


def run_flows(flow_cls, sizes, loss, ack_loss, ece, seed):
    """Senders of ``flow_cls`` sharing one engine; every data packet and
    ACK draws its fate (drop, delay from a few values so that deadlines
    collide in one microsecond, ECE) from one seeded stream."""
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    log, hops = _Log(), [0]
    senders, receivers = [], []

    def hop(fn, *args):
        hops[0] += 1
        engine.schedule_in(int(rng.choice((5_000, 5_000, 7_000))), arrive, fn, *args)

    def arrive(fn, *args):
        hops[0] -= 1
        fn(*args)

    def route_data(i, packet):
        if rng.random() >= loss:
            hop(lambda: receivers[i].on_data(packet, engine.now_us))

    def route_ack(i, ack):
        if rng.random() >= ack_loss:
            hop(senders[i].on_ack, ack.ack_seq, ack.sack_blocks, bool(rng.random() < ece))

    for i, size in enumerate(sizes):
        receivers.append(
            TcpReceiver(i, FT, size, send_ack=lambda ack, i=i: route_ack(i, ack))
        )
        sender = flow_cls(
            engine, i, FT, size, route_data=lambda p, i=i: route_data(i, p),
            min_rto_us=20_000, initial_cwnd_segments=4, tracer=log,
        )
        sender.peers, sender.hops = senders, hops
        senders.append(sender)
        engine.schedule_at(1_000 * (i // 2), sender.start)
    engine.run_until(600_000_000)
    return engine, senders, log


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
    loss=st.floats(0.0, 0.3),
    ack_loss=st.floats(0.0, 0.3),
    ece=st.floats(0.0, 0.5),
    seed=st.integers(0, 10_000),
)
def test_property_lazy_rto_is_the_eager_timer_with_one_heap_entry(
    sizes, loss, ack_loss, ece, seed
):
    """Every RTO fires at exactly the last arm's time + ``rto_us *
    rto_backoff`` under the rank reserved at that arm, so the whole
    record -- sends, recoveries and timeouts of several senders, in
    order -- is the eager timer's; a finished sender leaves no live timer
    and the heap holds no entry without a cause (``check_heap``)."""
    sizes = [n * DEFAULT_MSS for n in sizes]
    engine, lazy, lazy_log = run_flows(CheckedRtoFlow, sizes, loss, ack_loss, ece, seed)
    _, eager, eager_log = run_flows(EagerRtoFlow, sizes, loss, ack_loss, ece, seed)
    assert lazy_log == eager_log
    assert [tx.rto_firings for tx in lazy] == [tx.rto_firings for tx in eager]
    assert all(tx.done for tx in lazy)
    assert not any(entry[2] for entry in engine._queue)
