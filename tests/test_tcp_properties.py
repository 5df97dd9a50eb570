"""Property-based tests: TCP completes under arbitrary loss patterns."""

import copy
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cc.cubic import CubicCC
from repro.cc.dctcp import DctcpCC
from repro.net.packet import DEFAULT_MSS, FiveTuple, Packet
from repro.net.tcp import (
    DUPACK_THRESHOLD,
    TcpFlow,
    TcpReceiver,
    add_range,
    trim_ranges,
)
from repro.sim.engine import EventEngine

FT = FiveTuple(2, 3, 443, 6543)


def check_aligned(packet, size_bytes, mss=DEFAULT_MSS):
    """Every data segment is MSS-aligned and full but for the flow's
    tail -- what lets the receiver pull one held range forward at most."""
    assert packet.seq % mss == 0
    assert packet.payload_bytes == min(mss, size_bytes - packet.seq)


def run_lossy_flow(size_bytes, loss_rate, seed, one_way_us=8_000, tracer=None):
    """Flow over a pipe dropping data packets i.i.d.; ACKs are safe."""
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    state = {}

    def route_data(packet):
        check_aligned(packet, size_bytes)
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
                     initial_cwnd_segments=4, tracer=tracer)
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
        check_aligned(packet, sizes[i])
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


class InFlightAtRtoFlow(TcpFlow):
    """Records ``(snd_una, snd_nxt)`` whenever its timer fires."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.at_rto = []

    def _on_rto(self):
        fired, outstanding = self.rto_firings, (self.snd_una, self.snd_nxt)
        super()._on_rto()
        if self.rto_firings > fired:  # fired, not an early wake-up
            self.at_rto.append(outstanding)


def rto_states(sizes, loss, ack_loss, ece, seed):
    """``(snd_una, snd_nxt)`` at every RTO of ``run_flows``' senders."""
    _, senders, _ = run_flows(InFlightAtRtoFlow, sizes, loss, ack_loss, ece, seed)
    assert all(tx.done for tx in senders)
    return [state for tx in senders for state in tx.at_rto]


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.tuples(st.integers(1, 30), st.integers(0, DEFAULT_MSS - 1)),
        min_size=1, max_size=4,
    ),
    loss=st.floats(0.0, 0.4),
    ack_loss=st.floats(0.0, 0.3),
    ece=st.floats(0.0, 0.5),
    seed=st.integers(0, 10_000),
)
def test_property_an_rto_always_finds_data_in_flight(sizes, loss, ack_loss, ece, seed):
    """Whenever the retransmission timer fires, ``snd_nxt > snd_una``:
    ``_on_rto`` enters repair over a non-empty range, under data loss,
    ACK loss and ECN window cuts, also for flows ending in a short
    segment."""
    sizes = [max(1, n * DEFAULT_MSS - tail) for n, tail in sizes]
    assert all(una < nxt for una, nxt in rto_states(sizes, loss, ack_loss, ece, seed))


def test_lossy_flows_fire_rtos_with_data_in_flight():
    """The property above is not vacuous: these fixed lossy, ECN-marked
    flows time out, every time with data in flight."""
    states = [
        state
        for seed in range(4)
        for state in rto_states([30 * DEFAULT_MSS - 7, 12 * DEFAULT_MSS], 0.3, 0.2, 0.3, seed)
    ]
    assert states and all(una < nxt for una, nxt in states)


@settings(max_examples=20, deadline=None)
@given(
    mss=st.integers(500, 9_000),
    cc_cls=st.sampled_from((CubicCC, DctcpCC)),
    size_segments=st.integers(5, 40),
)
def test_property_ecn_cuts_leave_a_segment_in_flight_at_any_mss(mss, cc_cls, size_segments):
    """Every ACK ECE-marked on a lossless path: the controller never cuts
    cwnd below two segments of the flow's own MSS, so ``_try_send``
    always has a segment out and no RTO fires."""
    engine = EventEngine()
    state = {}

    def route_data(packet):
        engine.schedule_in(5_000, lambda: state["rx"].on_data(packet, engine.now_us))

    def route_ack(ack):
        engine.schedule_in(5_000, state["tx"].on_ack, ack.ack_seq, ack.sack_blocks, True)

    size = size_segments * mss
    state["rx"] = TcpReceiver(0, FT, size, send_ack=route_ack)
    state["tx"] = tx = TcpFlow(
        engine, 0, FT, size, route_data=route_data, mss=mss,
        cc=cc_cls(mss=mss, initial_cwnd_segments=4),
    )
    tx.start()
    engine.run_until(60_000_000)
    assert tx.done and tx.rto_firings == 0
    assert tx.cwnd_bytes >= 2 * mss


# -- segment alignment --------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    size_segments=st.integers(1, 50),
    tail=st.integers(0, DEFAULT_MSS - 1),
    loss=st.floats(0.0, 0.35),
    seed=st.integers(0, 10_000),
)
def test_property_segments_are_mss_aligned_under_loss(size_segments, tail, loss, seed):
    """New data, fast retransmit, hole repair and RTO repair all send
    ``seq % mss == 0`` segments of ``min(mss, size - seq)`` bytes, also
    when the flow ends in a short segment (``check_aligned``)."""
    size = max(1, size_segments * DEFAULT_MSS - tail)
    sender, receiver = run_lossy_flow(size, loss, seed)
    assert receiver.complete and sender.done


def test_lossy_flows_take_every_repair_path_aligned():
    """The alignment check above sees every way a segment leaves: over
    these fixed flows there are fast retransmits, hole repairs and RTOs."""
    log = _Log()
    for seed in range(8):
        run_lossy_flow(40 * DEFAULT_MSS - 7, 0.3, seed, tracer=log)
    assert {entry[1] for entry in log} == {"tx", "recovery", "rto"}
    # Every retransmission is a hole repair (``_retransmit_holes``).
    assert any(entry[1] == "tx" and entry[4] for entry in log)


# -- byte-range sets -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 40)),
        max_size=30,
    )
)
def test_property_byte_ranges_are_the_set_of_held_bytes(ops):
    """``add_range`` / ``trim_ranges`` against a set of bytes, over adds
    that touch, nest, overlap or are empty (``end <= start``) and trims
    anywhere: the list stays strictly increasing and of even length (so
    no range is empty or touches the next), and byte ``b`` is held iff
    ``bisect_right(ranges, b)`` is odd."""
    ranges, held = [], set()
    for is_add, a, b in ops:
        if is_add:
            add_range(ranges, a, b)
            held |= set(range(a, b))
        else:
            trim_ranges(ranges, a)
            held = {byte for byte in held if byte >= a}
        assert len(ranges) % 2 == 0
        assert all(x < y for x, y in zip(ranges, ranges[1:]))
        for byte in range(-1, 42):
            assert (bisect_right(ranges, byte) % 2 == 1) == (byte in held)


# -- the byte-range receiver and scoreboard against their predecessors -------


class LegacyReceiver(TcpReceiver):
    """The receiver before its buffer became a byte-range list, kept
    verbatim: a ``seq -> end`` dict, sorted and merged for every ACK."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._out_of_order = {}  # seq -> end_seq

    def on_data(self, packet, now_us):
        """Process an arriving data packet and emit a cumulative ACK."""
        self.packets_received += 1
        if packet.end_seq > self.rcv_nxt:
            if packet.seq <= self.rcv_nxt:
                self.rcv_nxt = packet.end_seq
                # Pull any buffered contiguous segments forward.
                while self.rcv_nxt in self._out_of_order:
                    self.rcv_nxt = self._out_of_order.pop(self.rcv_nxt)
            else:
                self._out_of_order[packet.seq] = max(
                    self._out_of_order.get(packet.seq, 0), packet.end_seq
                )
        self.bytes_received = self.rcv_nxt
        if self.rcv_nxt >= self.size_bytes and self.completed_us is None:
            self.completed_us = now_us
            if self.on_complete is not None:
                self.on_complete(now_us)
        ack = Packet(
            self.five_tuple.reversed(),
            self.flow_id,
            seq=0,
            payload_bytes=0,
            is_ack=True,
            ack_seq=self.rcv_nxt,
        )
        ack.sack_blocks = self.sack_blocks()
        ack.ece = packet.ecn_ce
        self.send_ack(ack)

    def sack_blocks(self, limit=4):
        """Merged out-of-order byte ranges (the SACK option payload)."""
        if not self._out_of_order:
            return ()
        merged = []
        for start, end in sorted(self._out_of_order.items()):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return tuple((s, e) for s, e in merged[:limit])


class LegacySackFlow(TcpFlow):
    """The sender before its scoreboard became a byte-range list, its
    code kept verbatim: ``[[s, e], ...]`` copied, re-sorted and re-merged
    per ACK, a ``max_sent`` high-water mark (set in ``_transmit``) and a
    SACK skip in ``_try_send``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_sent = 0  # highest byte ever transmitted
        self._sacked = []

    @property
    def sacked_bytes(self):
        """Bytes the receiver holds above snd_una (SACK scoreboard)."""
        una = self.snd_una
        return sum(e - max(s, una) for s, e in self._sacked if e > una)

    def pipe_bytes(self):
        """RFC 6675 pipe estimate: bytes believed to be in the network."""
        pipe = self.inflight_bytes
        if self.recovery_point is not None:
            pipe -= min(self.sacked_bytes, pipe)
        return pipe

    def _is_sacked(self, seq):
        """True when byte ``seq`` lies inside a SACKed interval."""
        idx = bisect_right(self._sacked, [seq + 1]) - 1
        return idx >= 0 and self._sacked[idx][0] <= seq < self._sacked[idx][1]

    def _try_send(self):
        while (
            not self.done
            and self.snd_nxt < self.size_bytes
            and self.pipe_bytes() + self.mss <= self.cwnd_bytes + 1
        ):
            length = min(self.mss, self.size_bytes - self.snd_nxt)
            if self.snd_nxt < self.max_sent and self._is_sacked(self.snd_nxt):
                # The receiver already holds this segment (SACK) -- skip
                # instead of re-sending it after a go-back-N.
                self.snd_nxt += length
                continue
            # Bytes below max_sent are retransmissions (Karn: they must
            # not produce RTT samples, and they count as retx).
            self._transmit(self.snd_nxt, length, is_retx=self.snd_nxt < self.max_sent)
            self.snd_nxt += length
        self._arm_rto()

    def _transmit(self, seq, length, is_retx):
        self.max_sent = max(self.max_sent, seq + length)
        super()._transmit(seq, length, is_retx)

    def on_ack(self, ack_seq, sack_blocks=(), ece=False):
        """Process a cumulative ACK (with optional SACK blocks / ECE)."""
        if self.done:
            return
        now = self.engine.now_us
        if ece:
            self.ecn_ce_acks += 1
        self._register_sacks(sack_blocks)
        if ack_seq > self.snd_una:
            self._sample_rtt(ack_seq, now)
            newly_acked = ack_seq - self.snd_una
            self.snd_una = ack_seq
            self.rto_backoff = 1
            self._trim_sacked()
            if self.recovery_point is not None:
                if ack_seq >= self.recovery_point:
                    # Exit recovery: deflate the dupack-inflated window
                    # back to ssthresh (NewReno/RFC 6675).
                    self.recovery_point = None
                    self.dupacks = 0
                    self._retx_time.clear()
                    self.cc.on_recovery_exit(now)
                    self._trim_sacked()
                else:
                    # Partial ACK: repair the holes SACK exposes.
                    self._retransmit_holes()
            else:
                self.dupacks = 0
                if ece:
                    self.cc.on_ecn(newly_acked, ack_seq, self.snd_nxt, now)
                else:
                    self.cc.on_ack(newly_acked, ack_seq, self.snd_nxt, now)
            if self.snd_una >= self.size_bytes:
                self._finish(now)
                return
            self._try_send()
        else:
            self.dupacks += 1
            if self.dupacks == DUPACK_THRESHOLD and self.recovery_point is None:
                self._fast_retransmit(now)
            elif self.recovery_point is not None:
                # SACK recovery: repair holes and keep the pipe (not the
                # raw inflight) at cwnd -- no dupack window inflation.
                self._retransmit_holes()
                self._try_send()

    def _register_sacks(self, sack_blocks):
        """Merge the ACK's SACK blocks into the interval scoreboard."""
        if not sack_blocks:
            return
        merged = [list(block) for block in self._sacked]
        merged.extend([int(s), int(e)] for s, e in sack_blocks if e > s)
        merged.sort()
        out = []
        for start, end in merged:
            if out and start <= out[-1][1]:
                out[-1][1] = max(out[-1][1], end)
            else:
                out.append([start, end])
        self._sacked = out

    def _trim_sacked(self):
        """Drop scoreboard intervals at or below the cumulative ACK."""
        una = self.snd_una
        trimmed = []
        for start, end in self._sacked:
            if end <= una:
                continue
            trimmed.append([max(start, una), end])
        self._sacked = trimmed

    def _retransmit_holes(self, budget=3):
        """Retransmit up to ``budget`` un-SACKed holes below recovery."""
        if self.recovery_point is None:
            return
        now = self.engine.now_us
        retry_after = int((self.srtt_us or 50_000) * 1.5)
        limit = min(self.recovery_point, self.size_bytes)
        sent = 0
        cursor = self.snd_una
        intervals = self._sacked + [[limit, limit]]
        for start, end in intervals:
            if sent >= budget or cursor >= limit:
                break
            gap_end = min(start, limit)
            seq = cursor
            while seq < gap_end and sent < budget:
                length = min(self.mss, self.size_bytes - seq)
                if length <= 0:
                    break
                last = self._retx_time.get(seq)
                if last is None or now - last > retry_after:
                    self._transmit(seq, length, is_retx=True)
                    self._retx_time[seq] = now
                    sent += 1
                seq += self.mss
            cursor = max(cursor, end)

    def _on_rto(self):
        if self.done:
            return
        due = self._rto_due
        if due is not None:  # came up early: the deadline moved on since
            self._rto_due = None
            self._rto_event = self.engine.schedule_ranked(*due, self._on_rto)
            return
        self._rto_event = None
        self.rto_firings += 1
        if self.tracer is not None:
            self.tracer.on_tcp_rto(self.flow_id, self.engine.now_us)
        self.cc.on_rto(self.engine.now_us)
        self.dupacks = 0
        self._retx_time.clear()
        self._send_times.clear()
        self.rto_backoff = min(self.rto_backoff * 2, 64)
        if self.max_sent > self.snd_una:
            self.recovery_point = self.max_sent
            self.snd_nxt = max(self.snd_nxt, self.snd_una)
            self._retransmit_holes()
        else:
            self.recovery_point = None
            self.snd_nxt = self.snd_una
        self._try_send()


def receive(rx_cls, size, arrivals):
    """Feed MSS-aligned segments in the given order; the ACK stream and
    the SACK blocks after every packet."""
    acks = []
    rx = rx_cls(0, FT, size, send_ack=acks.append)
    seen = []
    for now, index in enumerate(arrivals):
        seq = index * DEFAULT_MSS
        rx.on_data(Packet(FT, 0, seq, min(DEFAULT_MSS, size - seq)), now)
        seen.append((acks[-1].ack_seq, acks[-1].sack_blocks, rx.sack_blocks()))
    return seen, rx.completed_us


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    size_segments=st.integers(1, 30),
    tail=st.integers(0, DEFAULT_MSS - 1),
)
def test_property_range_receiver_is_the_segment_dict(data, size_segments, tail):
    """Over random MSS-aligned arrival orders with duplicates, the new
    receiver sends the old one's ACKs (cumulative ACK and SACK blocks)
    and reports the same ``sack_blocks()`` after every packet."""
    size = max(1, size_segments * DEFAULT_MSS - tail)
    segments = -(-size // DEFAULT_MSS)
    arrivals = data.draw(
        st.lists(st.integers(0, segments - 1), max_size=3 * segments)
        | st.permutations(range(segments))
    )
    assert receive(TcpReceiver, size, arrivals) == receive(
        LegacyReceiver, size, arrivals
    )


def drive_sender(flow_cls, size, steps, loss, ack_loss, seed):
    """One sender against a receiver, stepped by a script of ``(clock
    step, srtt override, packets to deliver, reverse them)``: every
    transmission, and after every ACK the retransmissions it caused (the
    repair budget used) and ``pipe_bytes()``, in order."""
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    wire, acks, record = [], [], []

    def route_data(packet):
        record.append(("tx", engine.now_us, packet.seq, packet.payload_bytes, packet.is_retx))
        wire.append(packet)

    tx = flow_cls(engine, 0, FT, size, route_data=route_data,
                  min_rto_us=20_000, initial_cwnd_segments=4)
    rx = TcpReceiver(0, FT, size, send_ack=acks.append)
    tx.start()
    for step_us, srtt_us, batch, reverse in steps:
        engine.run_until(engine.now_us + step_us)  # a due RTO fires here
        if srtt_us is not None and tx.srtt_us is not None:
            tx.srtt_us = float(srtt_us)
        arrived, wire[:] = wire[:batch], wire[batch:]
        for packet in reversed(arrived) if reverse else arrived:
            if rng.random() >= loss:
                rx.on_data(packet, engine.now_us)
        pending, acks[:] = list(acks), []
        for ack in pending:
            if rng.random() >= ack_loss:
                retransmits = tx.retransmits
                tx.on_ack(ack.ack_seq, ack.sack_blocks, ack.ece)
                record.append(("ack", tx.retransmits - retransmits, tx.pipe_bytes()))
    return record, tx


@settings(max_examples=150, deadline=None)
@given(
    size_segments=st.integers(1, 40),
    steps=st.lists(
        st.tuples(
            st.sampled_from((0, 1_000, 5_000, 25_000, 120_000)),
            st.none() | st.integers(1_000, 200_000),
            st.integers(0, 8),
            st.booleans(),
        ),
        max_size=60,
    ),
    loss=st.floats(0.0, 0.5),
    ack_loss=st.floats(0.0, 0.3),
    seed=st.integers(0, 10_000),
)
# Reordering alone SACKs data sent after recovery began above a hole that
# straddles the recovery point: repair must stop at that point.
@example(
    size_segments=12,
    steps=[(0, None, 3, False), (0, None, 6, True), (0, None, 7, True)],
    loss=0.0, ack_loss=0.0, seed=0,
)
def test_property_range_scoreboard_is_the_interval_scoreboard(
    size_segments, steps, loss, ack_loss, seed
):
    """Over random SACK patterns (losses and reordering on the way to the
    receiver, lost ACKs), ``srtt_us`` overrides and clock steps that fire
    RTOs, the new sender makes the old one's transmissions -- same
    ``(seq, length, is_retx)`` in the same order -- spends the same repair
    budget per ACK and reports the same ``pipe_bytes()``."""
    size = size_segments * DEFAULT_MSS
    new, new_tx = drive_sender(TcpFlow, size, steps, loss, ack_loss, seed)
    old, old_tx = drive_sender(LegacySackFlow, size, steps, loss, ack_loss, seed)
    assert new == old
    assert (new_tx.snd_nxt, new_tx.rto_firings) == (old_tx.max_sent, old_tx.rto_firings)
