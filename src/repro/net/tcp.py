"""Event-driven TCP flow model (sender + receiver).

The paper's end hosts run TCP-Cubic; what matters to the scheduling study
is the closed loop -- cwnd growth filling the per-UE RLC buffer
(bufferbloat), loss at buffer overflow or on the radio, and the resulting
retransmission dynamics.  The model implements:

* a pluggable congestion-window policy behind
  :class:`repro.cc.base.CongestionControl` (Cubic by default; DCTCP
  lives in ``repro.cc``),
* immediate cumulative ACKs carrying SACK blocks and the ECN-echo (ECE)
  of any CE mark an AQM applied on the way down; fast retransmit enters
  a SACK-driven loss recovery that repairs every known hole within a
  round trip (a NewReno-only sender repairs one hole per RTT, which
  collapses throughput after a drop-tail burst), with an RTO fallback
  with exponential backoff,
* SRTT/RTTVAR estimation (RFC 6298) driving the RTO.

Connection establishment is not simulated (flows model HTTP exchanges on
warm connections).  Flow completion time is recorded when the *last byte
arrives at the receiver* -- the paper's FCT definition.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, Optional

from repro.cc.base import CongestionControl
from repro.net.packet import DEFAULT_MSS, FiveTuple, Packet
from repro.sim.engine import Event, EventEngine

if TYPE_CHECKING:
    from repro.telemetry.flowtrace import FlowTracer

INITIAL_CWND_SEGMENTS = 10
MIN_RTO_US = 200_000
MAX_RTO_US = 60_000_000
DUPACK_THRESHOLD = 3
#: Ranges one ACK's SACK option carries.
SACK_BLOCKS = 4
#: Segments one repair pass (``_retransmit_holes``) may retransmit.
REPAIR_BUDGET = 3

__all__ = ["TcpFlow", "TcpReceiver", "add_range", "trim_ranges"]


# A set of byte ranges -- the receiver's out-of-order buffer and the
# sender's SACK scoreboard -- is one flat sorted list [s0, e0, s1, e1, ...]
# of disjoint half-open ranges that never touch: byte b is held iff
# bisect_right(ranges, b) is odd.


def add_range(ranges: list[int], start: int, end: int) -> None:
    """Hold bytes ``[start, end)``, merging every range it touches."""
    if start < end:
        i = bisect_left(ranges, start)
        j = bisect_right(ranges, end)
        ranges[i:j] = [start] * (i % 2 == 0) + [end] * (j % 2 == 0)


def trim_ranges(ranges: list[int], seq: int) -> None:
    """Drop every held byte below ``seq``."""
    i = bisect_right(ranges, seq)
    ranges[:i] = [seq] * (i % 2)


class TcpFlow:
    """Sending side of one downlink flow, living at the remote server."""

    def __init__(
        self,
        engine: EventEngine,
        flow_id: int,
        five_tuple: FiveTuple,
        size_bytes: int,
        route_data: Callable[[Packet], None],
        mss: int = DEFAULT_MSS,
        min_rto_us: int = MIN_RTO_US,
        initial_cwnd_segments: int = INITIAL_CWND_SEGMENTS,
        on_sender_done: Optional[Callable[["TcpFlow", int], None]] = None,
        tracer: Optional["FlowTracer"] = None,
        cc: Optional[CongestionControl] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive: {size_bytes}")
        self.engine = engine
        self.flow_id = flow_id
        self.five_tuple = five_tuple
        self.size_bytes = size_bytes
        self.route_data = route_data
        self.mss = mss
        self.min_rto_us = min_rto_us
        self.on_sender_done = on_sender_done
        #: Flow-lifecycle tracer (None keeps the send path emit-free).
        self.tracer = tracer

        self.start_us = engine.now_us
        self.snd_una = 0  # lowest unacknowledged byte
        self.snd_nxt = 0  # next new byte to send (never moves back)
        if cc is None:
            from repro.cc.cubic import CubicCC

            cc = CubicCC(mss=mss, initial_cwnd_segments=initial_cwnd_segments)
        #: Window policy; holds cwnd_bytes (Cubic unless injected).
        self.cc: CongestionControl = cc
        self.dupacks = 0
        self.recovery_point: Optional[int] = None
        #: SACK scoreboard: the byte ranges (``add_range``) the receiver
        #: holds above snd_una.
        self._sacked: list[int] = []
        self._retx_time: dict[int, int] = {}  # hole -> last repair time
        self.srtt_us: Optional[float] = None
        self.rttvar_us: float = 0.0
        self.rto_us = 1_000_000
        self.rto_backoff = 1
        #: The one queued retransmission timer (see ``_arm_rto``).
        self._rto_event: Optional[Event] = None
        #: ``(deadline_us, rank)`` the queued timer re-queues itself at
        #: when it comes up; None while the timer is the deadline.
        self._rto_due: Optional[tuple[int, int]] = None
        self._send_times: dict[int, int] = {}  # seq -> send time (RTT samples)
        self.done = False
        self.packets_sent = 0
        self.retransmits = 0
        self.rto_firings = 0
        self.ecn_ce_acks = 0

    # -- window delegation -------------------------------------------------

    @property
    def cwnd_bytes(self) -> float:
        """The congestion window (owned by the CC policy)."""
        return self.cc.cwnd_bytes

    @cwnd_bytes.setter
    def cwnd_bytes(self, value: float) -> None:
        self.cc.cwnd_bytes = value

    # -- sending -----------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (call once, at flow arrival time)."""
        self.start_us = self.engine.now_us
        self._try_send()

    @property
    def inflight_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    def pipe_bytes(self) -> int:
        """RFC 6675 pipe estimate: bytes believed to be in the network."""
        pipe = self.inflight_bytes
        if self.recovery_point is not None:
            sacked = sum(self._sacked[1::2]) - sum(self._sacked[::2])
            pipe -= min(sacked, pipe)
        return pipe

    @property
    def remaining_bytes(self) -> int:
        """Bytes not yet acknowledged (the SRJF oracle reads this)."""
        return self.size_bytes - self.snd_una

    def _try_send(self) -> None:
        while (
            not self.done
            and self.snd_nxt < self.size_bytes
            and self.pipe_bytes() + self.mss <= self.cwnd_bytes + 1
        ):
            # New data only: bytes below snd_nxt are repaired by
            # ``_retransmit_holes``, which also skips what SACK covers.
            length = min(self.mss, self.size_bytes - self.snd_nxt)
            self._transmit(self.snd_nxt, length, is_retx=False)
            self.snd_nxt += length
        self._arm_rto()

    def _transmit(self, seq: int, length: int, is_retx: bool) -> None:
        packet = Packet(
            self.five_tuple, self.flow_id, seq, length, is_retx=is_retx
        )
        packet.sent_us = self.engine.now_us
        if not is_retx:
            self._send_times[seq] = self.engine.now_us
        else:
            self._send_times.pop(seq, None)  # Karn: no RTT sample on retx
            self.retransmits += 1
        self.packets_sent += 1
        if self.tracer is not None:
            self.tracer.on_tcp_tx(self.flow_id, packet, self.engine.now_us)
        self.route_data(packet)

    # -- ACK processing ------------------------------------------------------

    def on_ack(
        self, ack_seq: int, sack_blocks: tuple = (), ece: bool = False
    ) -> None:
        """Process a cumulative ACK (with optional SACK blocks / ECE)."""
        if self.done:
            return
        now = self.engine.now_us
        if ece:
            self.ecn_ce_acks += 1
        sacked = self._sacked
        for start, end in sack_blocks:
            add_range(sacked, start, end)
        if sacked:
            # Nothing at or below the cumulative ACK (a reordered ACK may
            # report ranges snd_una has passed since).
            trim_ranges(sacked, max(ack_seq, self.snd_una))
        if ack_seq > self.snd_una:
            self._sample_rtt(ack_seq, now)
            newly_acked = ack_seq - self.snd_una
            self.snd_una = ack_seq
            self.rto_backoff = 1
            if self.recovery_point is not None:
                if ack_seq >= self.recovery_point:
                    # Exit recovery: deflate the dupack-inflated window
                    # back to ssthresh (NewReno/RFC 6675).
                    self.recovery_point = None
                    self.dupacks = 0
                    self._retx_time.clear()
                    self.cc.on_recovery_exit(now)
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

    def _retransmit_holes(self) -> None:
        """Retransmit up to ``REPAIR_BUDGET`` un-SACKed segments below
        recovery.

        Holes are the gaps between scoreboard ranges, walked segment by
        segment.  A hole whose repair was itself lost is retried once
        ~1.5 smoothed RTTs have passed since the last attempt (otherwise a
        single lost retransmission stalls the whole recovery until the
        RTO).  Called only in recovery (``recovery_point`` set).
        """
        now = self.engine.now_us
        retry_after = int((self.srtt_us or 50_000) * 1.5)
        limit = min(self.recovery_point, self.size_bytes)
        retx_time = self._retx_time
        sent = 0
        # Holes: [snd_una, s0), [e0, s1), ..., [e_last, limit).
        edges = iter([self.snd_una, *self._sacked, limit])
        for seq, hole_end in zip(edges, edges):
            if seq >= limit:
                return
            hole_end = min(hole_end, limit)
            while seq < hole_end:
                last = retx_time.get(seq)
                if last is None or now - last > retry_after:
                    length = min(self.mss, self.size_bytes - seq)
                    self._transmit(seq, length, is_retx=True)
                    retx_time[seq] = now
                    sent += 1
                    if sent == REPAIR_BUDGET:
                        return
                seq += self.mss

    def _fast_retransmit(self, now_us: int) -> None:
        if self.tracer is not None:
            self.tracer.on_tcp_recovery(self.flow_id, now_us)
        self.recovery_point = self.snd_nxt
        self.cc.on_loss(now_us)
        self._retx_time.clear()
        self._retransmit_holes()
        self._arm_rto()

    def _sample_rtt(self, ack_seq: int, now_us: int) -> None:
        # Use the send time of the highest fully acked segment we timed.
        # ``_send_times`` keys are inserted in strictly ascending seq
        # order (non-retx sends only happen at seq >= max_sent; retx
        # removes keys), so the acked entries form a prefix and the last
        # popped one is the highest: no per-ACK pass over every
        # outstanding timed segment.
        st = self._send_times
        sent = None
        while st:
            seq = next(iter(st))
            if seq >= ack_seq:
                break
            sent = st.pop(seq)
        if sent is None:
            return
        rtt = now_us - sent
        if self.srtt_us is None:
            self.srtt_us = float(rtt)
            self.rttvar_us = rtt / 2.0
        else:
            self.rttvar_us = 0.75 * self.rttvar_us + 0.25 * abs(self.srtt_us - rtt)
            self.srtt_us = 0.875 * self.srtt_us + 0.125 * rtt
        self.rto_us = int(
            min(
                max(self.srtt_us + 4 * self.rttvar_us, self.min_rto_us),
                MAX_RTO_US,
            )
        )
        self.cc.on_rtt_sample(rtt, now_us)

    # -- RTO -----------------------------------------------------------------

    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer from now.

        One heap entry per sender, not one per ACK: a queued timer that
        comes up no later than the new deadline is left alone and
        re-queues itself then (``_on_rto``); only a deadline that moved
        *earlier* costs a cancel and a push.  Every arm reserves the rank
        an eager push would take and the entry that fires carries the last
        arm's, so same-microsecond order against TTI ticks and other
        senders' timers is that of one push per arm.
        """
        if self.done or self.snd_una >= self.size_bytes:
            self._cancel_rto()
            return
        timer = self._rto_event
        rank = self.engine.reserve_rank()
        deadline = self.engine.now_us + self.rto_us * self.rto_backoff
        if timer is not None:
            if timer[0] <= deadline:
                self._rto_due = (deadline, rank)
                return
            timer.cancel()
        self._rto_due = None
        self._rto_event = self.engine.schedule_ranked(deadline, rank, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = self._rto_due = None

    def _on_rto(self) -> None:
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
        # Karn's ambiguity extends past the retransmitted segment: any
        # outstanding segment cum-acked *after* this timeout measures the
        # repair stall, not the path (a ~16 ms RTT once sampled as the
        # multi-second hole-repair time poisons SRTT, balloons the RTO
        # toward MAX_RTO_US, and can starve the tail of a lossy flow
        # indefinitely).  Drop every pending RTT timer.
        self._send_times.clear()
        self.rto_backoff = min(self.rto_backoff * 2, 64)
        # Stay in SACK-repair mode over everything outstanding.  There is
        # some: the timer runs only while ``snd_una < size_bytes``, and
        # ``_try_send`` then leaves a segment in flight (no controller
        # takes cwnd below two segments).  The scoreboard survives the
        # timeout, so only real holes are re-sent (no blind go-back-N
        # flood).
        self.recovery_point = self.snd_nxt
        self._retransmit_holes()
        self._try_send()

    def _finish(self, now_us: int) -> None:
        self.done = True
        self._cancel_rto()
        if self.on_sender_done is not None:
            self.on_sender_done(self, now_us)


class TcpReceiver:
    """Receiving side at the UE: cumulative ACK generation.

    ``send_ack`` routes an ACK packet onto the uplink; ``on_complete``
    fires exactly once, when the final byte of the flow has arrived
    (the FCT instant).
    """

    def __init__(
        self,
        flow_id: int,
        five_tuple: FiveTuple,
        size_bytes: int,
        send_ack: Callable[[Packet], None],
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.flow_id = flow_id
        self.five_tuple = five_tuple
        self.size_bytes = size_bytes
        self.send_ack = send_ack
        self.on_complete = on_complete
        self.rcv_nxt = 0
        #: Bytes held above rcv_nxt, as byte ranges (``add_range``).
        self._out_of_order: list[int] = []
        self.completed_us: Optional[int] = None
        self.packets_received = 0
        self.bytes_received = 0

    @property
    def complete(self) -> bool:
        return self.completed_us is not None

    def on_data(self, packet: Packet, now_us: int) -> None:
        """Process an arriving data packet and emit a cumulative ACK."""
        self.packets_received += 1
        if packet.end_seq > self.rcv_nxt:
            held = self._out_of_order
            if packet.seq <= self.rcv_nxt:
                self.rcv_nxt = packet.end_seq
                # Pull the buffered range that now starts at rcv_nxt
                # forward.  Segments are MSS-aligned, so the new rcv_nxt
                # never falls inside a held range.
                if held and held[0] == self.rcv_nxt:
                    self.rcv_nxt = held[1]
                    del held[:2]
            else:
                add_range(held, packet.seq, packet.end_seq)
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
        # Echo a CE mark back to the sender (RFC 3168 ECE).  The model is
        # per-ACK echo, which is what DCTCP wants (no delayed-ACK state
        # machine here: every data packet produces its own ACK).
        ack.ece = packet.ecn_ce
        self.send_ack(ack)

    def sack_blocks(self) -> tuple:
        """The lowest ``SACK_BLOCKS`` held ranges (the SACK option payload)."""
        if not self._out_of_order:
            return ()
        held = self._out_of_order[: 2 * SACK_BLOCKS]
        return tuple(zip(held[::2], held[1::2]))
