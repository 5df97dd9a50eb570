"""RLC Acknowledged Mode: link-layer retransmission (section 6.3).

The AM transmitting entity keeps three queues with fixed priority order
(3GPP TS 38.322, paper section 4.4):

1. **Ctrl Q** -- RLC control PDUs (status reports this entity owes).
2. **Retx Q** -- PDUs NACKed by the peer, awaiting retransmission.
3. **Tx Q**   -- new RLC SDUs waiting for a transmission opportunity.

OutRAN only applies its intra/inter-user scheduling to the Tx Q and
serves it from whatever grant is left after Ctrl and Retx (the per-flow
state is kept for the Tx Q only).

The receiving entity detects sequence gaps, and answers polls and gaps
with status PDUs subject to a status-prohibit timer.  The transmitter
additionally runs t-PollRetransmit: a poll left unanswered triggers a
(possibly spurious) retransmission -- the bandwidth-wasting behaviour the
paper observes when AM timers are left at defaults.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.mac.bsr import BufferStatusReport
from repro.net.packet import Packet
from repro.rlc.pdu import RLC_HEADER_BYTES, RlcPdu, RlcSdu
from repro.rlc.um import MIN_SEGMENT_BYTES, UmTransmitter

STATUS_PDU_BYTES = 12
#: NS-3 LENA defaults the paper's case study uses.
DEFAULT_T_POLL_RETRANSMIT_US = 80_000
DEFAULT_T_STATUS_PROHIBIT_US = 20_000
DEFAULT_POLL_PDU = 4
MAX_RETX = 8


@dataclass(frozen=True)
class AmStatus:
    """RLC STATUS PDU: cumulative ACK plus explicit NACKs."""

    ack_sn: int  # all SNs below this were received
    nacks: tuple[int, ...] = ()

    @property
    def wire_bytes(self) -> int:
        return STATUS_PDU_BYTES + 2 * len(self.nacks)


@dataclass
class _UnackedPdu:
    pdu: RlcPdu
    wire_bytes: int
    sent_us: int
    retx_count: int = 0


class AmTransmitter(UmTransmitter):
    """Transmitting RLC AM entity for one UE.

    The UM entity's Tx Q (so the MLFQ intra-user scheduling is shared
    code) plus SN tracking, the Ctrl and Retx queues served ahead of it,
    polling, and retransmission timers.  Keyword arguments other than
    ``poll_pdu`` and ``t_poll_retransmit_us`` configure the Tx Q as for
    :class:`UmTransmitter`.
    """

    def __init__(
        self,
        ue_id: int,
        *,
        poll_pdu: int = DEFAULT_POLL_PDU,
        t_poll_retransmit_us: int = DEFAULT_T_POLL_RETRANSMIT_US,
        **tx_queue_kwargs,
    ) -> None:
        super().__init__(ue_id, **tx_queue_kwargs)
        self.poll_pdu = max(poll_pdu, 1)
        self.t_poll_retransmit_us = t_poll_retransmit_us
        self._next_sn = 0
        self._unacked: "OrderedDict[int, _UnackedPdu]" = OrderedDict()
        self._retx_queue: deque[int] = deque()
        self._retx_pending: set[int] = set()
        self._ctrl_queue: deque[AmStatus] = deque()
        self._pdus_since_poll = 0
        self._poll_outstanding_since: Optional[int] = None
        self.retx_transmissions = 0
        self.spurious_retx = 0
        self.pdus_abandoned = 0

    # -- upper-layer interface --------------------------------------------

    def write_sdu(self, packet: Packet, level: int, now_us: int) -> Optional[RlcSdu]:
        # Defined, not inherited, like ``CongestionControl.on_rtt_sample``:
        # ``benchmarks/perf/layers.py`` wraps it by name, ``spans.py::resolve``
        # wraps only what a class defines itself, and CI fails on
        # ``trace.missing_targets != 0``.
        return super().write_sdu(packet, level, now_us)

    def queue_control(self, status: AmStatus) -> None:
        """Queue a control PDU this entity owes its peer."""
        self._ctrl_queue.append(status)

    # -- MAC interface -----------------------------------------------------

    def has_backlog(self) -> bool:
        """Whether any of the three queues holds something to send."""
        return (
            self.queue.total_bytes > 0
            or bool(self._ctrl_queue)
            or any(sn in self._unacked for sn in self._retx_queue)
        )

    def build_transmissions(
        self, grant_bytes: int, now_us: int
    ) -> list[RlcPdu | AmStatus]:
        """Fill the grant honouring Ctrl > Retx > Tx priority."""
        self._check_poll_timer(now_us)
        out: list[RlcPdu | AmStatus] = []
        budget = grant_bytes
        while self._ctrl_queue and budget >= self._ctrl_queue[0].wire_bytes:
            status = self._ctrl_queue.popleft()
            budget -= status.wire_bytes
            out.append(status)
        while self._retx_queue and budget > RLC_HEADER_BYTES + MIN_SEGMENT_BYTES:
            sn = self._retx_queue[0]
            entry = self._unacked.get(sn)
            if entry is None:  # ACKed while queued for retx
                self._retx_queue.popleft()
                self._retx_pending.discard(sn)
                continue
            if entry.wire_bytes > budget:
                break
            self._retx_queue.popleft()
            self._retx_pending.discard(sn)
            entry.retx_count += 1
            entry.sent_us = now_us
            if entry.retx_count > MAX_RETX:
                # Give up: the bearer would be re-established in practice.
                self._unacked.pop(sn, None)
                self.pdus_abandoned += 1
                continue
            budget -= entry.wire_bytes
            retx = RlcPdu(segments=entry.pdu.segments, sn=sn, is_retx=True)
            out.append(retx)
            self.retx_transmissions += 1
            if self.tracer is not None:
                self.tracer.on_rlc_am_retx(self.ue_id, sn, now_us)
        if budget > RLC_HEADER_BYTES + MIN_SEGMENT_BYTES:
            pdu = self.build_pdu(budget, now_us)
            if pdu is not None:
                pdu.sn = self._next_sn
                self._next_sn += 1
                self._unacked[pdu.sn] = _UnackedPdu(
                    pdu=pdu, wire_bytes=pdu.wire_bytes, sent_us=now_us
                )
                self._pdus_since_poll += 1
                if self._pdus_since_poll >= self.poll_pdu:
                    self._pdus_since_poll = 0
                    if self._poll_outstanding_since is None:
                        self._poll_outstanding_since = now_us
                out.append(pdu)
        return out

    def receive_status(self, status: AmStatus, now_us: int) -> None:
        """Process a STATUS PDU from the peer."""
        self._poll_outstanding_since = None
        acked = [
            sn
            for sn in self._unacked
            if sn < status.ack_sn and sn not in status.nacks
        ]
        for sn in acked:
            del self._unacked[sn]
        for sn in status.nacks:
            if sn in self._unacked and sn not in self._retx_pending:
                self._retx_queue.append(sn)
                self._retx_pending.add(sn)

    def _check_poll_timer(self, now_us: int) -> None:
        """t-PollRetransmit expiry: retransmit the oldest unacked PDU."""
        if self._poll_outstanding_since is None:
            return
        if now_us - self._poll_outstanding_since < self.t_poll_retransmit_us:
            return
        self._poll_outstanding_since = now_us  # re-arm
        if not self._unacked:
            return
        oldest_sn = next(iter(self._unacked))
        if oldest_sn not in self._retx_pending:
            self._retx_queue.appendleft(oldest_sn)
            self._retx_pending.add(oldest_sn)
            self.spurious_retx += 1

    def buffer_status(self, now_us: int) -> BufferStatusReport:
        """BSR whose data volume counts Tx + Retx + Ctrl bytes (TS 38.322)."""
        retx_bytes = sum(
            self._unacked[sn].wire_bytes
            for sn in self._retx_queue
            if sn in self._unacked
        )
        ctrl_bytes = sum(status.wire_bytes for status in self._ctrl_queue)
        return BufferStatusReport(
            self.ue_id,
            self.queue.total_bytes + retx_bytes + ctrl_bytes,
            self.queue.head_level(),
        )

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)

    @property
    def retx_queue_depth(self) -> int:
        """PDUs currently queued for retransmission."""
        return len(self._retx_queue)


class AmReceiver:
    """Receiving RLC AM entity: gap detection, status generation.

    Complete SDUs are delivered upward as soon as all their segments have
    arrived (TCP reorders by sequence number, so strict in-order delivery
    at RLC is unnecessary for the questions this simulator answers).

    SN state is a receive window: every SN below ``_rx_next`` has
    arrived, and only the SNs received above it are remembered, so the
    entity's memory follows the reordering depth, not the run length.
    """

    def __init__(
        self,
        deliver: Callable[[RlcSdu, int], None],
        t_status_prohibit_us: int = DEFAULT_T_STATUS_PROHIBIT_US,
    ) -> None:
        self.deliver = deliver
        self.t_status_prohibit_us = t_status_prohibit_us
        self._rx_next = 0  # lowest SN not yet received
        self._received_sns: set[int] = set()  # received SNs above _rx_next
        self._highest_sn = -1
        self._partials: dict[int, tuple[RlcSdu, int]] = {}
        self._last_status_us: Optional[int] = None
        self.sdus_delivered = 0

    def receive_pdu(self, pdu: RlcPdu, now_us: int) -> Optional[AmStatus]:
        """Process a decoded PDU; maybe emit a STATUS PDU."""
        if pdu.sn >= 0:
            self._note_sn(pdu.sn)
        for segment in pdu.segments:
            sdu = segment.sdu
            if sdu.delivered:
                continue  # duplicate via retransmission
            entry = self._partials.get(sdu.sdu_id)
            received = (entry[1] if entry else 0) + segment.length
            if received >= sdu.size:
                self._partials.pop(sdu.sdu_id, None)
                sdu.delivered = True
                self.sdus_delivered += 1
                self.deliver(sdu, now_us)
            else:
                self._partials[sdu.sdu_id] = (sdu, received)
        return self._maybe_status(now_us)

    def _note_sn(self, sn: int) -> None:
        """Record an arrival; slide the window over contiguous SNs."""
        if sn > self._highest_sn:
            self._highest_sn = sn
        if sn > self._rx_next:
            self._received_sns.add(sn)
        elif sn == self._rx_next:
            sn += 1
            received = self._received_sns
            while sn in received:
                received.remove(sn)
                sn += 1
            self._rx_next = sn

    def missing_sns(self) -> tuple[int, ...]:
        """SNs below the highest received that never arrived."""
        return tuple(
            sn
            for sn in range(self._rx_next, self._highest_sn + 1)
            if sn not in self._received_sns
        )

    def _maybe_status(self, now_us: int) -> Optional[AmStatus]:
        if (
            self._last_status_us is not None
            and now_us - self._last_status_us < self.t_status_prohibit_us
        ):
            return None
        self._last_status_us = now_us
        return AmStatus(ack_sn=self._highest_sn + 1, nacks=self.missing_sns())
