"""RLC Unacknowledged Mode: the paper's default transmission mode.

The transmitting entity owns the per-UE downlink buffer (default capacity:
128 SDUs, srsENB's default).  OutRAN replaces the single FIFO tx queue
with the per-UE MLFQ (section 4.2, Appendix B splits ``tx_sdu_queue`` into
4 priority queues); passing ``MlfqConfig.single_queue()`` restores the
legacy FIFO.

Segmentation follows Figure 10: when the MAC grant does not cover the head
SDU, the fitting prefix ships and the remainder is *promoted* to the very
front of the queue so the next grant completes it -- otherwise the
receiver's reassembly window can expire and discard the SDU (section 4.4).
``promote_segments=False`` reproduces that failure mode for the ablation.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.mlfq import MlfqConfig, MlfqQueue
from repro.mac.bsr import BufferStatusReport
from repro.net.packet import Packet
from repro.rlc.pdu import RLC_HEADER_BYTES, RlcPdu, RlcSdu, SduSegment

DEFAULT_CAPACITY_SDUS = 128
#: Smallest useful segment: below this the grant is returned unused.
MIN_SEGMENT_BYTES = 8


class UmTransmitter:
    """Transmitting RLC UM entity for one UE."""

    def __init__(
        self,
        ue_id: int,
        mlfq_config: Optional[MlfqConfig] = None,
        capacity_sdus: int = DEFAULT_CAPACITY_SDUS,
        promote_segments: bool = True,
        overflow_policy: str = "drop_incoming",
        on_sdu_dropped: Optional[Callable[[RlcSdu], None]] = None,
        on_sdu_dequeued: Optional[Callable[[RlcSdu, int], None]] = None,
        on_sdu_first_tx: Optional[Callable[[RlcSdu], None]] = None,
        aqm=None,
    ) -> None:
        if capacity_sdus < 1:
            raise ValueError(f"capacity must be >= 1 SDU: {capacity_sdus}")
        self.ue_id = ue_id
        self.queue: MlfqQueue[RlcSdu] = MlfqQueue(mlfq_config)
        self.capacity_sdus = capacity_sdus
        self.promote_segments = promote_segments
        if overflow_policy not in ("drop_incoming", "drop_lowest"):
            raise ValueError(
                f"overflow_policy must be 'drop_incoming' or 'drop_lowest': "
                f"{overflow_policy!r}"
            )
        self.overflow_policy = overflow_policy
        self._on_sdu_dropped = on_sdu_dropped
        self._on_sdu_dequeued = on_sdu_dequeued
        #: Fired when an SDU's first byte enters a PDU -- the point where
        #: OutRAN performs delayed PDCP SN numbering & ciphering (Fig. 10).
        self._on_sdu_first_tx = on_sdu_first_tx
        #: ECN marker consulted at enqueue (None = plain drop-tail).
        self._aqm = aqm
        #: Flow-lifecycle tracer (None keeps enqueue/build emit-free).
        self.tracer = None
        self.sdus_dropped = 0
        self.sdus_sent = 0
        self.pdus_built = 0
        self.segments_sent = 0
        self.sdus_marked = 0

    def write_sdu(self, packet: Packet, level: int, now_us: int) -> Optional[RlcSdu]:
        """Enqueue a downlink packet; returns the SDU, or None on overflow.

        The default overflow policy drops the *incoming* SDU (tail drop),
        matching srsENB's bounded ``tx_sdu_queue``; ``drop_lowest`` instead
        sheds the lowest-priority queued SDU when the incoming one ranks
        strictly higher -- an extension protecting short flows from
        buffers filled by heavy hitters.  TCP observes the loss either way.
        """
        if len(self.queue) >= self.capacity_sdus:
            victim_level = self.queue.tail_level()
            if (
                self.overflow_policy == "drop_lowest"
                and victim_level is not None
                and level < victim_level
            ):
                victim = self.queue.drop_tail()
                self.sdus_dropped += 1
                if victim is not None:
                    if self._on_sdu_dropped is not None:
                        self._on_sdu_dropped(victim[0])
                    if self.tracer is not None:
                        self.tracer.on_rlc_drop(victim[0].packet, now_us)
            else:
                self.sdus_dropped += 1
                if self._on_sdu_dropped is not None:
                    dropped = RlcSdu(packet, level=level, enqueued_us=now_us)
                    self._on_sdu_dropped(dropped)
                if self.tracer is not None:
                    self.tracer.on_rlc_drop(packet, now_us)
                return None
        if self._aqm is not None and self._aqm.should_mark(len(self.queue)):
            # The AQM sees the queue this SDU joins; the CE mark travels
            # with the packet through RLC/PDCP delivery to the receiver.
            packet.ecn_ce = True
            self.sdus_marked += 1
        sdu = RlcSdu(packet, level=level, enqueued_us=now_us)
        self.queue.push(sdu, sdu.size, level)
        if self.tracer is not None:
            self.tracer.on_rlc_enqueue(sdu, now_us)
        return sdu

    def build_pdu(self, grant_bytes: int, now_us: int) -> Optional[RlcPdu]:
        """Assemble one RLC PDU of at most ``grant_bytes`` wire bytes."""
        if grant_bytes <= RLC_HEADER_BYTES + MIN_SEGMENT_BYTES:
            return None
        pdu = RlcPdu()
        budget = grant_bytes
        while self.queue:
            sdu, _ = self.queue.peek()
            room = budget - RLC_HEADER_BYTES
            if room < MIN_SEGMENT_BYTES:
                break
            take = min(sdu.remaining, room)
            if take < sdu.remaining and take < MIN_SEGMENT_BYTES:
                break
            self.queue.pop()
            segment = SduSegment(sdu=sdu, offset=sdu.sent_bytes, length=take)
            if segment.is_first:
                if self._on_sdu_first_tx is not None:
                    self._on_sdu_first_tx(sdu)
                if self.tracer is not None:
                    self.tracer.on_rlc_first_tx(sdu, now_us)
            sdu.sent_bytes += take
            pdu.segments.append(segment)
            self.segments_sent += 1
            budget -= take + RLC_HEADER_BYTES
            if sdu.remaining > 0:
                # Segmented SDU: keep the remainder at the very front
                # (promotion) or at the head of its own level (strict).
                if self.promote_segments:
                    self.queue.push_promoted(sdu, sdu.remaining)
                else:
                    self.queue.push_front(sdu, sdu.remaining, sdu.level)
                break
            self.sdus_sent += 1
            if self.tracer is not None:
                self.tracer.on_rlc_last_tx(sdu, now_us)
            if self._on_sdu_dequeued is not None:
                self._on_sdu_dequeued(sdu, now_us - sdu.enqueued_us)
        if pdu:
            self.pdus_built += 1
            return pdu
        return None

    def boost_priorities(self) -> None:
        """Move all queued SDUs to the top queue (priority reset support)."""
        self.queue.boost_all()

    def buffer_status(self, now_us: int) -> BufferStatusReport:
        """BSR carrying total bytes plus the OutRAN priority attribute."""
        hol_delay_us = 0
        if self.queue:
            sdu, _ = self.queue.peek()
            hol_delay_us = max(now_us - sdu.enqueued_us, 0)
        return BufferStatusReport(
            ue_id=self.ue_id,
            total_bytes=self.queue.total_bytes,
            head_level=self.queue.head_level(),
            level_bytes=tuple(self.queue.level_bytes()),
            hol_delay_us=hol_delay_us,
        )

    @property
    def buffered_bytes(self) -> int:
        return self.queue.total_bytes

    @property
    def buffered_sdus(self) -> int:
        return len(self.queue)


class UmReceiver:
    """Receiving RLC UM entity: reassembly with a discard window.

    Complete SDUs are delivered upward immediately.  A partially received
    SDU whose remaining segments do not arrive within
    ``reassembly_window_us`` is discarded (3GPP TS 38.322 t-Reassembly
    behaviour) -- the loss TCP must then repair.
    """

    def __init__(
        self,
        deliver: Callable[[RlcSdu, int], None],
        reassembly_window_us: int = 50_000,
    ) -> None:
        self.deliver = deliver
        self.reassembly_window_us = reassembly_window_us
        #: sdu_id -> (sdu, bytes received, first seen).  Entries keep
        #: their insertion position on update, and ``first_seen`` is
        #: stamped at insertion from the monotone event clock, so dict
        #: order == first-seen order: the expired entries are a prefix.
        self._partials: dict[int, tuple[RlcSdu, int, int]] = {}
        self.sdus_delivered = 0
        self.sdus_discarded = 0

    def receive_pdu(self, pdu: RlcPdu, now_us: int) -> None:
        """Process every segment in a successfully decoded PDU."""
        self.flush_expired(now_us)
        for segment in pdu.segments:
            sdu = segment.sdu
            if segment.is_first and segment.is_last:
                self.sdus_delivered += 1
                self.deliver(sdu, now_us)
                continue
            entry = self._partials.get(sdu.sdu_id)
            received = (entry[1] if entry else 0) + segment.length
            first_seen = entry[2] if entry else now_us
            if received >= sdu.size:
                self._partials.pop(sdu.sdu_id, None)
                self.sdus_delivered += 1
                self.deliver(sdu, now_us)
            else:
                self._partials[sdu.sdu_id] = (sdu, received, first_seen)

    def flush_expired(self, now_us: int) -> int:
        """Discard partials older than the reassembly window."""
        partials = self._partials
        count = 0
        while partials:
            sdu_id = next(iter(partials))
            if now_us - partials[sdu_id][2] <= self.reassembly_window_us:
                break
            del partials[sdu_id]
            self.sdus_discarded += 1
            count += 1
        return count

    @property
    def pending_partials(self) -> int:
        return len(self._partials)
