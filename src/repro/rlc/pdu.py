"""RLC data units: SDUs, segments, and concatenated PDUs.

One RLC SDU wraps one PDCP PDU (one downlink IP packet).  When the MAC
grants a UE ``N`` bytes for a TTI, the transmitting RLC entity dequeues
SDUs, segmenting the last one if it does not fit, and concatenates them
into a single RLC PDU (Figure 9).  The receiving entity reassembles
segmented SDUs and delivers only complete SDUs upward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import Packet

#: Per-SDU RLC/MAC header overhead inside a PDU (length indicator etc.).
RLC_HEADER_BYTES = 3

_sdu_ids = itertools.count()


class RlcSdu:
    """One queued RLC SDU and its transmission progress."""

    __slots__ = (
        "sdu_id",
        "packet",
        "size",
        "sent_bytes",
        "level",
        "enqueued_us",
        "pdcp_sn",
        "delivered",
    )

    def __init__(
        self,
        packet: Packet,
        level: int = 0,
        enqueued_us: int = 0,
        pdcp_sn: Optional[int] = None,
    ) -> None:
        self.sdu_id = next(_sdu_ids)
        self.packet = packet
        self.size = packet.wire_bytes
        self.sent_bytes = 0
        self.level = level
        self.enqueued_us = enqueued_us
        #: PDCP sequence number; None until numbering happens (OutRAN
        #: delays SN assignment & ciphering to PDU-build time, section 4.4).
        self.pdcp_sn = pdcp_sn
        #: Set by the AM receiving entity once the reassembled SDU went
        #: up the stack, so a retransmitted copy is recognised on the
        #: object both ends share instead of in a set of every id seen.
        self.delivered = False

    @property
    def remaining(self) -> int:
        """Bytes of this SDU not yet placed into a PDU."""
        return self.size - self.sent_bytes

    def __repr__(self) -> str:
        return (
            f"RlcSdu(id={self.sdu_id}, size={self.size}, "
            f"sent={self.sent_bytes}, level={self.level})"
        )


@dataclass(frozen=True)
class SduSegment:
    """A contiguous byte range of one SDU carried inside a PDU."""

    sdu: RlcSdu
    offset: int
    length: int

    @property
    def is_first(self) -> bool:
        return self.offset == 0

    @property
    def is_last(self) -> bool:
        return self.offset + self.length == self.sdu.size


@dataclass
class RlcPdu:
    """One MAC-layer transport unit: concatenated SDU segments.

    ``sn`` is meaningful in AM mode (retransmission tracking); UM PDUs in
    this model carry ``sn = -1``.
    """

    segments: list[SduSegment] = field(default_factory=list)
    sn: int = -1
    is_retx: bool = False

    @property
    def payload_bytes(self) -> int:
        return sum(seg.length for seg in self.segments)

    @property
    def wire_bytes(self) -> int:
        """Payload plus per-segment RLC header overhead."""
        return self.payload_bytes + RLC_HEADER_BYTES * max(len(self.segments), 1)

    def __bool__(self) -> bool:
        return bool(self.segments)
