"""IP/TCP packet model and five-tuple flow identity.

Packets in the simulator carry just the fields the layers under study
inspect: the five-tuple (OutRAN's PDCP header inspection keys its flow
table on it), the byte range of the payload (TCP sequencing), and header
sizes (so buffer occupancy and air-time bytes are realistic).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
DEFAULT_MSS = 1400


class FiveTuple(NamedTuple):
    """src/dst addresses and ports plus protocol: the flow identity.

    OutRAN stores 37 bytes per five-tuple in the flow table (section 7);
    we keep it as a hashable tuple.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = 6  # TCP

    def reversed(self) -> "FiveTuple":
        """The five-tuple of the reverse (ACK) direction."""
        return FiveTuple(
            self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.protocol
        )


_packet_ids = itertools.count()


class Packet:
    """One IP packet in flight.

    ``seq`` is the byte offset of the payload start within the flow and
    ``payload_bytes`` its length; ``ack_seq`` is the cumulative ACK carried
    by a reverse-direction packet.  ``wire_bytes`` (headers + payload) is
    what queues and the air interface account.

    ``sent_us`` .. ``last_tx_us`` are the crossing stamps of this copy's
    journey down the stack (see :mod:`repro.telemetry.flowtrace`, which
    writes the last four and keeps no per-packet state of its own).
    """

    __slots__ = (
        "packet_id",
        "flow_id",
        "five_tuple",
        "seq",
        "payload_bytes",
        "is_ack",
        "ack_seq",
        "sack_blocks",
        "sent_us",
        "ingress_us",
        "enqueued_us",
        "first_tx_us",
        "last_tx_us",
        "is_retx",
        "ecn_ce",
        "ece",
    )

    def __init__(
        self,
        five_tuple: FiveTuple,
        flow_id: int,
        seq: int,
        payload_bytes: int,
        is_ack: bool = False,
        ack_seq: int = 0,
        is_retx: bool = False,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        self.packet_id = next(_packet_ids)
        self.five_tuple = five_tuple
        self.flow_id = flow_id
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.sack_blocks: tuple = ()
        self.sent_us: Optional[int] = None
        self.ingress_us: Optional[int] = None
        self.enqueued_us: Optional[int] = None
        self.first_tx_us: Optional[int] = None
        self.last_tx_us: Optional[int] = None
        self.is_retx = is_retx
        #: CE codepoint: set by an AQM when the data packet found a
        #: congested queue (RFC 3168).
        self.ecn_ce = False
        #: ECE echo: set on ACKs by the receiver to relay a CE mark.
        self.ece = False

    @property
    def wire_bytes(self) -> int:
        """On-the-wire size including IP and TCP headers."""
        return IP_HEADER_BYTES + TCP_HEADER_BYTES + self.payload_bytes

    @property
    def end_seq(self) -> int:
        """Byte offset one past the payload of this packet."""
        return self.seq + self.payload_bytes

    def __repr__(self) -> str:
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"Packet({kind} flow={self.flow_id} seq={self.seq} "
            f"len={self.payload_bytes})"
        )
