"""RLC layer: UM/AM transmitting and receiving entities."""

from repro.rlc.pdu import RlcSdu, RlcPdu, SduSegment
from repro.rlc.um import UmTransmitter, UmReceiver
from repro.rlc.am import AmTransmitter, AmReceiver

__all__ = [
    "RlcSdu",
    "RlcPdu",
    "SduSegment",
    "UmTransmitter",
    "UmReceiver",
    "AmTransmitter",
    "AmReceiver",
]
