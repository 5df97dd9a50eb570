"""Network substrate: packets, TCP-Cubic transport, QoS profiles."""

from repro.net.packet import FiveTuple, Packet
from repro.net.tcp import TcpFlow, TcpReceiver
from repro.net.qos_profile import QosProfile, QCI_TABLE, profile_for_application

__all__ = [
    "FiveTuple",
    "Packet",
    "TcpFlow",
    "TcpReceiver",
    "QosProfile",
    "QCI_TABLE",
    "profile_for_application",
]
