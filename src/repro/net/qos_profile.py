"""3GPP QoS class registry reproducing the paper's Table 1.

The paper's measurement on a commercial-grade 4G/5G testbed found that all
internet-based applications (web, social, video, file transfer) share the
default best-effort bearer (QCI/5QI = 6); only VoIP (QCI 1, GBR) and IMS
signalling (QCI 5) get dedicated treatment.  The simulator uses this
registry when deciding which traffic a QoS-aware baseline (PSS/CQA) may
prioritize and which traffic is best-effort for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class TrafficClass(Enum):
    """3GPP TS 23.107 generic traffic classes."""

    CONVERSATIONAL = "conversational"
    STREAMING = "streaming"
    INTERACTIVE = "interactive"
    BACKGROUND = "background"


@dataclass(frozen=True)
class QosProfile:
    """One QCI/5QI row: resource type, priority, delay budget."""

    qci: int
    resource_type: str  # "GBR" or "Non-GBR"
    priority: int  # lower value = higher priority
    packet_delay_budget_ms: int
    packet_error_rate: float
    traffic_class: TrafficClass
    guaranteed_bitrate_kbps: int = 0


#: Subset of TS 23.203 Table 6.1.7 covering the classes in paper Table 1.
QCI_TABLE: dict[int, QosProfile] = {
    1: QosProfile(1, "GBR", 2, 100, 1e-2, TrafficClass.CONVERSATIONAL, 14),
    2: QosProfile(2, "GBR", 4, 150, 1e-3, TrafficClass.CONVERSATIONAL),
    4: QosProfile(4, "GBR", 5, 300, 1e-6, TrafficClass.STREAMING),
    5: QosProfile(5, "Non-GBR", 1, 100, 1e-6, TrafficClass.INTERACTIVE),
    6: QosProfile(6, "Non-GBR", 6, 300, 1e-6, TrafficClass.INTERACTIVE),
    7: QosProfile(7, "Non-GBR", 7, 100, 1e-3, TrafficClass.INTERACTIVE),
    8: QosProfile(8, "Non-GBR", 8, 300, 1e-6, TrafficClass.BACKGROUND),
    9: QosProfile(9, "Non-GBR", 9, 300, 1e-6, TrafficClass.BACKGROUND),
}

#: Paper Table 1: what the commercial testbed actually assigned.
APPLICATION_QCI: dict[str, int] = {
    "voip": 1,
    "ims_signaling": 5,
    "web_browsing": 6,
    "social_networking": 6,
    "tcp_video": 6,
    "file_transfer": 6,
}

APPLICATION_TRAFFIC_CLASS: dict[str, TrafficClass] = {
    "voip": TrafficClass.CONVERSATIONAL,
    "ims_signaling": TrafficClass.INTERACTIVE,
    "web_browsing": TrafficClass.INTERACTIVE,
    "social_networking": TrafficClass.INTERACTIVE,
    "tcp_video": TrafficClass.BACKGROUND,
    "file_transfer": TrafficClass.BACKGROUND,
}


def profile_for_application(application: str) -> QosProfile:
    """QoS profile a commercial network assigns to ``application``.

    Reproduces Table 1: everything except VoIP and IMS signalling maps to
    the default best-effort bearer (QCI 6).
    """
    try:
        qci = APPLICATION_QCI[application]
    except KeyError:
        raise ValueError(
            f"unknown application {application!r}; "
            f"known: {sorted(APPLICATION_QCI)}"
        ) from None
    return QCI_TABLE[qci]
