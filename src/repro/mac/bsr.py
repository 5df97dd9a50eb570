"""Buffer Status Report: RLC -> MAC, extended with MLFQ priority.

In the downlink, srsENB's MAC learns how much data each UE's RLC entity
has buffered through a buffer status report.  OutRAN extends the report
with a ``priority`` attribute -- the level of the highest-priority
non-empty MLFQ queue -- so the MAC-layer inter-user scheduler can compare
users by the shortness of their head flow (Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Level a report without a head level (empty buffer, plain FIFO) sorts
#: at in the inter-user comparison; worse than any real level.
IDLE_LEVEL = 1 << 30


@dataclass(frozen=True)
class BufferStatusReport:
    """Snapshot of one UE's downlink RLC buffer for the MAC scheduler."""

    ue_id: int
    #: Data volume: the Tx Q, plus the Retx and Ctrl queues in AM.
    total_bytes: int
    #: Level (0 = highest priority) of the head MLFQ queue; None when the
    #: buffer is empty or the RLC runs a plain FIFO.
    head_level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError(f"negative buffer: {self.total_bytes}")

    @property
    def has_data(self) -> bool:
        """True when the UE needs a transmission opportunity."""
        return self.total_bytes > 0


def empty_report(ue_id: int) -> BufferStatusReport:
    """Report for a UE with nothing buffered."""
    return BufferStatusReport(ue_id=ue_id, total_bytes=0)
