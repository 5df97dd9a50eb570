"""Hybrid-ARQ: fast MAC-layer retransmission of failed transport blocks.

LTE/NR base stations retransmit a transport block that fails decoding
~8 ms after the original attempt (the HARQ round-trip), with soft
combining improving the decode probability each attempt.  HARQ sits
*below* RLC: the UM mode relies on it entirely, and the AM mode's RLC
retransmissions only catch the residue after HARQ gives up.

The model keeps a per-UE queue of failed transport blocks.  A pending
retransmission becomes *due* one HARQ RTT after the failed attempt and
is then served at the head of the UE's next grant (HARQ retransmissions
outrank new data on the physical layer).  Each re-attempt multiplies the
error probability by a combining gain; after ``max_retx`` failed
attempts the block is abandoned and the upper layers (RLC AM status
reporting, or TCP end-to-end) take over.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

DEFAULT_MAX_RETX = 3
#: Soft-combining multiplier on the residual error probability per
#: re-attempt (chase combining yields a few dB of SNR gain).
DEFAULT_COMBINING_GAIN = 0.3


class HarqProcess:
    """One transport block awaiting retransmission."""

    __slots__ = ("items", "tb_bytes", "attempts", "due_us", "error_prob")

    def __init__(
        self, items: list, tb_bytes: int, error_prob: float, due_us: int
    ) -> None:
        self.items = items
        self.tb_bytes = tb_bytes
        self.attempts = 1  # the failed initial transmission
        self.due_us = due_us
        self.error_prob = error_prob

    def next_attempt(self, combining_gain: float) -> None:
        """Account one more transmission attempt with soft combining."""
        self.attempts += 1
        self.error_prob *= combining_gain


class HarqEntity:
    """Per-UE HARQ state at the xNodeB."""

    def __init__(
        self,
        seed: int,
        rtt_us: int,
        max_retx: int = DEFAULT_MAX_RETX,
        combining_gain: float = DEFAULT_COMBINING_GAIN,
        ue_id: int = -1,
        tracer=None,
    ) -> None:
        if rtt_us <= 0:
            raise ValueError(f"HARQ RTT must be positive: {rtt_us}")
        if max_retx < 0:
            raise ValueError(f"max_retx must be >= 0: {max_retx}")
        if not 0.0 < combining_gain <= 1.0:
            raise ValueError(f"combining gain in (0, 1]: {combining_gain}")
        self._seed = seed  # becomes ``_rng`` at the first decode draw
        self._rng: Optional[np.random.Generator] = None
        self.rtt_us = rtt_us
        self.max_retx = max_retx
        self.combining_gain = combining_gain
        self.ue_id = ue_id
        #: Flow-lifecycle tracer (None keeps failure/retx paths emit-free).
        self.tracer = tracer
        self._pending: list[HarqProcess] = []
        self.retransmissions = 0
        self.abandoned = 0

    # -- bookkeeping -----------------------------------------------------

    def on_initial_failure(
        self, items: list, tb_bytes: int, error_prob: float, now_us: int
    ) -> Optional[HarqProcess]:
        """Register a failed first transmission; returns the process.

        With ``max_retx == 0`` the block is abandoned immediately
        (HARQ disabled at the process level) and None is returned.
        """
        if self.tracer is not None:
            self.tracer.on_harq_failure(self.ue_id, tb_bytes, now_us)
        if self.max_retx == 0:
            self.abandoned += 1
            return None
        process = HarqProcess(items, tb_bytes, error_prob, now_us + self.rtt_us)
        self._pending.append(process)
        return process

    def due_processes(self, now_us: int) -> list[HarqProcess]:
        """Pending retransmissions whose HARQ RTT has elapsed."""
        return [p for p in self._pending if p.due_us <= now_us]

    @property
    def pending_bytes(self) -> int:
        """Bytes awaiting retransmission (for scheduling/backlog checks)."""
        return sum(p.tb_bytes for p in self._pending)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    # -- retransmission ----------------------------------------------------

    def attempt(self, process: HarqProcess, now_us: int) -> bool:
        """Retransmit one block; returns True when it decodes.

        On success or abandonment the process leaves the pending queue;
        on another failure it is re-armed one HARQ RTT later.
        """
        if process not in self._pending:
            raise ValueError("process is not pending")
        self.retransmissions += 1
        process.next_attempt(self.combining_gain)
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        decoded = bool(self._rng.random() >= process.error_prob)
        if self.tracer is not None:
            self.tracer.on_harq_attempt(
                self.ue_id, _flow_ids(process.items), decoded, now_us
            )
        if decoded:
            self._pending.remove(process)
            return True
        if process.attempts > self.max_retx:
            self._pending.remove(process)
            self.abandoned += 1
        else:
            process.due_us = now_us + self.rtt_us
        return False


def _flow_ids(items: Sequence) -> set[int]:
    """Distinct flow ids carried by a transport block's RLC PDUs."""
    return {
        segment.sdu.packet.flow_id
        for item in items
        for segment in getattr(item, "segments", ())
    }
