"""TCP-Cubic window policy (RFC 8312) -- the simulator's default sender.

:class:`CubicState` and the growth/loss/RTO arithmetic moved here verbatim
from ``repro.net.tcp`` when the CC policy was extracted behind
:class:`~repro.cc.base.CongestionControl`; with ECN off, a
:class:`CubicCC`-driven flow executes the identical float-operation
sequence the inlined sender did (the golden corpus pins this
byte-for-byte).

The ECN response is classic RFC 3168/8511 behaviour: at most one
multiplicative decrease per window of data, using the same
``beta = 0.7`` reduction a loss would apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cc.base import CongestionControl
from repro.net.packet import DEFAULT_MSS

CUBIC_C = 0.4
CUBIC_BETA = 0.7


@dataclass
class CubicState:
    """CUBIC's per-flow variables (RFC 8312 naming)."""

    w_max_bytes: float = 0.0
    epoch_start_us: Optional[int] = None
    k_s: float = 0.0
    ssthresh_bytes: float = math.inf

    def enter_recovery(self, cwnd_bytes: float, mss: int) -> float:
        """On loss: remember W_max, shrink the window (never below two
        segments); returns new cwnd."""
        self.w_max_bytes = cwnd_bytes
        self.epoch_start_us = None
        new_cwnd = max(cwnd_bytes * CUBIC_BETA, 2.0 * mss)
        self.ssthresh_bytes = new_cwnd
        return new_cwnd

    def target_bytes(self, now_us: int, cwnd_bytes: float, mss: int) -> float:
        """CUBIC window target W(t) = C*(t-K)^3 + W_max (in bytes)."""
        if self.epoch_start_us is None:
            self.epoch_start_us = now_us
            if cwnd_bytes < self.w_max_bytes:
                self.k_s = ((self.w_max_bytes - cwnd_bytes) / mss / CUBIC_C) ** (
                    1.0 / 3.0
                )
            else:
                self.k_s = 0.0
                self.w_max_bytes = cwnd_bytes
        t_s = (now_us - self.epoch_start_us) / 1e6
        w_mss = CUBIC_C * (t_s - self.k_s) ** 3 + self.w_max_bytes / mss
        return w_mss * mss


class CubicCC(CongestionControl):
    """Slow start + CUBIC congestion avoidance + beta=0.7 reductions."""

    name = "cubic"

    def __init__(
        self, mss: int = DEFAULT_MSS, initial_cwnd_segments: int = 10
    ) -> None:
        self.mss = mss
        self.cwnd_bytes = float(initial_cwnd_segments * mss)
        self.cubic = CubicState()
        #: ECN window gate: marks at or above this cumulative-ACK point
        #: belong to a new window of data and may cut again (RFC 8511's
        #: once-per-RTT reaction, delimited in sequence space).
        self._ecn_gate = 0

    # -- growth (byte-identical to the pre-extraction sender) -------------

    def on_ack(
        self, newly_acked: int, ack_seq: int, snd_nxt: int, now_us: int
    ) -> None:
        if self.cwnd_bytes < self.cubic.ssthresh_bytes:
            self.cwnd_bytes += newly_acked  # slow start
        else:
            target = self.cubic.target_bytes(now_us, self.cwnd_bytes, self.mss)
            if target > self.cwnd_bytes:
                self.cwnd_bytes += (
                    (target - self.cwnd_bytes) / self.cwnd_bytes
                ) * newly_acked
            else:
                self.cwnd_bytes += 0.01 * newly_acked  # TCP-friendly floor

    # -- congestion signals ------------------------------------------------

    def on_ecn(
        self, newly_acked: int, ack_seq: int, snd_nxt: int, now_us: int
    ) -> None:
        # No growth on a marked ACK; at most one reduction per window.
        if ack_seq >= self._ecn_gate:
            self.cwnd_bytes = self.cubic.enter_recovery(self.cwnd_bytes, self.mss)
            self._ecn_gate = snd_nxt

    def on_loss(self, now_us: int) -> None:
        self.cwnd_bytes = self.cubic.enter_recovery(self.cwnd_bytes, self.mss)

    def on_recovery_exit(self, now_us: int) -> None:
        # Deflate the dupack-inflated window back to ssthresh
        # (NewReno/RFC 6675).
        self.cwnd_bytes = max(self.cubic.ssthresh_bytes, 2.0 * self.mss)

    def on_rto(self, now_us: int) -> None:
        self.cubic.ssthresh_bytes = max(self.cwnd_bytes / 2.0, 2.0 * self.mss)
        self.cubic.w_max_bytes = self.cwnd_bytes
        self.cubic.epoch_start_us = None
        self.cwnd_bytes = float(2.0 * self.mss)
