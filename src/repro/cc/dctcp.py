"""DCTCP window policy (RFC 8257): ECN-proportional decrease.

DCTCP turns the AQM's binary CE marks into a *fraction*: the sender
tracks, per window of data, what share of ACKed bytes carried the ECE
echo, folds it into an EWMA ``alpha``, and -- when a window saw any marks
-- cuts multiplicatively by ``alpha / 2`` instead of a blind halving.  A
lightly marked queue costs a few percent of window; a persistently marked
one converges to the full Reno cut.  Growth is Reno (slow start, then one
MSS per RTT), the behaviour DCTCP inherits.

Loss handling stays conservative (Reno halving), since a drop means the
AQM's marking headroom was exhausted.
"""

from __future__ import annotations

import math

from repro.cc.base import CongestionControl
from repro.net.packet import DEFAULT_MSS

#: RFC 8257's recommended EWMA gain g = 1/16.
DCTCP_G = 0.0625


class DctcpCC(CongestionControl):
    """EWMA of the marked-byte fraction gating multiplicative decrease."""

    name = "dctcp"

    def __init__(
        self,
        mss: int = DEFAULT_MSS,
        initial_cwnd_segments: int = 10,
        g: float = DCTCP_G,
    ) -> None:
        if not 0.0 < g <= 1.0:
            raise ValueError(f"dctcp gain g in (0, 1]: {g}")
        self.mss = mss
        self.cwnd_bytes = float(initial_cwnd_segments * mss)
        self.ssthresh_bytes = math.inf
        self.g = g
        #: RFC 8257 initializes alpha to 1: the first marked window reacts
        #: with a full halving until real measurements decay it.
        self.alpha = 1.0
        # Per-window observation state, delimited in sequence space.
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._saw_mark = False
        self._window_end = 0
        self.windows_observed = 0
        self.ecn_cuts = 0

    def _account(
        self, newly_acked: int, marked: bool, ack_seq: int, snd_nxt: int
    ) -> None:
        self._acked_bytes += newly_acked
        if marked:
            self._marked_bytes += newly_acked
            self._saw_mark = True
        if ack_seq < self._window_end:
            return
        # Window rollover: fold the observed fraction into alpha, apply
        # at most one proportional cut, open the next window.
        if self._acked_bytes > 0:
            fraction = self._marked_bytes / self._acked_bytes
            self.alpha = (1.0 - self.g) * self.alpha + self.g * fraction
            self.windows_observed += 1
        if self._saw_mark:
            self.cwnd_bytes = max(
                self.cwnd_bytes * (1.0 - self.alpha / 2.0), 2.0 * self.mss
            )
            self.ssthresh_bytes = self.cwnd_bytes
            self.ecn_cuts += 1
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._saw_mark = False
        self._window_end = snd_nxt

    def _grow(self, newly_acked: int) -> None:
        if self.cwnd_bytes < self.ssthresh_bytes:
            self.cwnd_bytes += newly_acked  # slow start
        else:
            self.cwnd_bytes += self.mss * newly_acked / self.cwnd_bytes

    # -- CongestionControl -------------------------------------------------

    def on_ack(
        self, newly_acked: int, ack_seq: int, snd_nxt: int, now_us: int
    ) -> None:
        self._account(newly_acked, False, ack_seq, snd_nxt)
        self._grow(newly_acked)

    def on_ecn(
        self, newly_acked: int, ack_seq: int, snd_nxt: int, now_us: int
    ) -> None:
        # Marked bytes still count toward the window; no growth on them.
        self._account(newly_acked, True, ack_seq, snd_nxt)

    def on_loss(self, now_us: int) -> None:
        self.ssthresh_bytes = max(self.cwnd_bytes / 2.0, 2.0 * self.mss)
        self.cwnd_bytes = self.ssthresh_bytes

    def on_recovery_exit(self, now_us: int) -> None:
        self.cwnd_bytes = max(self.ssthresh_bytes, 2.0 * self.mss)

    def on_rto(self, now_us: int) -> None:
        self.ssthresh_bytes = max(self.cwnd_bytes / 2.0, 2.0 * self.mss)
        self.cwnd_bytes = float(2.0 * self.mss)
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._saw_mark = False
