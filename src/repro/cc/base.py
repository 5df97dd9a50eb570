"""The pluggable congestion-control interface.

:class:`~repro.net.tcp.TcpFlow` owns the mechanics every sender shares --
sequencing, the SACK scoreboard, loss detection (dupacks, the RTO timer,
hole retransmission) and the recovery state machine.  What it delegates is
*policy*: how the congestion window reacts to ACKed bytes, ECN-echo
feedback, loss, and timeouts.  A :class:`CongestionControl` holds exactly
that policy plus the window itself (``cwnd_bytes``), so a checkpoint that
pickles the flow pickles the full CC state with it.

Call contract (all driven by ``TcpFlow``):

* ``on_ack`` -- an in-order cumulative ACK without ECN-echo advanced
  ``snd_una`` by ``newly_acked`` bytes, outside loss recovery.
* ``on_ecn`` -- same, but the ACK carried the ECE echo of a CE mark.
  The CC must account the bytes *and* apply its mark response (at most
  once per window of data; ``ack_seq``/``snd_nxt`` delimit windows).
* ``on_loss`` -- fast retransmit fired (entering loss recovery).
* ``on_recovery_exit`` -- the recovery point was cumulatively ACKed.
* ``on_rto`` -- the retransmission timer fired.
* ``on_rtt_sample`` -- a Karn-valid RTT measurement (retransmitted
  segments never produce one).

Implementations must be deterministic and picklable: no wall clock, no
module-global randomness, bound state only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class CongestionControl(ABC):
    """Window policy of one TCP sender.  Subclasses own ``cwnd_bytes``."""

    #: Registry name ("cubic", "dctcp").
    name: str = "?"
    #: The congestion window, in bytes (float: growth is fractional).
    cwnd_bytes: float

    @abstractmethod
    def on_ack(
        self, newly_acked: int, ack_seq: int, snd_nxt: int, now_us: int
    ) -> None:
        """Grow for ``newly_acked`` in-order bytes (no ECE, no recovery)."""

    @abstractmethod
    def on_ecn(
        self, newly_acked: int, ack_seq: int, snd_nxt: int, now_us: int
    ) -> None:
        """Account ``newly_acked`` ECE-marked bytes and react to the mark."""

    @abstractmethod
    def on_loss(self, now_us: int) -> None:
        """Fast retransmit: shrink the window, remember ssthresh."""

    @abstractmethod
    def on_recovery_exit(self, now_us: int) -> None:
        """Recovery point ACKed: deflate the window back to ssthresh."""

    @abstractmethod
    def on_rto(self, now_us: int) -> None:
        """Retransmission timeout: collapse the window."""

    def on_rtt_sample(self, rtt_us: int, now_us: int) -> None:
        """A Karn-valid RTT sample (ignored: no window policy here reads
        it; ``benchmarks/perf/layers.py`` wraps the hook by name)."""
