"""Batched TCP sender-state harvesting.

The per-flow TCP model is event-driven (senders wake on their own ACK and
RTO events), so there is no per-TTI TCP loop to vectorize -- the in-run
fast path is :class:`~repro.net.tcp.TcpFlow`'s O(1) RTT sampler.  What
*does* scan every sender is end-of-run telemetry harvesting: one Python
loop over every flow the run ever created, per counter.  This module
collapses that into a single pass that fills numpy arrays and reduces
them with array ops (the outputs are exact integer sums and the same
float reductions the scalar loop produced, so harvested telemetry stays
byte-identical).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from repro.net.tcp import TcpFlow

__all__ = ["SenderStats", "harvest_sender_stats"]


class SenderStats:
    """Aggregated lifetime counters over a population of TCP senders."""

    __slots__ = (
        "packets_sent",
        "retransmits",
        "rto_firings",
        "ecn_ce_acks",
        "live_cwnd_bytes",
    )

    def __init__(
        self,
        packets_sent: int,
        retransmits: int,
        rto_firings: int,
        ecn_ce_acks: int,
        live_cwnd_bytes: np.ndarray,
    ) -> None:
        self.packets_sent = packets_sent
        self.retransmits = retransmits
        self.rto_firings = rto_firings
        self.ecn_ce_acks = ecn_ce_acks
        #: cwnd of every sender still running at harvest time.
        self.live_cwnd_bytes = live_cwnd_bytes

    @property
    def cwnd_mean(self) -> float:
        if self.live_cwnd_bytes.size == 0:
            return 0.0
        return float(np.mean(self.live_cwnd_bytes))

    @property
    def cwnd_max(self) -> float:
        if self.live_cwnd_bytes.size == 0:
            return 0.0
        return float(max(self.live_cwnd_bytes))


def harvest_sender_stats(senders: Iterable["TcpFlow"]) -> SenderStats:
    """One pass over ``senders``; reductions done as array ops.

    Counter sums are exact (Python ints); the cwnd reductions use the
    same ``np.mean`` / builtin ``max`` the scalar harvest loop used, so
    the resulting telemetry values are bit-identical.
    """
    flat: list[int] = []
    cwnds: list[float] = []
    for sender in senders:
        flat.append(sender.packets_sent)
        flat.append(sender.retransmits)
        flat.append(sender.rto_firings)
        flat.append(sender.ecn_ce_acks)
        if not sender.done:
            cwnds.append(sender.cwnd_bytes)
    counts = np.asarray(flat, dtype=np.int64).reshape(-1, 4)
    totals = counts.sum(axis=0) if counts.size else np.zeros(4, dtype=np.int64)
    return SenderStats(
        packets_sent=int(totals[0]),
        retransmits=int(totals[1]),
        rto_firings=int(totals[2]),
        ecn_ce_acks=int(totals[3]),
        live_cwnd_bytes=np.asarray(cwnds, dtype=np.float64),
    )
