"""Proportional Fair, Max Throughput, and Round Robin MAC schedulers.

Eq. (1) of the paper:

* **MT**:  ``m_{u,b} = r_{u,b}(t)`` -- pure spectral-efficiency chasing.
* **PF**:  ``m_{u,b} = r_{u,b}(t) / R~_u(t-1)`` -- rate normalized by the
  EWMA throughput, smoothed over the *fairness window* Tf.  Small Tf
  approaches round-robin behaviour; very large Tf approaches MT
  (Figure 18a).
* **RR**: time-since-last-service, channel-blind; included as the
  fairness-extreme reference.
"""

from __future__ import annotations

import numpy as np

from repro.mac.kernels import as_table
from repro.mac.scheduler import MetricScheduler, UeTable


class ProportionalFairScheduler(MetricScheduler):
    """The de-facto standard xNodeB scheduler (paper baseline)."""

    name = "pf"

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        return np.divide(rates, as_table(ues).ewma_bps[:, None], order="C")


class MaxThroughputScheduler(MetricScheduler):
    """Maximize spectral efficiency; ignores fairness entirely."""

    name = "mt"

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        return np.ascontiguousarray(rates, dtype=float)


class BlindEqualThroughputScheduler(MetricScheduler):
    """Equalize long-term throughput, blind to the channel.

    Metric ``1 / R~_u``: the least-served user wins every RB.  This is
    the time-domain stage NS-3's PSS uses and the Tf -> 0 limit of PF.
    """

    name = "bet"

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        inv = 1.0 / as_table(ues).ewma_bps
        return np.broadcast_to(inv[:, None], rates.shape).copy()


class RoundRobinScheduler(MetricScheduler):
    """Serve the longest-waiting user; channel-blind fairness extreme."""

    name = "rr"

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        # Subtract in exact int64 first, then widen with the +1.0: the
        # order (and therefore rounding) of ``now_us - last_served_us + 1.0``.
        waited = (now_us - as_table(ues).last_served_us) + 1.0
        return np.broadcast_to(waited[:, None], rates.shape).copy()
