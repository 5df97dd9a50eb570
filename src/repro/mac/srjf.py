"""Shortest Remaining Job First: the clairvoyant flow-scheduling oracle.

Section 3 and the Figure 15 baselines: SRJF assumes perfect knowledge of
remaining flow sizes and always serves the user whose active flow has the
fewest bytes left -- completely ignoring channel quality.  It bounds the
achievable short-flow FCT, and simultaneously demonstrates the cost of
channel-blind flow scheduling: it collapses spectral efficiency and user
fairness (Figure 4), because a user in a deep fade can monopolize the
whole grid at a terrible rate.
"""

from __future__ import annotations

import numpy as np

from repro.mac.kernels import as_table
from repro.mac.scheduler import MetricScheduler, UeTable


class SrjfScheduler(MetricScheduler):
    """Channel-blind SRJF over the users' shortest active flows."""

    name = "srjf"
    oracle_columns = ("remaining_flow",)

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        # Smaller remaining size -> larger metric, identical across RBs
        # (the scheduler is channel-agnostic by construction).
        metric = 1.0 / (as_table(ues).remaining_flow + 1.0)
        return np.broadcast_to(metric[:, None], rates.shape).copy()
