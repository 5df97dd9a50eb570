"""The OutRAN MAC scheduler: legacy metric + inter-user re-selection.

OutRAN wraps any per-RB-metric scheduler (PF by default, the de-facto
standard).  Each TTI it:

1. computes the legacy metric matrix (first iteration of Algorithm 1),
2. applies the epsilon relaxation and re-selects, per RB, the candidate
   whose buffer status report advertises the highest MLFQ priority
   (second iteration).

Complexity stays ``O(|U||B|)`` -- one extra pass over users per RB --
matching the paper's practicality requirement.  The intra-user half of
OutRAN lives in the RLC entities (:mod:`repro.rlc.um` /
:mod:`repro.rlc.am`), which drain each user's grant in MLFQ order.

``epsilon = 0.2`` is the paper's recommended balance (Figure 8);
``epsilon = 0`` yields intra-user-only OutRAN (the Figure 18b ablation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.inter_user import reselect_users_top_k
from repro.mac.kernels import as_table, epsilon_owner, plain_owner
from repro.mac.pf import ProportionalFairScheduler
from repro.mac.scheduler import MacScheduler, MetricScheduler, UeTable

DEFAULT_EPSILON = 0.2


class OutranScheduler(MacScheduler):
    """Epsilon-relaxed inter-user flow scheduler over a legacy metric."""

    intra_user_mlfq = True

    def __init__(
        self,
        legacy: Optional[MetricScheduler] = None,
        epsilon: float = DEFAULT_EPSILON,
        top_k: Optional[int] = None,
    ) -> None:
        """``top_k`` switches to the top-K candidate rule (ablation only);
        when set, ``epsilon`` is ignored."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1]: {epsilon}")
        self.legacy = legacy if legacy is not None else ProportionalFairScheduler()
        self.epsilon = epsilon
        self.top_k = top_k
        #: Telemetry: when True, each TTI also computes the legacy argmax
        #: so re-selection hits can be counted (one extra vectorized pass;
        #: off by default to keep the disabled-telemetry hot path intact).
        self.collect_stats = False
        self.rb_assignments = 0
        self.rb_reselections = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.top_k is not None:
            return f"outran_top{self.top_k}[{self.legacy.name}]"
        return f"outran(eps={self.epsilon})[{self.legacy.name}]"

    @property
    def oracle_columns(self) -> tuple[str, ...]:  # type: ignore[override]
        return self.legacy.oracle_columns

    def allocate(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        table = as_table(ues)
        metric = self.legacy.metric_matrix(rates, table, now_us)
        if self.top_k is not None:
            owner = reselect_users_top_k(
                metric, table.active, table.head_levels, self.top_k
            )
        else:
            owner = epsilon_owner(
                metric, table.active, table.head_levels, self.epsilon
            )
        if self.collect_stats:
            assigned = owner >= 0
            self.rb_assignments += int(assigned.sum())
            legacy_owner = plain_owner(metric, table.active)
            self.rb_reselections += int((assigned & (owner != legacy_owner)).sum())
        return owner

    def on_tti_end(
        self,
        ues: UeTable,
        served_bits: np.ndarray,
        tti_us: int,
    ) -> None:
        # The legacy scheduler's fairness state (EWMA throughput) must keep
        # tracking what was actually served, exactly as it would alone.
        self.legacy.on_tti_end(ues, served_bits, tti_us)
