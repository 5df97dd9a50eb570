"""QoS-aware PF variants: Priority Set Scheduler and CQA.

Figure 15 compares OutRAN against two NS-3 LENA QoS-aware schedulers,
granted an oracle the deployed network lacks: they *know* which flows are
short (< 10 KB) and give them a low-latency QoS profile with a 50 ms
packet delay budget.

* **PSS** (Monghal et al. [56]): two-stage time/frequency-domain design.
  Users with unmet QoS targets form a priority set served first; the rest
  are scheduled by the PF metric.  We realize the priority set as a large
  additive bonus on the PF metric for UEs holding deadline flows -- strict
  enough to preempt, but the set dissolves once the deadline flows drain,
  which reproduces PSS's "suboptimal tail" (Figure 15b): the priority set
  is granted on bearer state, not on how close the deadline is.
* **CQA** (Bojovic & Baldo [20]): channel- and QoS-aware metric that
  multiplies the PF metric by a head-of-line-delay urgency group
  ``ceil(d_hol / (budget/2))``.  Urgency compounds as packets age, which
  minimizes short-flow FCT aggressively but starves medium flows and
  costs fairness (Figure 15c / Figure 16).

Two further classics from the downlink-scheduling survey the paper cites
([24] Capozzi et al.) round out the family:

* **M-LWDF** (Modified Largest Weighted Delay First): metric
  ``-log(delta)/budget * d_hol * r/R~`` for deadline traffic.
* **EXP/PF**: exponential urgency ``exp(a*d_hol - avg / (1+sqrt(avg)))``
  times the PF metric -- sharper deadline pressure than M-LWDF.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mac.kernels import as_table
from repro.mac.scheduler import MetricScheduler, UeTable

#: Delay budget the paper configures for short flows (section 6.2).
DEFAULT_DELAY_BUDGET_US = 50_000


class _DeadlineScheduler(MetricScheduler):
    """PF metric times a per-UE weight read from the QoS oracle columns."""

    oracle_columns = ("qos_deadline_flows", "qos_hol_delay_us")

    def __init__(
        self,
        fairness_window_s: float = 1.0,
        delay_budget_us: int = DEFAULT_DELAY_BUDGET_US,
    ) -> None:
        super().__init__(fairness_window_s)
        self.delay_budget_us = delay_budget_us

    def weight(self, has_deadline: np.ndarray, hol_delay_us: np.ndarray) -> np.ndarray:
        """Per-UE multiplier on the PF metric."""
        raise NotImplementedError

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        table = as_table(ues)
        pf = np.divide(rates, table.ewma_bps[:, None], order="C")
        weight = self.weight(table.qos_deadline_flows > 0, table.qos_hol_delay_us)
        return np.multiply(pf, weight[:, None], out=pf)


class PssScheduler(_DeadlineScheduler):
    """Priority Set Scheduler: deadline users first, PF for the rest."""

    name = "pss"

    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        table = as_table(ues)
        pf = np.divide(rates, table.ewma_bps[:, None], order="C")
        in_priority_set = table.qos_deadline_flows > 0
        if not in_priority_set.any():
            return pf
        # Members of the priority set beat every non-member on every RB;
        # within the set, PF order decides (PSS's frequency-domain stage).
        bonus = pf.max() + 1.0 if np.isfinite(pf.max()) else 1.0
        return np.add(pf, np.where(in_priority_set[:, None], bonus, 0.0), out=pf)


class MlwdfScheduler(_DeadlineScheduler):
    """Modified Largest Weighted Delay First over the PF metric."""

    name = "mlwdf"

    def __init__(
        self,
        fairness_window_s: float = 1.0,
        delay_budget_us: int = DEFAULT_DELAY_BUDGET_US,
        delta: float = 0.05,
    ) -> None:
        """``delta``: target probability of exceeding the delay budget."""
        super().__init__(fairness_window_s, delay_budget_us)
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1): {delta}")
        self._alpha = -math.log(delta) / delay_budget_us

    def weight(self, has_deadline: np.ndarray, hol_delay_us: np.ndarray) -> np.ndarray:
        return np.where(has_deadline, 1.0 + self._alpha * hol_delay_us, 1.0)


class ExpPfScheduler(MlwdfScheduler):
    """EXP/PF: exponential deadline urgency times the PF metric."""

    name = "exppf"

    def weight(self, has_deadline: np.ndarray, hol_delay_us: np.ndarray) -> np.ndarray:
        weighted = np.where(has_deadline, self._alpha * hol_delay_us, 0.0)
        avg = weighted.mean() if weighted.size else 0.0
        return np.exp(
            np.clip((weighted - avg) / (1.0 + math.sqrt(max(avg, 0.0))), -20, 20)
        )


class CqaScheduler(_DeadlineScheduler):
    """Channel & QoS Aware scheduler: HOL-delay urgency times PF."""

    name = "cqa"

    def weight(self, has_deadline: np.ndarray, hol_delay_us: np.ndarray) -> np.ndarray:
        half_budget = max(self.delay_budget_us // 2, 1)
        return 1.0 + np.where(has_deadline, np.ceil(hol_delay_us / half_budget), 0.0)
