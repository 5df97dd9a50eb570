"""MAC scheduler interface and the per-TTI RB-allocation loop.

Section 4.1: practical xNodeBs allocate each Resource Block independently
to the user with the best *per-RB metric* ``m_{u,b}(t)``, giving
``O(|U||B|)`` complexity per TTI.  Schedulers here expose a vectorized
``metric_matrix`` (users x RBs); the shared allocation routine does the
per-RB argmax.  OutRAN overrides :meth:`MacScheduler.allocate` to add its
second, relaxed pass (see :mod:`repro.core.outran`).

``UeSchedState`` is the list form of one row of the table a scheduler
reads: EWMA throughput for the PF metric (smoothed over the *fairness
window* Tf), the latest buffer status report, and the clairvoyant
remaining-flow-size hook that only the SRJF baseline is allowed to read.
A running cell keeps none (its per-UE MAC state is the xNodeB's
:class:`~repro.mac.kernels.SchedArrays`); ``as_table`` gathers a
sequence of them for a caller without an xNodeB.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Union

import numpy as np

from repro.mac.bsr import BufferStatusReport, empty_report
from repro.mac.kernels import SchedArrays, as_table, plain_owner

#: What a scheduler is handed as ``ues``: the xNodeB's table, or a plain
#: sequence of :class:`UeSchedState` (gathered into a table on entry).
UeTable = Union[SchedArrays, Sequence["UeSchedState"]]

#: Floor for the EWMA throughput so the PF ratio is defined for new users.
MIN_EWMA_BPS = 1e5


class UeSchedState:
    """One UE's scheduling state: the list API of ``as_table``, and the
    scalar reference of the EWMA the table updates in place."""

    __slots__ = (
        "index",
        "ue_id",
        "ewma_bps",
        "bsr",
        "last_served_us",
        "remaining_flow_bytes",
        "qos_deadline_flows",
        "qos_hol_delay_us",
    )

    def __init__(self, index: int, ue_id: int) -> None:
        self.index = index
        self.ue_id = ue_id
        self.ewma_bps = MIN_EWMA_BPS
        self.bsr: BufferStatusReport = empty_report(ue_id)
        self.last_served_us = 0
        #: Clairvoyant hook: remaining bytes of this UE's shortest active
        #: flow.  Only SRJF may use it (the paper's oracle baseline).
        self.remaining_flow_bytes: Optional[int] = None
        #: Whether the UE currently has flows under a QoS delay budget
        #: and the head-of-line delay of the oldest one (PSS/CQA only).
        self.qos_deadline_flows = 0
        self.qos_hol_delay_us = 0

    @property
    def active(self) -> bool:
        """True when the UE has downlink data waiting."""
        return self.bsr.has_data

    def update_ewma(self, served_bits: int, tti_us: int, fairness_window_s: float) -> None:
        """Exponentially smooth throughput over the fairness window Tf."""
        beta = min((tti_us / 1e6) / fairness_window_s, 1.0)
        rate_bps = served_bits * 1e6 / tti_us
        self.ewma_bps = max((1.0 - beta) * self.ewma_bps + beta * rate_bps, MIN_EWMA_BPS)


class MacScheduler(ABC):
    """Allocates the TTI's RBs to UEs."""

    name: str = "base"

    #: The clairvoyant :class:`~repro.mac.kernels.SchedArrays` columns
    #: this scheduler reads (``remaining_flow``, ``qos_deadline_flows``,
    #: ``qos_hol_delay_us``).  The xNodeB refreshes the oracle only for a
    #: scheduler that declares some; a wrapper forwards its inner
    #: scheduler's.
    oracle_columns: tuple[str, ...] = ()

    #: Whether the UEs' RLC buffers drain in MLFQ order under this
    #: scheduler (OutRAN's intra-user half) unless ``SimConfig.use_mlfq``
    #: says otherwise.
    intra_user_mlfq: bool = False

    @abstractmethod
    def allocate(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        """Return ``owner`` of shape ``(num_rbs,)``: UE index or -1.

        ``rates[u, b]`` is the achievable bits per RB per TTI for UE ``u``
        on RB ``b`` (from CQI reports).  Implementations must only assign
        RBs to UEs whose buffer status reports show data.
        """

    def on_tti_end(
        self,
        ues: UeTable,
        served_bits: np.ndarray,
        tti_us: int,
    ) -> None:
        """Hook called after transmission with per-UE served bits."""


def argmax_allocation(metric: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per-RB argmax allocation over the metric matrix.

    Inactive users never win an RB; RBs with no active user stay -1.

    The readable reference: :func:`repro.mac.kernels.plain_owner` runs the
    same selection as one compiled loop, falls through to this function
    where that loop cannot run, and is held to it by the tests.
    """
    if metric.shape[0] == 0 or not active.any():
        return np.full(metric.shape[1] if metric.ndim == 2 else 0, -1, dtype=np.int64)
    masked = np.where(active[:, None], metric, -np.inf)
    owner = masked.argmax(axis=0).astype(np.int64)
    owner[~np.isfinite(masked.max(axis=0))] = -1
    return owner


class MetricScheduler(MacScheduler):
    """Base for schedulers defined purely by a per-RB metric matrix."""

    def __init__(self, fairness_window_s: float = 1.0) -> None:
        if fairness_window_s <= 0:
            raise ValueError(f"fairness window must be positive: {fairness_window_s}")
        self.fairness_window_s = fairness_window_s

    @abstractmethod
    def metric_matrix(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        """The per-RB metric ``m_{u,b}`` (shape users x RBs).

        C-ordered: the compiled owner kernels take nothing else, and a
        caller may pass rates in another layout than the channel's.
        """

    def allocate(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        table = as_table(ues)
        return plain_owner(self.metric_matrix(rates, table, now_us), table.active)

    def on_tti_end(
        self,
        ues: UeTable,
        served_bits: np.ndarray,
        tti_us: int,
    ) -> None:
        table = as_table(ues)
        beta = min((tti_us / 1e6) / self.fairness_window_s, 1.0)
        table.update_ewma(served_bits, 1.0 - beta, beta * 1e6 / tti_us, MIN_EWMA_BPS)
        if table is not ues:
            table.sync_to(ues)
