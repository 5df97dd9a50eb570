"""The per-TTI scheduling table and the compiled owner kernels.

* :class:`SchedArrays` -- the per-UE MAC state of a cell as seven
  arrays (EWMA throughput, activity, head MLFQ level, last-served time,
  and the SRJF and QoS oracle columns): the one thing every scheduler is
  fed, and the only copy a running cell keeps.  The xNodeB writes it
  inside the backlog scan it already performs, so an allocation does no
  per-UE Python work; callers that hold a plain sequence of
  :class:`~repro.mac.scheduler.UeSchedState` (unit tests,
  micro-benchmarks) get one gathered by :func:`as_table`.

* :func:`plain_owner` / :func:`epsilon_owner` -- the per-RB argmax, with
  or without OutRAN's epsilon-relaxation, as one fused C loop over the
  ``(users, rbs)`` metric matrix (built on demand by
  :mod:`repro.mac._ckernel`).

**Byte-identity contract**: the C loops perform *the same IEEE-754
operations per element* as the readable numpy references
(:func:`~repro.mac.scheduler.argmax_allocation`,
:func:`~repro.core.inter_user.reselect_users`), so a host with a C
compiler and a host without one produce bit-identical owners, EWMA
trajectories, and therefore identical ``--json`` output.  The kernels
assume metrics are non-NaN, which every shipped scheduler guarantees
(EWMA is floored, rates are finite), and run only on C-contiguous
float64 metrics: anything else -- no compiler, a grid wider than
``MAX_RBS``, an F-ordered or non-float64 matrix -- falls through to the
references, silently and with the same result.
``tests/test_kernels_properties.py`` holds both to a naive per-RB Python
loop; ``tests/test_golden_corpus.py`` replays the end-to-end corpus with
and without the compiled library.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.mac.bsr import IDLE_LEVEL

__all__ = ["SchedArrays", "as_table", "plain_owner", "epsilon_owner"]


class SchedArrays:
    """Array-backed per-UE scheduling state: the table schedulers read.

    Holds exactly the fields the schedulers read.  The xNodeB writes the
    arrays inside the backlog scan it already performs every TTI, so
    ``allocate`` does zero per-UE Python work.
    """

    __slots__ = (
        "ewma_bps",
        "last_served_us",
        "head_levels",
        "active",
        "remaining_flow",
        "qos_deadline_flows",
        "qos_hol_delay_us",
        "_ewma_tmp",
    )

    def __init__(self, num_ues: int) -> None:
        from repro.mac.scheduler import MIN_EWMA_BPS

        self.ewma_bps = np.full(num_ues, MIN_EWMA_BPS, dtype=np.float64)
        self.last_served_us = np.zeros(num_ues, dtype=np.int64)
        self.head_levels = np.full(num_ues, IDLE_LEVEL, dtype=np.int64)
        self.active = np.zeros(num_ues, dtype=bool)
        #: SRJF oracle: remaining bytes of the shortest active flow
        #: (+inf where unknown, mirroring ``remaining_flow_bytes=None``).
        self.remaining_flow = np.full(num_ues, np.inf, dtype=np.float64)
        #: QoS oracle (PSS/CQA/M-LWDF/EXP-PF): flows under a delay budget
        #: and the head-of-line delay of the oldest one.
        self.qos_deadline_flows = np.zeros(num_ues, dtype=np.int64)
        self.qos_hol_delay_us = np.zeros(num_ues, dtype=np.int64)
        self._ewma_tmp = np.empty(num_ues, dtype=np.float64)

    # -- per-TTI maintenance (called from the xNodeB backlog scan) --------

    def set_report(self, index: int, head_level: Optional[int]) -> None:
        """Mark UE ``index`` active with the given BSR head level."""
        self.active[index] = True
        self.head_levels[index] = (
            IDLE_LEVEL if head_level is None else head_level
        )

    def clear_report(self, index: int) -> None:
        """Mark UE ``index`` idle (empty buffer status report)."""
        self.active[index] = False
        self.head_levels[index] = IDLE_LEVEL

    def set_oracle(
        self, index: int, remaining: Optional[int], qos_flows: int, qos_hol_us: int
    ) -> None:
        """Write the clairvoyant columns of UE ``index``."""
        self.remaining_flow[index] = np.inf if remaining is None else remaining
        self.qos_deadline_flows[index] = qos_flows
        self.qos_hol_delay_us[index] = qos_hol_us

    # -- the list API: a sequence of ``UeSchedState`` in, EWMA back out ----

    def sync_from(self, ues: Sequence) -> None:
        """Load the arrays from a sequence of ``UeSchedState`` objects.

        Row ``i`` is ``ues[i]``: the owner vector indexes the sequence it
        was allocated against.
        """
        reports = [ue.bsr for ue in ues]
        self.ewma_bps[:] = [ue.ewma_bps for ue in ues]
        self.last_served_us[:] = [ue.last_served_us for ue in ues]
        self.active[:] = [bsr.has_data for bsr in reports]
        self.head_levels[:] = [
            IDLE_LEVEL if bsr.head_level is None else bsr.head_level
            for bsr in reports
        ]
        self.remaining_flow[:] = [
            np.inf if ue.remaining_flow_bytes is None else ue.remaining_flow_bytes
            for ue in ues
        ]
        self.qos_deadline_flows[:] = [ue.qos_deadline_flows for ue in ues]
        self.qos_hol_delay_us[:] = [ue.qos_hol_delay_us for ue in ues]

    def sync_to(self, ues: Sequence) -> None:
        """Write EWMA and last-served back into the per-UE objects.

        ``on_tti_end`` calls it for a caller that passed the objects.
        """
        for i, ue in enumerate(ues):
            ue.ewma_bps = float(self.ewma_bps[i])
            ue.last_served_us = int(self.last_served_us[i])

    # -- the EWMA update ---------------------------------------------------

    def update_ewma(self, served_bits: np.ndarray, keep: float, scale: float,
                    floor: float) -> None:
        """``ewma = max(keep * ewma + scale * bits, floor)`` elementwise.

        Two multiplies, one add, one compare per element -- the
        arithmetic of ``UeSchedState.update_ewma``.
        """
        tmp = self._ewma_tmp
        np.multiply(served_bits, scale, out=tmp)
        np.multiply(self.ewma_bps, keep, out=self.ewma_bps)
        np.add(self.ewma_bps, tmp, out=self.ewma_bps)
        np.maximum(self.ewma_bps, floor, out=self.ewma_bps)


def as_table(ues: Union[SchedArrays, Sequence]) -> SchedArrays:
    """The xNodeB's table as is; a sequence of ``UeSchedState`` gathered."""
    if isinstance(ues, SchedArrays):
        return ues
    table = SchedArrays(len(ues))
    table.sync_from(ues)
    return table


def _c_call(metric: np.ndarray, active: np.ndarray):
    """The compiled library when the inputs are C-kernel ready."""
    from repro.mac import _ckernel

    lib = _ckernel.load()
    if lib is None or metric.ndim != 2 or metric.shape[1] > _ckernel.MAX_RBS:
        return None
    if not (metric.dtype == np.float64 and metric.flags.c_contiguous):
        return None
    if not (active.dtype == np.bool_ and active.flags.c_contiguous):
        return None
    return lib


def plain_owner(metric: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per-RB argmax over the metric matrix.

    Byte-identical to :func:`repro.mac.scheduler.argmax_allocation`,
    which it falls through to when the compiled loop cannot run:
    inactive users never win an RB; RBs with no active user stay -1.
    """
    lib = _c_call(metric, active)
    if lib is None:
        from repro.mac.scheduler import argmax_allocation

        return argmax_allocation(metric, active)
    num_ues, num_rbs = metric.shape
    owner = np.empty(num_rbs, dtype=np.int64)
    lib.repro_plain_owner(
        metric.ctypes.data, active.ctypes.data, num_ues, num_rbs,
        owner.ctypes.data,
    )
    return owner


def epsilon_owner(
    metric: np.ndarray,
    active: np.ndarray,
    levels: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Fused Algorithm 1: epsilon-relaxed candidates + MLFQ re-selection.

    Byte-identical to :func:`repro.core.inter_user.reselect_users`
    (which composes ``relaxed_candidates`` with the level/metric
    tie-break in separate allocating steps), which it falls through to
    when the compiled loop cannot run.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1]: {epsilon}")
    lib = _c_call(metric, active)
    if lib is None or not (
        levels.dtype == np.int64 and levels.flags.c_contiguous
    ):
        from repro.core.inter_user import reselect_users

        return reselect_users(metric, active, levels, epsilon)
    num_ues, num_rbs = metric.shape
    owner = np.empty(num_rbs, dtype=np.int64)
    lib.repro_epsilon_owner(
        metric.ctypes.data, active.ctypes.data, levels.ctypes.data, epsilon,
        num_ues, num_rbs, owner.ctypes.data,
    )
    return owner
