"""Per-cell KPI snapshots: the E2 indication payload of the Near-RT RIC.

A :class:`KpiCollector` watches a running
:class:`~repro.sim.cell.CellSimulation` and produces
:class:`CellKpiSnapshot` views over the *reporting window* -- the slice of
flow completions since the previous snapshot -- plus instantaneous queue
state (RLC occupancy, per-MLFQ-level backlog, backlogged UEs).

Everything here is a pure read: building a snapshot touches no RNG and
mutates no simulator state, so a subscribed-but-passive RIC (a no-op
xApp) leaves a run byte-identical to an unsubscribed one.  The collector's
only state is its own high-water mark into the metrics record log.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.metrics import SHORT_MAX_BYTES

if TYPE_CHECKING:
    from repro.sim.cell import CellSimulation


def _pctl(values: list[float], percentile: float) -> float:
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), percentile))


@dataclass(frozen=True)
class CellKpiSnapshot:
    """One cell's KPIs over a reporting window (FCTs in milliseconds).

    FCT statistics cover the flows *completed inside the window*;
    ``queued_bytes`` / ``mlfq_level_bytes`` / ``active_flows`` are
    instantaneous at snapshot time.  FCT fields are NaN when the window
    saw no (matching) completions.
    """

    t_us: int
    window_us: int
    flows_completed: int
    fct_mean_ms: float
    fct_p50_ms: float
    fct_p95_ms: float
    fct_p99_ms: float
    short_fct_p95_ms: float
    queued_bytes: int
    active_flows: int
    backlogged_ues: int
    #: Instantaneous RLC backlog per MLFQ level (index 0 = highest
    #: priority, promoted segments included), summed across UEs.
    mlfq_level_bytes: tuple[int, ...]

    def as_dict(self) -> dict:
        """JSON-friendly form (NaNs become None)."""
        out = asdict(self)
        out["mlfq_level_bytes"] = list(self.mlfq_level_bytes)
        for key, value in out.items():
            if isinstance(value, float) and math.isnan(value):
                out[key] = None
        return out


class KpiCollector:
    """Incremental KPI window view over a running cell simulation."""

    def __init__(self, sim: "CellSimulation") -> None:
        self._sim = sim
        self._record_index = 0

    def snapshot(self, window_us: int) -> CellKpiSnapshot:
        """Consume the completions since the last call; snapshot queues."""
        sim = self._sim
        _, _, sizes, starts, ends = sim.metrics.fct_columns(self._record_index)
        self._record_index = sim.metrics.completed
        fcts = [(end - start) / 1e3 for start, end in zip(starts, ends)]
        short_fcts = [
            fct for fct, size in zip(fcts, sizes) if size <= SHORT_MAX_BYTES
        ]
        level_bytes: Optional[list[int]] = None
        queued_bytes = 0
        backlogged = 0
        for ue in sim.ues:
            queued_bytes += ue.rlc.buffered_bytes
            if ue.rlc.buffered_bytes > 0:
                backlogged += 1
            per_level = ue.rlc.queue.level_bytes()
            if level_bytes is None:
                level_bytes = per_level
            else:
                for i, nbytes in enumerate(per_level):
                    level_bytes[i] += nbytes
        return CellKpiSnapshot(
            t_us=sim.engine.now_us,
            window_us=window_us,
            flows_completed=len(fcts),
            fct_mean_ms=float(np.mean(fcts)) if fcts else float("nan"),
            fct_p50_ms=_pctl(fcts, 50),
            fct_p95_ms=_pctl(fcts, 95),
            fct_p99_ms=_pctl(fcts, 99),
            short_fct_p95_ms=_pctl(short_fcts, 95),
            queued_bytes=queued_bytes,
            active_flows=sum(len(ue.active_runtimes) for ue in sim.ues),
            backlogged_ues=backlogged,
            mlfq_level_bytes=tuple(level_bytes or ()),
        )
