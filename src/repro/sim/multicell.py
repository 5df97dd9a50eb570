"""Multi-cell deployments (the Colosseum four-cell topology, Figure 19).

The paper's Colosseum experiment runs four eNodeBs with four UEs each.
Inter-cell coupling in that deployment is captured by each cell's
interference margin (cells are on separate carriers in the SCOPE
configuration), so a multi-cell run is N independent cells sharing a
workload *specification* but with independent channel/traffic
realizations.  ``MultiCellSimulation`` runs them and aggregates their
metrics into one pooled result view.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.mac.scheduler import MacScheduler
from repro.sim.config import SimConfig
from repro.sim.metrics import SimResult
from repro.sim.session import SimulationSession
from repro.telemetry.registry import TelemetryRegistry, coerce_registry


class PooledResult:
    """Aggregated view over per-cell :class:`SimResult` objects."""

    def __init__(
        self, results: Sequence[SimResult], telemetry: Optional[dict] = None
    ) -> None:
        if not results:
            raise ValueError("need at least one cell result")
        self.cells = list(results)
        #: Pooled telemetry snapshot: counters accumulate across cells
        #: (the cells share one registry); None when telemetry is off.
        self.telemetry = telemetry

    @property
    def completed_flows(self) -> int:
        return sum(r.completed_flows for r in self.cells)

    @property
    def censored_flows(self) -> int:
        return sum(r.censored_flows for r in self.cells)

    def fcts_ms(self, bucket: Optional[str] = None) -> np.ndarray:
        parts = [r.fcts_ms(bucket) for r in self.cells]
        return np.concatenate(parts) if parts else np.zeros(0)

    def avg_fct_ms(self, bucket: Optional[str] = None) -> float:
        values = self.fcts_ms(bucket)
        return float(values.mean()) if values.size else float("nan")

    def pctl_fct_ms(self, percentile: float, bucket: Optional[str] = None) -> float:
        values = self.fcts_ms(bucket)
        return (
            float(np.percentile(values, percentile)) if values.size else float("nan")
        )

    def mean_se(self) -> float:
        return float(np.mean([r.mean_se() for r in self.cells]))

    def mean_fairness(self) -> float:
        return float(np.mean([r.mean_fairness() for r in self.cells]))


class MultiCellSimulation:
    """N cells with a common configuration, independent realizations."""

    def __init__(
        self,
        config: SimConfig,
        scheduler: Union[str, MacScheduler] = "pf",
        num_cells: int = 4,
        telemetry: Union[TelemetryRegistry, bool, None] = None,
    ) -> None:
        if num_cells < 1:
            raise ValueError(f"need at least one cell: {num_cells}")
        self.config = config
        self.num_cells = num_cells
        # Scheduler instances must not be shared across cells (they hold
        # per-UE state), so multi-cell runs require a name, not an object.
        if not isinstance(scheduler, str):
            raise TypeError(
                "MultiCellSimulation needs a scheduler *name* so each cell "
                "gets its own instance"
            )
        self.scheduler = scheduler
        # One registry across all cells: counters accumulate into a
        # pooled deployment-wide view.
        self.telemetry = coerce_registry(telemetry)

    def sessions(
        self, duration_s: float, drain_s: float = 2.0
    ) -> list[SimulationSession]:
        """One new :class:`~repro.sim.session.SimulationSession` per cell.

        Cells are independent event engines, so a driver may interleave
        ``step()`` calls across them in any order (e.g. round-robin in
        sim-time slices for a live multi-cell dashboard, or a periodic
        inter-cell exchange step) without changing any cell's outcome.
        """
        return [
            SimulationSession.from_config(
                self.config.with_overrides(seed=self.config.seed + 1000 * cell),
                self.scheduler,
                duration_s=duration_s,
                drain_s=drain_s,
                telemetry=self.telemetry,
            )
            for cell in range(self.num_cells)
        ]

    def run(self, duration_s: float, drain_s: float = 2.0) -> PooledResult:
        """Run every cell (via per-cell sessions) and pool the results."""
        sessions = self.sessions(duration_s, drain_s=drain_s)
        results = [session.start().finish() for session in sessions]
        return PooledResult(
            results, telemetry=sessions[-1].sim.telemetry_snapshot()
        )
