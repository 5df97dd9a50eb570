"""Piecewise-constant offered-load schedules (time-varying cell load).

Lives in ``repro.traffic`` with every other workload generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.sim.engine import microseconds
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import MAX_LOAD, FlowSpec, PoissonTrafficGenerator

if TYPE_CHECKING:
    from repro.sim.cell import CellSimulation

#: Phase ``k`` of a non-stationary schedule numbers its flows from
#: ``(k + 1) * PHASE_FLOW_ID_STRIDE`` -- clear of background/page/bulk ids
#: and of every other phase.
PHASE_FLOW_ID_STRIDE = 10_000_000


@dataclass(frozen=True)
class LoadPhase:
    """One piece of a piecewise-constant offered-load schedule."""

    duration_s: float
    load: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"phase duration must be positive: {self.duration_s}")
        if not 0.0 < self.load < MAX_LOAD:
            raise ValueError(
                f"phase load out of range (0, {MAX_LOAD:g}): {self.load}"
            )


class NonStationaryLoad:
    """Piecewise-constant arrival-rate schedule (time-varying cell load).

    Each phase draws its own Poisson arrival process at that phase's
    load, deterministically from the schedule seed, so every scheduler
    (and every RIC configuration) under comparison sees the *identical*
    time-varying workload.  This is the workload shape the Near-RT RIC
    loop is evaluated against: a statically-tuned configuration that is
    right for one phase is wrong for the next.
    """

    def __init__(
        self,
        phases: Sequence[LoadPhase],
        distribution: str = "lte_cellular",
        seed: int = 0,
    ) -> None:
        self.phases = tuple(phases)
        if not self.phases:
            raise ValueError("need at least one phase")
        self.distribution = distribution
        self.seed = seed

    @classmethod
    def burst(
        cls,
        low: float = 0.5,
        high: float = 1.2,
        settle: float = 0.7,
        phase_s: float = 3.0,
        distribution: str = "lte_cellular",
        seed: int = 0,
    ) -> "NonStationaryLoad":
        """The default three-phase shape: calm -> overload burst -> settle."""
        return cls(
            [
                LoadPhase(phase_s, low),
                LoadPhase(phase_s, high),
                LoadPhase(phase_s, settle),
            ],
            distribution=distribution,
            seed=seed,
        )

    @property
    def total_duration_s(self) -> float:
        return sum(phase.duration_s for phase in self.phases)

    def generate(self, num_ues: int, capacity_bps: float) -> list[FlowSpec]:
        """All arrivals of the whole schedule, time-ordered."""
        flows: list[FlowSpec] = []
        offset_us = 0
        for k, phase in enumerate(self.phases):
            generator = PoissonTrafficGenerator(
                distribution_by_name(self.distribution),
                num_ues,
                phase.load,
                capacity_bps,
                seed=self.seed + 7919 * (k + 1),
                first_flow_id=(k + 1) * PHASE_FLOW_ID_STRIDE,
            )
            for spec in generator.generate(phase.duration_s):
                flows.append(replace(spec, start_us=spec.start_us + offset_us))
            offset_us += microseconds(phase.duration_s)
        return flows

    def provide_to(self, sim: "CellSimulation") -> list[FlowSpec]:
        """Size arrivals to ``sim``'s capacity and install them on it."""
        flows = self.generate(sim.config.num_ues, sim.capacity_bps())
        sim.provide_flows(flows)
        return flows
