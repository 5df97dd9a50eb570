"""Flow arrival generation: Poisson processes at a target cell load.

The paper's workloads (sections 3, 6.1, 6.2) generate downlink flows
according to a Poisson process whose rate is set so that
``arrival_rate * mean_flow_size`` equals the chosen fraction (the *cell
load*) of the cell's average capacity; each flow is assigned to a UE
uniformly at random and its size drawn from the configured distribution.

Arrivals are pre-generated deterministically from the seed, so every
scheduler under comparison sees the *identical* workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.engine import US_PER_SEC
from repro.traffic.distributions import EmpiricalDistribution

#: The short-flow boundary used throughout the paper's analysis.
SHORT_FLOW_BYTES = 10_000
#: Cell loads are fractions of the cell capacity in ``(0, MAX_LOAD)``.
MAX_LOAD = 4.0
#: Most UEs a declared run may ask for (the largest committed cell has 200).
MAX_UES = 1_000


@dataclass(frozen=True)
class FlowSpec:
    """One downlink flow: who gets it, how big, when it starts."""

    flow_id: int
    ue_index: int
    size_bytes: int
    start_us: int
    #: True when the QoS-aware oracle baselines may treat this as a
    #: deadline (low-latency QoS) flow: size < 10 KB, known a priori.
    qos_short: bool = False
    #: Flows sharing a ``connection`` id reuse the same five-tuple --
    #: modelling persistent HTTP/QUIC connections whose accumulated
    #: sent-bytes mislead the MLFQ (the section 4.2 "Limitation").
    connection: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"flow size must be positive: {self.size_bytes}")


class PoissonTrafficGenerator:
    """Pre-generates Poisson flow arrivals for a cell."""

    def __init__(
        self,
        distribution: EmpiricalDistribution,
        num_ues: int,
        load: float,
        capacity_bps: float,
        seed: int = 0,
        first_flow_id: int = 0,
    ) -> None:
        if num_ues < 1:
            raise ValueError(f"need at least one UE: {num_ues}")
        if not 0.0 < load < MAX_LOAD:
            raise ValueError(f"load out of range (0, {MAX_LOAD:g}): {load}")
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bps}")
        self.distribution = distribution
        self.num_ues = num_ues
        self.load = load
        self.capacity_bps = capacity_bps
        self._rng = np.random.default_rng(seed)
        self._first_flow_id = first_flow_id
        self.mean_flow_bytes = distribution.mean()

    @property
    def arrival_rate_per_s(self) -> float:
        """Flow arrivals per second that realize the target load."""
        return self.load * self.capacity_bps / (self.mean_flow_bytes * 8.0)

    def generate(self, duration_s: float) -> list[FlowSpec]:
        """All arrivals within ``[0, duration_s)``, time-ordered."""
        rate = self.arrival_rate_per_s
        expected = max(int(rate * duration_s * 1.5) + 20, 50)
        gaps = self._rng.exponential(1.0 / rate, size=expected)
        times = np.cumsum(gaps)
        while times[-1] < duration_s:
            more = self._rng.exponential(1.0 / rate, size=expected)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times < duration_s]
        n = len(times)
        # Stratified sizes: the realized load matches the nominal load.
        sizes = self.distribution.sample_stratified(self._rng, n)
        ues = self._rng.integers(0, self.num_ues, size=n)
        return [
            FlowSpec(
                flow_id=self._first_flow_id + i,
                ue_index=int(ues[i]),
                size_bytes=int(sizes[i]),
                start_us=int(times[i] * US_PER_SEC),
                qos_short=bool(sizes[i] < SHORT_FLOW_BYTES),
            )
            for i in range(n)
        ]


class IncastGenerator:
    """Section 6.3 worst case: synchronized 8 KB shorts over heavy load.

    Batches of ``burst_flows`` 8 KB flows arrive simultaneously (one per
    distinct UE) and make up ``short_fraction`` of the traffic volume; the
    remainder follows the base distribution.  Used by the priority-reset
    case study (Figure 18d).
    """

    def __init__(
        self,
        base: EmpiricalDistribution,
        num_ues: int,
        load: float,
        capacity_bps: float,
        seed: int = 0,
        short_bytes: int = 8_000,
        short_fraction: float = 0.1,
        burst_flows: int = 8,
    ) -> None:
        if not 0.0 < short_fraction < 1.0:
            raise ValueError(f"short_fraction in (0,1): {short_fraction}")
        self.base_gen = PoissonTrafficGenerator(
            base,
            num_ues,
            load * (1.0 - short_fraction),
            capacity_bps,
            seed=seed,
        )
        self.num_ues = num_ues
        self.short_bytes = short_bytes
        self.burst_flows = min(burst_flows, num_ues)
        self.short_rate_bps = load * short_fraction * capacity_bps
        self._rng = np.random.default_rng(seed + 1)

    def generate(self, duration_s: float) -> list[FlowSpec]:
        """Background arrivals interleaved with synchronized bursts."""
        flows = self.base_gen.generate(duration_s)
        next_id = max((f.flow_id for f in flows), default=-1) + 1
        burst_bytes = self.short_bytes * self.burst_flows
        burst_period_s = burst_bytes * 8.0 / self.short_rate_bps
        t = burst_period_s
        while t < duration_s:
            ues = self._rng.choice(self.num_ues, size=self.burst_flows, replace=False)
            for ue in ues:
                flows.append(
                    FlowSpec(
                        flow_id=next_id,
                        ue_index=int(ue),
                        size_bytes=self.short_bytes,
                        start_us=int(t * US_PER_SEC),
                        qos_short=True,
                    )
                )
                next_id += 1
            t += burst_period_s
        flows.sort(key=lambda f: f.start_us)
        return flows
