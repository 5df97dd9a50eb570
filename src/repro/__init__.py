"""OutRAN reproduction: FCT-aware downlink scheduling for LTE/5G RAN.

This package reproduces *OutRAN: Co-optimizing for Flow Completion Time in
Radio Access Network* (CoNEXT 2022).  It contains a packet-level
discrete-event simulator of the LTE/5G downlink user plane (PDCP, RLC, MAC,
and a PHY abstraction with fading channels), the OutRAN scheduler (per-UE
MLFQ intra-user scheduling plus epsilon-relaxed inter-user scheduling), the
baselines the paper compares against (PF, MT, RR, SRJF, PSS, CQA), traffic
and webpage workload generators, and the measurement machinery used by the
benchmark harness under ``benchmarks/``.

Quickstart::

    from repro import SimConfig, SimulationSession
    cfg = SimConfig.lte_default(num_ues=8, seed=1)
    session = SimulationSession.from_config(cfg, "outran", duration_s=5.0)
    result = session.start().finish()
    print(result.fct_summary())
"""

from repro.sim.config import SimConfig
from repro.sim.cell import CellSimulation, SimResult
from repro.sim.session import SimulationSession
from repro.core.outran import OutranScheduler
from repro.core.mlfq import MlfqQueue, MlfqConfig
from repro.mac.pf import (
    MaxThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
)
from repro.mac.srjf import SrjfScheduler
from repro.mac.qos import CqaScheduler, PssScheduler
from repro.sim.multicell import MultiCellSimulation, PooledResult
from repro.telemetry import TelemetryRegistry

__version__ = "1.0.0"

__all__ = [
    "SimConfig",
    "CellSimulation",
    "SimResult",
    "SimulationSession",
    "OutranScheduler",
    "MlfqQueue",
    "MlfqConfig",
    "ProportionalFairScheduler",
    "MaxThroughputScheduler",
    "RoundRobinScheduler",
    "SrjfScheduler",
    "PssScheduler",
    "CqaScheduler",
    "MultiCellSimulation",
    "PooledResult",
    "TelemetryRegistry",
]
