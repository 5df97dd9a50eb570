"""Discrete-event simulation engine and end-to-end cell composition."""

from repro.sim.engine import EventEngine
from repro.sim.config import SimConfig
from repro.sim.cell import CellSimulation, SimResult
from repro.sim.session import (
    CheckpointError,
    SessionError,
    SimulationSession,
    result_fingerprint,
    result_fingerprint_payload,
)
from repro.sim.multicell import MultiCellSimulation, PooledResult
from repro.sim.trace import SchedulingTrace

__all__ = [
    "EventEngine",
    "SimConfig",
    "CellSimulation",
    "SimResult",
    "SimulationSession",
    "SessionError",
    "CheckpointError",
    "result_fingerprint",
    "result_fingerprint_payload",
    "MultiCellSimulation",
    "PooledResult",
    "SchedulingTrace",
]
