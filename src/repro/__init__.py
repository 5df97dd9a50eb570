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

Importing the package loads nothing else: the names below resolve on
first access, and every other name is imported from the module that
defines it (``repro.sim.metrics.SimResult``, ``repro.mac.pf...``).
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> defining module, imported when the name is first read.
_LAZY = {
    "SimConfig": "repro.sim.config",
    "SimulationSession": "repro.sim.session",
    "CellSimulation": "repro.sim.cell",
    "MultiCellSimulation": "repro.sim.multicell",
    "TelemetryRegistry": "repro.telemetry.registry",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name]), name)
    return value
