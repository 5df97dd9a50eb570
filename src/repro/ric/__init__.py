"""Near-RT RIC: closed-loop runtime tuning of scheduler parameters.

The subsystem closes the loop between the telemetry stream and the
scheduler, in the O-RAN Near-RT RIC shape (cf. TailO-RAN):

* :mod:`repro.ric.e2` -- the E2-style message types: periodic KPI
  *indications* out of the cell, guardrail-checked *control* requests in.
* :mod:`repro.ric.node` -- :class:`CellE2Node`, the cell-side adapter:
  pure-read KPI reporting, and controls queued to apply at the next TTI
  boundary.
* :mod:`repro.ric.guardrails` -- bounds and step limits a control must
  satisfy; invalid thresholds are rejected with the same validation a
  start-time :class:`~repro.core.mlfq.MlfqConfig` gets.
* :mod:`repro.ric.xapp` -- the xApp lifecycle (subscribe -> indicate ->
  decide -> control) and registry; :class:`NoOpXApp` is the
  byte-identity reference.
* :mod:`repro.ric.hillclimb` -- the first real policy: probe-and-revert
  hill climbing on windowed p95 FCT over ε, the MLFQ thresholds, and
  the priority-boost period.
* :mod:`repro.ric.ric` -- :class:`NearRTRIC`, the periodic loop driving
  loaded xApps from the simulation's event engine.

With the RIC disabled -- or only :class:`NoOpXApp` loaded -- simulation
output is byte-identical to a run without the subsystem (tested); see
``docs/RIC.md``.
"""

from repro.ric.e2 import (
    E2ControlAck,
    E2ControlRequest,
    E2Indication,
    TunableParams,
)
from repro.ric.guardrails import GuardrailDecision, GuardrailRejection, Guardrails
from repro.ric.hillclimb import HillClimbXApp
from repro.ric.node import CellE2Node
from repro.ric.ric import DEFAULT_REPORT_PERIOD_US, NearRTRIC
from repro.ric.xapp import NoOpXApp, XApp, make_xapp, register_xapp

__all__ = [
    "CellE2Node",
    "DEFAULT_REPORT_PERIOD_US",
    "E2ControlAck",
    "E2ControlRequest",
    "E2Indication",
    "GuardrailDecision",
    "GuardrailRejection",
    "Guardrails",
    "HillClimbXApp",
    "NearRTRIC",
    "NoOpXApp",
    "TunableParams",
    "XApp",
    "make_xapp",
    "register_xapp",
]
