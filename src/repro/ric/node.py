"""The cell-side E2 node: indications out, guardrail-checked controls in.

:class:`CellE2Node` adapts one :class:`~repro.sim.cell.CellSimulation` to
the E2 message types.  Reads (``indication``) are pure; writes
(``control``) are validated against the :class:`~repro.ric.guardrails.
Guardrails` and, when accepted, queued on the xNodeB to be applied at the
*next TTI boundary* (a TTI is scheduled under one set of parameters,
from the scan that writes the xNodeB's scheduler table to the grants).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.core.mlfq import MlfqConfig
from repro.core.outran import OutranScheduler
from repro.ric.e2 import E2ControlAck, E2ControlRequest, E2Indication, TunableParams
from repro.ric.guardrails import GuardrailDecision, Guardrails
from repro.telemetry.kpi import KpiCollector

if TYPE_CHECKING:
    from repro.sim.cell import CellSimulation
    from repro.sim.engine import EventEngine


class CellE2Node:
    """One cell's termination of the E2 interface."""

    def __init__(
        self,
        sim: "CellSimulation",
        cell_id: int = 0,
        guardrails: Optional[Guardrails] = None,
    ) -> None:
        self._sim = sim
        self.cell_id = cell_id
        self.guardrails = guardrails or Guardrails()
        self._kpis = KpiCollector(sim)
        self._seq = 0
        self._last_indication_us = 0
        self.controls_accepted = 0
        self.controls_rejected = 0

    @property
    def engine(self) -> "EventEngine":
        return self._sim.engine

    # -- reporting (pure reads) ------------------------------------------

    def current_params(self) -> TunableParams:
        """The parameters currently in effect (already-applied controls).

        Controls still queued for the next TTI boundary are *not*
        reflected; guardrail step limits are therefore evaluated against
        the live configuration.
        """
        sim = self._sim
        epsilon = None
        scheduler = sim.scheduler
        if isinstance(scheduler, OutranScheduler) and scheduler.top_k is None:
            epsilon = scheduler.epsilon
        thresholds: Optional[tuple[int, ...]] = None
        if sim.uses_mlfq:
            configured = sim.ues[0].flow_table.config.thresholds
            thresholds = tuple(configured) if configured else None
        return TunableParams(
            epsilon=epsilon,
            thresholds=thresholds,
            boost_period_us=sim.priority_boost_period_us,
        )

    def indication(self) -> E2Indication:
        """Snapshot the KPI window since the previous indication."""
        now = self._sim.engine.now_us
        window_us = now - self._last_indication_us
        self._last_indication_us = now
        self._seq += 1
        return E2Indication(
            cell_id=self.cell_id,
            seq=self._seq,
            t_us=now,
            window_us=window_us,
            kpi=self._kpis.snapshot(window_us),
            params=self.current_params(),
        )

    # -- control ----------------------------------------------------------

    def control(self, request: E2ControlRequest) -> E2ControlAck:
        """Validate ``request``; queue the accepted change for the next TTI."""
        now = self._sim.engine.now_us
        decision = self.guardrails.validate(self.current_params(), request)
        if not decision.accepted:
            self.controls_rejected += 1
            return E2ControlAck(
                request=request, accepted=False, detail=decision.detail, t_us=now
            )
        self.controls_accepted += 1
        # ``partial`` (not a lambda) so a session checkpoint can pickle a
        # control that is still queued for the next TTI boundary.
        self._sim.enb.request_control(partial(self._apply, decision))
        return E2ControlAck(
            request=request,
            accepted=True,
            detail=decision.detail,
            t_us=now,
            resolved=decision.resolved_request(request),
        )

    def _apply(self, decision: GuardrailDecision) -> None:
        """Apply a validated decision (runs at a TTI boundary)."""
        sim = self._sim
        if decision.epsilon is not None:
            # Read per allocation; no cached state.
            sim.scheduler.epsilon = decision.epsilon
        if decision.thresholds is not None:
            config = MlfqConfig(
                num_queues=len(decision.thresholds) + 1,
                thresholds=decision.thresholds,
            )
            # Head levels shift as reclassified packets arrive; the TTI
            # this runs ahead of mirrors them into the scheduler's table.
            for ue in sim.ues:
                ue.flow_table.reconfigure(config)
                ue.rlc.queue.reconfigure(config)
        if decision.boost_period_us is not None:
            sim.set_priority_boost_period(decision.boost_period_us or None)
