"""The xNodeB: per-TTI MAC allocation, RLC grants, air transmission.

Every TTI the :class:`XNodeB`:

1. writes each UE's row of the scheduling table from its buffer status
   report (activity and OutRAN's MLFQ priority attribute) and the
   oracle columns the clairvoyant baselines read,
2. asks the configured MAC scheduler to allocate the RB grid against the
   latest CQI-derived rate matrix,
3. converts each UE's RB share into a byte grant, lets the RLC entity
   assemble PDUs (segmentation, retransmissions, MLFQ order), and puts the
   resulting transport block "on the air" -- a delayed delivery event,
   subject to the configured transport-block error rate,
4. feeds served bits back to the scheduler (PF EWMA) and the metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from repro.mac.bsr import IDLE_LEVEL
from repro.mac.kernels import SchedArrays
from repro.mac.scheduler import MacScheduler
from repro.phy.channel import ChannelModel
from repro.rlc.pdu import RlcPdu
from repro.sim.config import SimConfig
from repro.sim.engine import US_PER_SEC, EventEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.ue import UeContext

if TYPE_CHECKING:
    from repro.mac.harq import HarqEntity
    from repro.rlc.am import AmStatus
    from repro.sim.trace import SchedulingTrace
    from repro.telemetry.flowtrace import FlowTracer
    from repro.telemetry.registry import TelemetryRegistry


class XNodeB:
    """Base station: owns the scheduler and drives the TTI loop."""

    def __init__(
        self,
        config: SimConfig,
        scheduler: MacScheduler,
        channel: ChannelModel,
        ues: Sequence[UeContext],
        engine: EventEngine,
        metrics: MetricsCollector,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.channel = channel
        self.ues = list(ues)
        self.engine = engine
        self.metrics = metrics
        self._rng = rng
        self._rates = channel.rate_matrix_bits()
        # The clairvoyant baselines declare the oracle columns they read;
        # nothing is refreshed for a scheduler that declares none.
        self._oracle = bool(scheduler.oracle_columns)
        self._qos_oracle = (
            config.qos_oracle or "qos_hol_delay_us" in scheduler.oracle_columns
        )
        # The per-UE MAC state of the cell, and the table every scheduler
        # reads: the backlog scan below writes activity, head levels and
        # the oracle columns, the end of the TTI EWMA and last-served.
        self._table = SchedArrays(len(self.ues))
        #: When each UE's current backlog episode began (or the time of its
        #: last grant within it).  Maintained only while a flow tracer is
        #: attached -- nothing in the scheduling path reads it, so tracing
        #: cannot change allocation decisions.
        self._backlog_since_us: list[Optional[int]] = [None] * len(self.ues)
        #: Runtime parameter changes (Near-RT RIC controls) queued to be
        #: applied at the top of the next TTI, never mid-allocation.
        self._pending_controls: list[Callable[[], None]] = []
        if config.harq_enabled:
            from repro.mac.harq import HarqEntity

            self._harq: list[HarqEntity] | None = [
                HarqEntity(
                    int(rng.integers(2**63)),
                    rtt_us=config.harq_rtt_ttis * config.tti_us,
                    max_retx=config.harq_max_retx,
                    ue_id=ue.index,
                )
                for ue in self.ues
            ]
        else:
            self._harq = None
        #: Optional flow-lifecycle tracer (attach via attach_flow_tracer()).
        self._flowtrace: FlowTracer | None = None
        self.ttis_run = 0
        self._ttis_per_second = US_PER_SEC // config.tti_us
        self.tbs_lost = 0
        #: Optional per-TTI scheduling trace (attach via enable_trace()).
        self.trace: SchedulingTrace | None = None

    def enable_trace(self) -> SchedulingTrace:
        """Start recording per-TTI scheduling decisions."""
        if self.trace is None:
            from repro.sim.trace import SchedulingTrace

            self.trace = SchedulingTrace(
                len(self.ues), self.config.grid.num_rbs
            )
        return self.trace

    def attach_flow_tracer(self, tracer: FlowTracer) -> None:
        """Route MAC/HARQ flow-lifecycle events to ``tracer``."""
        self._flowtrace = tracer
        if self._harq is not None:
            for harq in self._harq:
                harq.tracer = tracer

    # -- channel ------------------------------------------------------------

    def refresh_rates(self) -> None:
        """Recompute the rate matrix after a CQI reporting instant."""
        self._rates = self.channel.rate_matrix_bits()

    # -- ingress (packets arriving from the core network) ---------------------

    def ingress(self, ue_index: int, packet) -> None:
        """PDCP header inspection + RLC enqueue for a downlink packet."""
        ue = self.ues[ue_index]
        now = self.engine.now_us
        if self._flowtrace is not None:
            self._flowtrace.on_enb_ingress(packet, now)
        level, eager_sn = ue.pdcp.ingress(packet, now)
        sdu = ue.rlc.write_sdu(packet, level, now)
        # Drops are tallied from the RLC counters at harvest time.
        if sdu is not None and eager_sn is not None:
            sdu.pdcp_sn = eager_sn

    # -- the TTI loop ------------------------------------------------------------

    def request_control(self, apply: Callable[[], None]) -> None:
        """Queue a runtime parameter change for the next TTI boundary.

        Controls apply between TTIs, never mid-allocation: a TTI is
        scheduled under one set of parameters from scan to grant.
        """
        self._pending_controls.append(apply)

    def on_tti(self) -> None:
        """One scheduling interval."""
        if self._pending_controls:
            controls, self._pending_controls = self._pending_controls, []
            for apply in controls:
                apply()
        now = self.engine.now_us
        self.ttis_run += 1
        if self.ttis_run % self._ttis_per_second == 0:
            # Section 4.2 expiry: a long-lived cell must not keep a record
            # for every five-tuple it ever saw.
            for ue in self.ues:
                ue.flow_table.expire_idle(now)
        table = self._table
        backlogged: list[int] = []
        since_us = self._backlog_since_us
        for ue in self.ues:
            i = ue.index
            harq_bytes = self._harq[i].pending_bytes if self._harq is not None else 0
            if ue.rlc.has_backlog() or harq_bytes:
                head_level = ue.rlc.queue.head_level()
                if harq_bytes:
                    # HARQ retransmissions outrank new data: advertise them
                    # like RLC retx backlog at the top priority.
                    head_level = 0 if head_level is None else min(head_level, 0)
                backlogged.append(i)
                table.set_report(i, head_level)
                if self._flowtrace is not None and since_us[i] is None:
                    since_us[i] = now
                if self._oracle:
                    table.set_oracle(i, *ue.refresh_oracle(now, self._qos_oracle))
            elif table.active[i]:
                table.clear_report(i)
                since_us[i] = None
        served_bits = np.zeros(len(self.ues))
        owner = None
        grant_bits = np.zeros(len(self.ues))
        if backlogged:
            owner = self.scheduler.allocate(self._rates, table, now)
            valid = owner >= 0
            if valid.any():
                rb_idx = np.nonzero(valid)[0]
                owners = owner[rb_idx]
                # A UE's grant is the sum of the per-RB rates it owns.
                grant_bits = np.bincount(
                    owners,
                    weights=self._rates[owners, rb_idx],
                    minlength=len(self.ues),
                ).astype(float)
                for ue_index in np.nonzero(grant_bits)[0]:
                    if self._flowtrace is not None:
                        since = since_us[ue_index]
                        self._flowtrace.on_mac_grant(
                            int(ue_index),
                            int(grant_bits[ue_index]),
                            now - since if since is not None else 0,
                            now,
                        )
                        since_us[ue_index] = now
                    self._serve_ue(
                        self.ues[ue_index],
                        int(grant_bits[ue_index]) // 8,
                        served_bits,
                    )
        # Post-allocation accounting: trace, metrics, scheduler EWMA.
        if self.trace is not None:
            self.trace.record(
                now,
                owner if owner is not None
                else np.full(self.config.grid.num_rbs, -1, dtype=np.int64),
                grant_bits.astype(np.int64),
                np.array([ue.rlc.buffered_bytes for ue in self.ues]),
                # Not a mask on ``active``: an AM UE with only Retx/Ctrl
                # backlog is active and has no head level.
                np.where(table.head_levels == IDLE_LEVEL, -1, table.head_levels),
            )
        self.metrics.on_tti(now, served_bits, backlogged)
        self.scheduler.on_tti_end(table, served_bits, self.config.tti_us)
        table.last_served_us[served_bits != 0] = now

    def _serve_ue(
        self, ue: UeContext, grant_bytes: int, served_bits: np.ndarray
    ) -> None:
        now = self.engine.now_us
        budget = grant_bytes
        sent_bits = 0
        # 1. HARQ retransmissions first: they outrank new data on the air.
        harq = self._harq[ue.index] if self._harq is not None else None
        if harq is not None and harq.has_pending:
            for process in harq.due_processes(now):
                if process.tb_bytes > budget:
                    break
                budget -= process.tb_bytes
                sent_bits += process.tb_bytes * 8
                if harq.attempt(process, now):
                    self.engine.schedule_in(
                        self.config.air_delay_us,
                        self._deliver_tb,
                        ue,
                        process.items,
                        False,
                    )
        # 2. New data within the leftover grant.
        items = ue.rlc.build_transmissions(budget, now)
        if items:
            tx_bytes = sum(item.wire_bytes for item in items)
            sent_bits += tx_bytes * 8
            lost = self.config.radio_bler > 0 and bool(
                self._rng.random() < self.config.radio_bler
            )
            if lost and harq is not None:
                harq.on_initial_failure(
                    items, tx_bytes, self.config.radio_bler, now
                )
            else:
                self.engine.schedule_in(
                    self.config.air_delay_us, self._deliver_tb, ue, items, lost
                )
        served_bits[ue.index] = sent_bits

    # -- the air interface -----------------------------------------------------------

    def _deliver_tb(
        self, ue: UeContext, items: list[Union[RlcPdu, AmStatus]], lost: bool
    ) -> None:
        if lost:
            self.tbs_lost += 1
            return  # UM: reassembly window cleans up; AM: status/poll recovers
        now = self.engine.now_us
        for item in items:
            if isinstance(item, RlcPdu):
                status = ue.rlc_rx.receive_pdu(item, now)
                if status is not None:  # only an AM receiver answers
                    self.engine.schedule_in(
                        self.config.ul_delay_us, self._deliver_status, ue, status
                    )
            # eNB->UE AmStatus control PDUs are absorbed by the UE.

    def _deliver_status(self, ue: UeContext, status: AmStatus) -> None:
        ue.rlc.receive_status(status, self.engine.now_us)

    # -- telemetry -------------------------------------------------------------

    def harvest_telemetry(self, reg: TelemetryRegistry) -> None:
        """Fold the MAC layer's lifetime counters into ``reg``.

        Pure reads; the cell decides which registry (its own at the end
        of a run, a throwaway one for a live scrape).
        """
        reg.counter("mac.ttis_run").inc(self.ttis_run)
        reg.counter("mac.tbs_lost").inc(self.tbs_lost)
        if self._harq is not None:
            reg.counter("mac.harq.retransmissions").inc(
                sum(h.retransmissions for h in self._harq)
            )
            reg.counter("mac.harq.abandoned").inc(
                sum(h.abandoned for h in self._harq)
            )
            reg.gauge("mac.harq.pending_bytes").set(
                sum(h.pending_bytes for h in self._harq)
            )
        if getattr(self.scheduler, "collect_stats", False):
            reg.counter("mac.epsilon.rb_assignments").inc(
                self.scheduler.rb_assignments
            )
            reg.counter("mac.epsilon.rb_reselections").inc(
                self.scheduler.rb_reselections
            )
        if self.trace is not None:
            reg.gauge("mac.trace.ttis").set(len(self.trace))
            reg.gauge("mac.trace.memory_bytes").set(self.trace.memory_bytes())
