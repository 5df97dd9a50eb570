"""End-to-end single-cell simulation (Figure 11b topology).

Remote server --(wired, 10 ms)-- core network --(xNodeB)-- radio -- UEs.

``CellSimulation`` wires the whole stack together: a Poisson (or incast)
flow workload terminating in per-flow TCP-Cubic senders at the server,
the xNodeB user plane (PDCP flow inspection, RLC UM/AM buffers, MAC
scheduler under test), the fading channel with CQI reporting, and UE-side
receivers that reassemble, decipher, and ACK.  The uplink carries ACKs
and RLC status reports with a fixed delay (the paper studies downlink
scheduling only).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO, Union

import numpy as np

from repro.cc import make_cc
from repro.mac.scheduler import MacScheduler
from repro.net.packet import FiveTuple, Packet
from repro.net.tcp import TcpFlow, TcpReceiver
from repro.pdcp.entity import CipheredPdu
from repro.phy.channel import ChannelModel
from repro.rlc.pdu import RlcSdu
from repro.sim.config import SimConfig
from repro.sim.engine import EventEngine, PeriodicTask, microseconds
from repro.sim.enb import XNodeB
from repro.sim.metrics import MetricsCollector, SimResult
from repro.sim.ue import FlowRuntime, UeContext
from repro.telemetry.registry import TelemetryRegistry, coerce_registry
from repro.traffic.generator import FlowSpec
from repro.traffic.workloads import make_generator

if TYPE_CHECKING:
    from repro.sim.trace import SchedulingTrace
    from repro.telemetry.flowtrace import FlowTracer
    from repro.telemetry.heartbeat import Heartbeat

SERVER_IP = 0x0A00_0001
UE_IP_BASE = 0x0B00_0000

#: ``TcpFlow`` lifetime counters summed into the ``tcp.*`` telemetry.
_TCP_COUNTERS = ("packets_sent", "retransmits", "rto_firings", "ecn_ce_acks")


#: Scheduler names.  ``outran`` is epsilon 0.2 over PF, ``mlfq_strict``
#: epsilon 1 (the strict-MLFQ comparison of Figure 7); ``outran:<eps>`` is
#: additionally accepted for other epsilons.
SCHEDULER_NAMES = (
    "pf", "mt", "rr", "bet", "srjf", "pss", "cqa", "mlwdf", "exppf",
    "mlfq_strict", "outran",
)


def is_scheduler_name(spec: str) -> bool:
    """Whether ``make_scheduler`` would accept this name (loads nothing)."""
    name = spec.lower()
    if name.startswith("outran:"):
        try:
            float(name.split(":", 1)[1])
        except ValueError:
            return False
        return True
    return name in SCHEDULER_NAMES


def make_scheduler(spec: Union[str, MacScheduler], config: SimConfig) -> MacScheduler:
    """Build a scheduler from a name (instances pass through), importing
    only the module that implements it."""
    if isinstance(spec, MacScheduler):
        return spec
    if not is_scheduler_name(spec):
        raise ValueError(f"unknown scheduler {spec!r}")
    name = spec.lower()
    window_s = config.fairness_window_s
    if name in ("pf", "mt", "rr", "bet"):
        from repro.mac import pf

        return {
            "pf": pf.ProportionalFairScheduler,
            "mt": pf.MaxThroughputScheduler,
            "rr": pf.RoundRobinScheduler,
            "bet": pf.BlindEqualThroughputScheduler,
        }[name](window_s)
    if name == "srjf":
        from repro.mac.srjf import SrjfScheduler

        return SrjfScheduler(window_s)
    if name in ("pss", "cqa", "mlwdf", "exppf"):
        from repro.mac import qos

        return {
            "pss": qos.PssScheduler,
            "cqa": qos.CqaScheduler,
            "mlwdf": qos.MlwdfScheduler,
            "exppf": qos.ExpPfScheduler,
        }[name](window_s)
    from repro.core.outran import DEFAULT_EPSILON, OutranScheduler
    from repro.mac.pf import ProportionalFairScheduler

    if name == "outran":
        epsilon = DEFAULT_EPSILON
    elif name == "mlfq_strict":
        epsilon = 1.0
    else:
        epsilon = float(name.split(":", 1)[1])
    return OutranScheduler(ProportionalFairScheduler(window_s), epsilon)


def _uses_mlfq(scheduler: MacScheduler, config: SimConfig) -> bool:
    if config.use_mlfq is not None:
        return config.use_mlfq
    return scheduler.intra_user_mlfq


class CellSimulation:
    """One cell, one scheduler, one workload; ``run()`` returns a result."""

    def __init__(
        self,
        config: SimConfig,
        scheduler: Union[str, MacScheduler] = "pf",
        flows: Optional[Sequence[FlowSpec]] = None,
        telemetry: Union[TelemetryRegistry, bool, None] = None,
        flow_trace: Union[FlowTracer, bool, None] = None,
    ) -> None:
        self.config = config
        self.engine = EventEngine()
        #: Telemetry registry the end of the run harvests into (``True``
        #: creates a fresh one; the default None is off).
        self.telemetry = coerce_registry(telemetry)
        #: Per-flow lifecycle tracer (``True`` creates a fresh one; the
        #: default None leaves every emit point behind an ``is not None``
        #: guard, so untraced runs execute the identical instruction
        #: stream).
        self.flow_trace: Optional[FlowTracer] = None
        if flow_trace is not None and flow_trace is not False:
            from repro.telemetry.flowtrace import coerce_flow_tracer

            self.flow_trace = coerce_flow_tracer(flow_trace, config.air_delay_us)
        self._heartbeat: Optional[Heartbeat] = None
        self.scheduler = make_scheduler(scheduler, config)
        if self.telemetry is not None and hasattr(self.scheduler, "collect_stats"):
            self.scheduler.collect_stats = True
        self._use_mlfq = _uses_mlfq(self.scheduler, config)
        self._rng = np.random.default_rng(config.seed)
        self.channel = ChannelModel(
            config.grid, config.scenario, seed=config.seed + 1
        )
        self.metrics = MetricsCollector(
            config.num_ues,
            config.grid.bandwidth_hz,
            config.tti_us,
            fairness_window_s=config.fairness_window_s,
        )
        self.ues = [
            UeContext(
                index=i,
                config=config,
                channel=self.channel.add_ue(i),
                use_mlfq=self._use_mlfq,
                deliver_sdu=self._deliver_sdu,
                on_sdu_dequeued=self._on_sdu_dequeued,
            )
            for i in range(config.num_ues)
        ]
        self.enb = XNodeB(
            config,
            self.scheduler,
            self.channel,
            self.ues,
            self.engine,
            self.metrics,
            np.random.default_rng(config.seed + 2),
        )
        #: Endpoints of the flows whose sender has not finished; a flow
        #: retires (``_on_sender_done``) into ``_retired_tcp`` below.
        self._runtimes: dict[int, FlowRuntime] = {}
        #: Size of every flow ever started, retired ones included.
        self._flow_sizes: dict[int, int] = {}
        self._retired_tcp = dict.fromkeys(_TCP_COUNTERS, 0)
        self._provided_flows = list(flows) if flows is not None else None
        # Priority-boost period is runtime-tunable (Near-RT RIC): the
        # config value is only the starting point.
        self._boost_period_us = config.priority_reset_period_us
        self._reset_task: Optional[PeriodicTask] = None
        self._tti_task: Optional[PeriodicTask] = None
        self._cqi_task: Optional[PeriodicTask] = None
        self._run_started = False
        self._harvested = False
        self._duration_s: Optional[float] = None
        self._completion_hooks: dict[int, Callable[[int], None]] = {}
        if self.flow_trace is not None:
            # Point every layer's emit hooks at the attached tracer.
            for ue in self.ues:
                ue.attach_flow_tracer(self.flow_trace)
            self.enb.attach_flow_tracer(self.flow_trace)

    # -- capacity ----------------------------------------------------------

    def peak_capacity_bps(self) -> float:
        """Mean-SINR capacity upper bound (no protocol/TCP inefficiency).

        Average over UEs of the full-grid throughput each would see alone
        at its mean SINR.
        """
        grid = self.config.grid
        table = self.channel.cqi_table
        effs = []
        for ue in self.ues:
            cqi = table.from_sinr_db(np.array([ue.channel.mean_sinr_db()]))[0]
            effs.append(table.efficiency(int(cqi)))
        mean_eff = float(np.mean(effs))
        bits_per_tti = mean_eff * grid.data_re_per_rb() * grid.num_rbs
        return bits_per_tti * 1e6 / grid.tti_us

    def capacity_bps(self) -> float:
        """Realizable cell capacity used to scale offered load.

        ``peak_capacity_bps`` discounted by ``config.capacity_scale``,
        which is calibrated against the saturated throughput of a PF cell
        (TCP dynamics and fairness spreading keep a real cell below the
        mean-CQI bound).  Deterministic for a seed and shared by every
        scheduler under comparison, so identical nominal loads mean
        identical workloads.
        """
        return self.peak_capacity_bps() * self.config.capacity_scale

    # -- workload -------------------------------------------------------------

    def provide_flows(self, flows: Sequence[FlowSpec]) -> None:
        """Replace the config-derived workload with an explicit flow list.

        Used by workload drivers built outside :class:`SimConfig` (e.g.
        :class:`~repro.traffic.nonstationary.NonStationaryLoad`) that
        need the cell's :meth:`capacity_bps` to size their arrivals.
        Call before :meth:`run`.
        """
        if self._run_started:
            raise RuntimeError("provide_flows() must be called before run()")
        self._provided_flows = list(flows)

    def _make_flows(self, duration_s: float) -> list[FlowSpec]:
        if self._provided_flows is not None:
            return self._provided_flows
        config = self.config
        generator = make_generator(
            config.traffic, config.num_ues, self.capacity_bps(), config.seed + 3
        )
        return generator.generate(duration_s)

    # -- flow plumbing -----------------------------------------------------------

    def _start_flow(self, spec: FlowSpec) -> None:
        ue = self.ues[spec.ue_index]
        if self.flow_trace is not None:
            self.flow_trace.on_flow_start(spec, self.engine.now_us)
        port_key = spec.connection if spec.connection is not None else spec.flow_id
        five_tuple = FiveTuple(
            src_ip=SERVER_IP,
            dst_ip=UE_IP_BASE + spec.ue_index,
            src_port=443,
            dst_port=10_000 + (port_key % 50_000),
        )
        receiver = TcpReceiver(
            spec.flow_id,
            five_tuple,
            spec.size_bytes,
            send_ack=self._route_ack,
            on_complete=partial(self._on_flow_complete, spec),
        )
        sender = TcpFlow(
            self.engine,
            spec.flow_id,
            five_tuple,
            spec.size_bytes,
            route_data=partial(self._route_to_enb, spec.ue_index),
            min_rto_us=self.config.tcp_min_rto_us,
            initial_cwnd_segments=self.config.tcp_initial_cwnd,
            on_sender_done=self._on_sender_done,
            tracer=self.flow_trace,
            cc=make_cc(
                self.config.cc,
                initial_cwnd_segments=self.config.tcp_initial_cwnd,
            ),
        )
        runtime = FlowRuntime(spec, sender, receiver)
        self._runtimes[spec.flow_id] = runtime
        self._flow_sizes[spec.flow_id] = spec.size_bytes
        ue.active_runtimes[spec.flow_id] = runtime
        self.metrics.on_flow_started()
        sender.start()

    def _route_to_enb(self, ue_index: int, pkt: Packet) -> None:
        self.engine.schedule_in(
            self.config.server_delay_us, self.enb.ingress, ue_index, pkt
        )

    def _route_ack(self, ack: Packet) -> None:
        delay = self.config.ul_delay_us + self.config.server_delay_us
        self.engine.schedule_in(
            delay,
            self._ack_arrive,
            ack.flow_id,
            ack.ack_seq,
            ack.sack_blocks,
            ack.ece,
        )

    def _ack_arrive(
        self,
        flow_id: int,
        ack_seq: int,
        sack_blocks: tuple,
        ece: bool,
    ) -> None:
        runtime = self._runtimes.get(flow_id)
        if runtime is not None:  # None: the flow retired while the ACK flew
            runtime.sender.on_ack(ack_seq, sack_blocks, ece)

    def start_flow(
        self,
        spec: FlowSpec,
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Start a flow dynamically at the current simulation time.

        Used by workload drivers that react to simulation events (e.g.
        the webpage loader starting a dependency wave once the previous
        wave finishes).  ``on_complete`` fires with the completion time
        in microseconds.
        """
        if spec.flow_id in self._flow_sizes:
            raise ValueError(f"flow id {spec.flow_id} already in use")
        if on_complete is not None:
            self._completion_hooks[spec.flow_id] = on_complete
        self._start_flow(spec)

    def _on_flow_complete(self, spec: FlowSpec, now_us: int) -> None:
        runtime = self._runtimes[spec.flow_id]
        self.metrics.on_flow_complete(
            spec.flow_id, spec.ue_index, spec.size_bytes, runtime.start_us, now_us
        )
        self.ues[spec.ue_index].active_runtimes.pop(spec.flow_id, None)
        if self.flow_trace is not None:
            self.flow_trace.on_flow_complete(spec.flow_id, now_us)
        hook = self._completion_hooks.pop(spec.flow_id, None)
        if hook is not None:
            hook(now_us)

    def _on_sender_done(self, sender: TcpFlow, now_us: int) -> None:
        """The last ACK arrived: sample the RTT and retire the flow.

        Both endpoints are dropped here, so a run holds the TCP state of
        its live flows only; what outlives the flow is its ``FctRecord`` row,
        its ``_flow_sizes`` entry, the counters folded below and the
        UE's ``FlowTable`` entry (the paper's 41 B per flow).
        """
        if sender.srtt_us is not None:
            self.metrics.on_rtt_sample(sender.srtt_us)
        self._runtimes.pop(sender.flow_id)
        for name in _TCP_COUNTERS:
            self._retired_tcp[name] += getattr(sender, name)

    # -- UE-side delivery --------------------------------------------------------

    def _deliver_sdu(self, ue: UeContext, sdu: RlcSdu, now_us: int) -> None:
        pdu = CipheredPdu(
            packet=sdu.packet,
            sn=sdu.pdcp_sn if sdu.pdcp_sn is not None else 0,
            cipher_key_sn=sdu.pdcp_sn if sdu.pdcp_sn is not None else 0,
        )
        packet = ue.pdcp_rx.receive(pdu)
        if packet is None:
            if self.flow_trace is not None:
                self.flow_trace.on_pdcp_decipher_failure(ue.index, now_us)
            return
        if self.flow_trace is not None:
            # Before on_data: completion fires synchronously inside it, and
            # the tracer must know which leg finished the flow.
            self.flow_trace.on_delivery(packet, now_us)
        runtime = self._runtimes.get(packet.flow_id)
        if runtime is not None:  # None: a duplicate of a retired flow ends here
            runtime.receiver.on_data(packet, now_us)

    def _on_sdu_dequeued(self, sdu: RlcSdu, delay_us: int) -> None:
        self.metrics.on_queue_delay(sdu.packet.flow_id, delay_us)

    # -- run ------------------------------------------------------------------------

    def run(self, duration_s: float, drain_s: float = 2.0) -> SimResult:
        """Generate the workload, simulate, and summarize.

        Arrivals cover ``[0, duration_s)``; the simulation then runs an
        extra ``drain_s`` so in-flight flows can finish (the remainder is
        reported as censored).  A one-shot call into
        :class:`~repro.sim.session.SimulationSession`, which adds
        stepping, pause/inspect, and mid-run checkpoints.
        """
        from repro.sim.session import SimulationSession

        session = SimulationSession(self, duration_s=duration_s, drain_s=drain_s)
        session.start()
        return session.finish()

    # -- session internals -------------------------------------------------
    #
    # ``SimulationSession`` owns the event-loop stepping between these two
    # halves of the old one-shot ``run()``; keeping them on the simulation
    # keeps every wiring detail next to the state it touches.

    def _setup_run(self, duration_s: float, drain_s: float = 2.0) -> int:
        """Schedule the workload and periodic tasks; return the end time."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        if self._run_started:
            raise RuntimeError("simulation already started")
        flows = self._make_flows(duration_s)
        for spec in flows:
            self.engine.schedule_at(spec.start_us, self._start_flow, spec)
        tti = self.config.tti_us
        self._run_started = True
        self._duration_s = duration_s
        self._tti_task = PeriodicTask(
            self.engine, tti, self.enb.on_tti, start_us=tti
        )
        cqi_period_us = max(
            microseconds(self.config.scenario.cqi_period_s), tti
        )
        self._cqi_task = PeriodicTask(self.engine, cqi_period_us, self._on_cqi_update)
        if self._boost_period_us is not None:
            self._reset_task = PeriodicTask(
                self.engine,
                self._boost_period_us,
                self._on_priority_reset,
            )
        return microseconds(duration_s + drain_s)

    def _teardown_run(self) -> None:
        """Stop periodic tasks and fold lifetime counters into metrics."""
        if self._tti_task is not None:
            self._tti_task.stop()
            self._tti_task = None
        if self._cqi_task is not None:
            self._cqi_task.stop()
            self._cqi_task = None
        if self._reset_task is not None:
            self._reset_task.stop()
            self._reset_task = None
        if self._heartbeat is not None:
            self._heartbeat.stop()
        self._harvest_counters()
        if self.telemetry is not None:
            self._harvest_telemetry(self.telemetry)
        self._harvested = True

    def _build_result(self) -> SimResult:
        return SimResult(
            self.metrics,
            self._duration_s,
            scheduler_name=self.scheduler.name,
            flow_sizes=self._flow_sizes,
            extra={
                "capacity_bps": self.capacity_bps(),
                "events": self.engine.events_processed,
                "ttis": self.enb.ttis_run,
                "tbs_lost": self.enb.tbs_lost,
            },
            telemetry=self.telemetry_snapshot(),
            breakdown_log=(
                self.flow_trace._breakdowns
                if self.flow_trace is not None
                else None
            ),
        )

    def _on_cqi_update(self) -> None:
        self.channel.update_all(self.engine.now_s)
        self.enb.refresh_rates()

    def _on_priority_reset(self) -> None:
        for ue in self.ues:
            ue.boost_priorities()

    # -- runtime tuning (Near-RT RIC control surface) ----------------------

    @property
    def uses_mlfq(self) -> bool:
        """Whether per-UE MLFQ queues/flow tables are active in this run."""
        return self._use_mlfq

    @property
    def priority_boost_period_us(self) -> Optional[int]:
        """Current priority-boost period (None = disabled)."""
        return self._boost_period_us

    def set_priority_boost_period(self, period_us: Optional[int]) -> None:
        """Change the section 6.3 priority-boost period at runtime.

        ``None`` disables the periodic boost.  Mid-run the running
        periodic task is replaced, so the next boost fires one new period
        from now; before :meth:`run` this simply overrides the config
        value the run will start with.
        """
        if period_us is not None and period_us <= 0:
            raise ValueError(f"boost period must be positive: {period_us}")
        self._boost_period_us = period_us
        if not self._run_started:
            return
        if self._reset_task is not None:
            self._reset_task.stop()
            self._reset_task = None
        if period_us is not None:
            self._reset_task = PeriodicTask(
                self.engine, period_us, self._on_priority_reset
            )

    def _harvest_counters(self) -> None:
        for ue in self.ues:
            self.metrics.decipher_failures += ue.pdcp_rx.decipher_failures
            discarded = getattr(ue.rlc_rx, "sdus_discarded", 0)
            self.metrics.reassembly_discards += discarded
            self.metrics.sdus_dropped += ue.rlc.sdus_dropped

    # -- observability -----------------------------------------------------------

    def enable_trace(self) -> SchedulingTrace:
        """Record per-TTI scheduling decisions (see ``repro.sim.trace``)."""
        return self.enb.enable_trace()

    def attach_heartbeat(
        self,
        period_s: float = 1.0,
        emit: Optional[Callable[[str], None]] = None,
        stream: Optional[TextIO] = None,
    ) -> Heartbeat:
        """Emit a run-health line every ``period_s`` of simulated time.

        Call before :meth:`run`.  The heartbeat reports sim-time progress,
        events/s, event-queue depth, active flow count, and -- when a
        scheduling trace is attached -- the trace's memory footprint.
        """
        if self._heartbeat is not None:
            return self._heartbeat
        from repro.telemetry.heartbeat import Heartbeat

        heartbeat = Heartbeat(
            self.engine,
            period_s=period_s,
            emit=emit,
            stream=stream if (stream is not None or emit is not None) else sys.stderr,
            sources={
                "active_flows": self._count_active_flows,
                "flows_done": self._count_completed_flows,
            },
        )
        if self.enb.trace is not None:
            heartbeat.add_source("trace_mb", self._trace_mb)
        if self.flow_trace is not None:
            heartbeat.add_source("flowtrace_events", self._flowtrace_events)
        self._heartbeat = heartbeat
        return heartbeat

    def _count_active_flows(self) -> int:
        return sum(len(ue.active_runtimes) for ue in self.ues)

    def _count_completed_flows(self) -> int:
        return self.metrics.completed

    def _trace_mb(self) -> float:
        trace = self.enb.trace
        return trace.memory_bytes() / 1e6 if trace is not None else 0.0

    def _flowtrace_events(self) -> int:
        return self.flow_trace.event_count

    def telemetry_snapshot(self) -> Optional[dict]:
        """Registry snapshot (None when telemetry is off)."""
        if self.telemetry is None:
            return None
        return self.telemetry.snapshot()

    def live_telemetry_snapshot(self) -> dict:
        """Registry-shaped snapshot of the *current* state (mid-run safe).

        The end-of-run path folds lifetime counters into the attached
        registry exactly once; a live scrape instead harvests the same
        pure reads into a throwaway registry, so it can run any number of
        times without perturbing the final accounting, and two scrapes at
        one simulated position are equal.  Works with telemetry off too:
        the scrape pays the harvest cost, the running cell pays nothing.
        """
        if self._harvested and self.telemetry is not None:
            return self.telemetry_snapshot()
        live = TelemetryRegistry()
        self._harvest_telemetry(live)
        return live.snapshot()

    def _harvest_telemetry(self, reg: TelemetryRegistry) -> None:
        """Fold every layer's lifetime counters into ``reg``.

        Pure reads of simulated state: harvesting cannot perturb the
        simulation, and what it writes is the same for every host that
        ran the same seed.
        """
        # engine --------------------------------------------------------
        reg.counter("engine.events_processed").inc(self.engine.events_processed)
        reg.gauge("engine.queue_depth").set(self.engine.pending())
        # MAC -----------------------------------------------------------
        self.enb.harvest_telemetry(reg)
        # RLC / PDCP / MLFQ ---------------------------------------------
        rlc_tx = {"sdus_sent": 0, "pdus_built": 0, "segments_sent": 0,
                  "sdus_dropped": 0, "sdus_marked": 0}
        rlc_am = {"retx_transmissions": 0, "spurious_retx": 0,
                  "pdus_abandoned": 0, "retx_queue_depth": 0}
        rx_delivered = rx_discarded = rx_partials = 0
        buffered_bytes = 0
        sns = pdcp_delivered = pdcp_failures = 0
        flows_tracked = packets_observed = demotions = boosts = 0
        for ue in self.ues:
            for key in rlc_tx:
                rlc_tx[key] += getattr(ue.rlc, key)
            for key in rlc_am:
                rlc_am[key] += getattr(ue.rlc, key, 0)
            rx_delivered += getattr(ue.rlc_rx, "sdus_delivered", 0)
            rx_discarded += getattr(ue.rlc_rx, "sdus_discarded", 0)
            rx_partials += getattr(ue.rlc_rx, "pending_partials", 0)
            buffered_bytes += ue.rlc.buffered_bytes
            sns += ue.pdcp.sns_allocated
            pdcp_delivered += ue.pdcp_rx.delivered
            pdcp_failures += ue.pdcp_rx.decipher_failures
            flows_tracked += len(ue.flow_table)
            packets_observed += ue.flow_table.packets_observed
            demotions += ue.flow_table.demotions
            boosts += ue.flow_table.priority_resets
        for key, value in rlc_tx.items():
            reg.counter(f"rlc.tx.{key}").inc(value)
        for key, value in rlc_am.items():
            if key == "retx_queue_depth":
                reg.gauge("rlc.am.retx_queue_depth").set(value)
            else:
                reg.counter(f"rlc.am.{key}").inc(value)
        reg.counter("rlc.rx.sdus_delivered").inc(rx_delivered)
        reg.counter("rlc.rx.reassembly_expiries").inc(rx_discarded)
        reg.gauge("rlc.rx.pending_partials").set(rx_partials)
        reg.gauge("rlc.tx.buffered_bytes").set(buffered_bytes)
        reg.counter("pdcp.sns_allocated").inc(sns)
        reg.counter("pdcp.sdus_delivered").inc(pdcp_delivered)
        reg.counter("pdcp.decipher_failures").inc(pdcp_failures)
        reg.gauge("pdcp.flow_table.flows").set(flows_tracked)
        reg.counter("pdcp.flow_table.packets_observed").inc(packets_observed)
        reg.counter("mlfq.demotions").inc(demotions)
        reg.counter("mlfq.priority_boosts").inc(boosts)
        # TCP -----------------------------------------------------------
        tcp = dict(self._retired_tcp)
        cwnds = []  # of every sender still running
        for runtime in self._runtimes.values():
            sender = runtime.sender
            for name in _TCP_COUNTERS:
                tcp[name] += getattr(sender, name)
            cwnds.append(sender.cwnd_bytes)
        for name, value in tcp.items():
            reg.counter(f"tcp.{name}").inc(value)
        reg.gauge("tcp.cwnd_bytes.mean").set(float(np.mean(cwnds)) if cwnds else 0.0)
        reg.gauge("tcp.cwnd_bytes.max").set(float(max(cwnds)) if cwnds else 0.0)
        # flows ---------------------------------------------------------
        reg.counter("sim.flows_started").inc(self.metrics.flows_started)
        reg.counter("sim.flows_completed").inc(self.metrics.completed)
        reg.gauge("sim.flows_active").set(
            sum(len(ue.active_runtimes) for ue in self.ues)
        )
        # flow tracing --------------------------------------------------
        if self.flow_trace is not None:
            reg.counter("flowtrace.flows_decomposed").inc(
                self.flow_trace.completed_flows
            )
            reg.counter("flowtrace.incomplete_flows").inc(
                self.flow_trace.incomplete_flows
            )
            reg.gauge("flowtrace.events").set(self.flow_trace.event_count)
