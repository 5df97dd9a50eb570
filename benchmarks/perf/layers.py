"""Data tables of the traced run: what is wrapped, what is reported.

``TARGETS`` lists the layers' *public* entry points as
``(group, dotted.path)``.  The span recorder wraps each path at class
level before the simulation is built; an entry that no longer resolves
is counted in ``trace.missing_targets`` and skipped.  A group is the
unit the per-layer time metrics sum over (``<group>_self_s``).

The remaining tables map per-layer metric names (declared with their
units in ``BENCHMARK.json``) onto groups, single targets, and counters of
the run's ``TelemetryRegistry`` snapshot.
"""

from __future__ import annotations

#: Benchmark-owned root span around start()-returned .. finish()-returned.
ROOT = "bench.run"

_FLOWTRACER_HOOKS = (
    "on_flow_start", "on_tcp_tx", "on_tcp_rto", "on_tcp_recovery",
    "on_enb_ingress", "on_pdcp_ingress", "on_rlc_enqueue", "on_rlc_drop",
    "on_rlc_first_tx", "on_rlc_last_tx", "on_rlc_am_retx", "on_mac_grant",
    "on_harq_failure", "on_harq_attempt", "on_pdcp_decipher_failure",
    "on_delivery", "on_flow_complete", "breakdowns",
)
_CC_HOOKS = ("on_ack", "on_ecn", "on_loss", "on_recovery_exit", "on_rto")

TARGETS: tuple[tuple[str, str], ...] = (
    ("engine", "repro.sim.engine.EventEngine.run_until"),
    # traffic: every generator CellSimulation can pick from TrafficSpec.kind
    ("traffic", "repro.traffic.generator.PoissonTrafficGenerator.generate"),
    ("traffic", "repro.traffic.generator.IncastGenerator.generate"),
    ("traffic", "repro.traffic.workloads.IncastFanInGenerator.generate"),
    ("traffic", "repro.traffic.workloads.RpcWorkloadGenerator.generate"),
    ("traffic", "repro.traffic.workloads.VideoWorkloadGenerator.generate"),
    ("tcp", "repro.net.tcp.TcpFlow.start"),
    ("tcp", "repro.net.tcp.TcpFlow.on_ack"),
    ("tcp", "repro.net.tcp.TcpReceiver.on_data"),
    *(("cc.hooks", f"repro.cc.cubic.CubicCC.{h}") for h in _CC_HOOKS),
    *(("cc.hooks", f"repro.cc.dctcp.DctcpCC.{h}") for h in _CC_HOOKS),
    ("cc.hooks", "repro.cc.base.CongestionControl.on_rtt_sample"),
    ("cc.aqm", "repro.cc.aqm.EcnMarker.should_mark"),
    ("enb.on_tti", "repro.sim.enb.XNodeB.on_tti"),
    ("enb.ingress", "repro.sim.enb.XNodeB.ingress"),
    ("pdcp", "repro.pdcp.entity.PdcpEntity.ingress"),
    ("pdcp", "repro.pdcp.entity.PdcpEntity.egress"),
    ("pdcp", "repro.pdcp.entity.PdcpReceiver.receive"),
    ("core.flow_table", "repro.core.flow_table.FlowTable.observe"),
    ("core.mlfq", "repro.core.mlfq.MlfqQueue.push"),
    ("core.mlfq", "repro.core.mlfq.MlfqQueue.push_front"),
    ("core.mlfq", "repro.core.mlfq.MlfqQueue.push_promoted"),
    ("core.mlfq", "repro.core.mlfq.MlfqQueue.pop"),
    ("core.inter_user", "repro.core.outran.OutranScheduler.allocate"),
    ("rlc.write_sdu", "repro.rlc.um.UmTransmitter.write_sdu"),
    ("rlc.write_sdu", "repro.rlc.am.AmTransmitter.write_sdu"),
    ("rlc.build", "repro.rlc.um.UmTransmitter.build_pdu"),
    ("rlc.build", "repro.rlc.am.AmTransmitter.build_transmissions"),
    ("rlc.buffer_status", "repro.rlc.um.UmTransmitter.buffer_status"),
    ("rlc.buffer_status", "repro.rlc.am.AmTransmitter.buffer_status"),
    ("rlc.rx", "repro.rlc.am.AmTransmitter.receive_status"),
    ("rlc.rx", "repro.rlc.um.UmReceiver.receive_pdu"),
    ("rlc.rx", "repro.rlc.um.UmReceiver.flush_expired"),
    ("rlc.rx", "repro.rlc.am.AmReceiver.receive_pdu"),
    # mac: OutRAN calls the legacy scheduler's metric_matrix, a plain
    # legacy scheduler would be entered through allocate.
    ("mac.allocate", "repro.mac.scheduler.MetricScheduler.allocate"),
    ("mac.allocate", "repro.mac.pf.ProportionalFairScheduler.metric_matrix"),
    ("mac.on_tti_end", "repro.mac.scheduler.MetricScheduler.on_tti_end"),
    ("mac.harq", "repro.mac.harq.HarqEntity.on_initial_failure"),
    ("mac.harq", "repro.mac.harq.HarqEntity.due_processes"),
    ("mac.harq", "repro.mac.harq.HarqEntity.attempt"),
    ("phy", "repro.phy.channel.ChannelModel.update_all"),
    ("phy", "repro.phy.channel.ChannelModel.rate_matrix_bits"),
    ("phy", "repro.phy.channel.ChannelModel.cqi_matrix"),
    ("telemetry", "repro.sim.cell.CellSimulation.live_telemetry_snapshot"),
    ("telemetry", "repro.sim.cell.CellSimulation.telemetry_snapshot"),
    *(
        ("telemetry", f"repro.telemetry.flowtrace.FlowTracer.{h}")
        for h in _FLOWTRACER_HOOKS
    ),
    ("session.step", "repro.sim.session.SimulationSession.step"),
    ("session.snapshot", "repro.sim.session.SimulationSession.snapshot"),
    ("session.checkpoint", "repro.sim.session.SimulationSession.checkpoint"),
    ("session.resume", "repro.sim.session.SimulationSession.resume"),
)

#: metric -> groups whose self time it sums (seconds).
SELF_TIME: dict[str, tuple[str, ...]] = {
    "engine.self_s": ("engine",),
    "tcp.self_s": ("tcp",),
    "cc.self_s": ("cc.hooks", "cc.aqm"),
    "enb.on_tti_self_s": ("enb.on_tti",),
    "enb.ingress_self_s": ("enb.ingress",),
    "pdcp.self_s": ("pdcp",),
    "core.flow_table_self_s": ("core.flow_table",),
    "core.mlfq_self_s": ("core.mlfq",),
    "core.inter_user_self_s": ("core.inter_user",),
    "rlc.write_sdu_self_s": ("rlc.write_sdu",),
    "rlc.build_self_s": ("rlc.build",),
    "rlc.buffer_status_self_s": ("rlc.buffer_status",),
    "rlc.rx_self_s": ("rlc.rx",),
    "mac.allocate_self_s": ("mac.allocate",),
    "mac.on_tti_end_self_s": ("mac.on_tti_end",),
    "mac.harq_self_s": ("mac.harq",),
    "phy.self_s": ("phy",),
    "telemetry.self_s": ("telemetry",),
    "session.step_self_s": ("session.step",),
    "session.snapshot_s": ("session.snapshot",),
    "session.checkpoint_s": ("session.checkpoint",),
    "session.resume_s": ("session.resume",),
}

#: metric -> groups whose calls it counts.
CALLS: dict[str, tuple[str, ...]] = {
    "cc.calls": ("cc.hooks",),
    "cc.aqm_calls": ("cc.aqm",),
    "pdcp.calls": ("pdcp",),
    "core.flow_table_calls": ("core.flow_table",),
    "core.mlfq_calls": ("core.mlfq",),
    "rlc.calls": ("rlc.write_sdu", "rlc.build", "rlc.buffer_status", "rlc.rx"),
    "mac.allocate_calls": ("mac.allocate",),
    "phy.calls": ("phy",),
    "telemetry.calls": ("telemetry",),
    "session.steps": ("session.step",),
}

#: metric -> single target whose calls it counts.
TARGET_CALLS: dict[str, str] = {
    "tcp.on_ack_calls": "repro.net.tcp.TcpFlow.on_ack",
    "tcp.on_data_calls": "repro.net.tcp.TcpReceiver.on_data",
}

#: metric -> counter in the run's TelemetryRegistry snapshot.
COUNTERS: dict[str, str] = {
    "engine.events": "engine.events_processed",
    "traffic.flows": "sim.flows_started",
    "tcp.packets_sent": "tcp.packets_sent",
    "tcp.retransmits": "tcp.retransmits",
    "tcp.rto_firings": "tcp.rto_firings",
    "tcp.ecn_ce_acks": "tcp.ecn_ce_acks",
    "enb.ttis": "mac.ttis_run",
    "pdcp.sns_allocated": "pdcp.sns_allocated",
    "pdcp.decipher_failures": "pdcp.decipher_failures",
    "core.mlfq_demotions": "mlfq.demotions",
    "core.rb_reselections": "mac.epsilon.rb_reselections",
    "rlc.pdus_built": "rlc.tx.pdus_built",
    "rlc.segments_sent": "rlc.tx.segments_sent",
    "rlc.sdus_dropped": "rlc.tx.sdus_dropped",
    "rlc.sdus_marked": "rlc.tx.sdus_marked",
    "rlc.reassembly_expiries": "rlc.rx.reassembly_expiries",
    "rlc.am_retx": "rlc.am.retx_transmissions",
    "mac.harq_retx": "mac.harq.retransmissions",
    "mac.tbs_lost": "mac.tbs_lost",
}
