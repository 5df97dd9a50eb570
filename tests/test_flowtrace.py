"""Tests for the per-flow FCT provenance tracer and its consumers.

Load-bearing invariants:

* A traced flow's per-layer components sum *exactly* (integer
  microseconds) to its FCT, across schedulers, RLC modes, and loss.
* Tracing is observability only: same-seed runs with and without the
  tracer produce identical results, down to the serialized ``--json``
  bytes at the CLI level.
* The Chrome trace export is valid trace-event JSON (Perfetto /
  chrome://tracing compatible).
"""

import hashlib
import json
import warnings
from dataclasses import astuple, replace

import pytest

from repro import CellSimulation, SimConfig
from repro.analysis.breakdown import (
    aggregate_breakdowns,
    breakdown_report,
    dominant_component,
)
from repro.cli import main
from repro.telemetry.flowtrace import (
    _RLC_DROP,
    _TCP_RETX,
    COMPONENTS,
    LAYER_TRACKS,
    FlowBreakdown,
    FlowTracer,
    coerce_flow_tracer,
)


def run_traced(scheduler="outran", seed=3, duration_s=1.0, **overrides):
    cfg_kwargs = dict(num_ues=4, load=0.5, seed=seed)
    cfg_kwargs.update(overrides)
    cfg = SimConfig.lte_default(**cfg_kwargs)
    sim = CellSimulation(cfg, scheduler=scheduler, flow_trace=True)
    return sim, sim.run(duration_s)


class TestDecomposition:
    @pytest.mark.parametrize(
        "scheduler,seed,overrides",
        [
            ("outran", 3, {}),
            ("pf", 7, {}),
            ("rr", 11, {}),
            ("outran", 5, {"rlc_mode": "am", "radio_bler": 0.1}),
            ("outran", 9, {"rlc_mode": "um", "radio_bler": 0.1}),
        ],
    )
    def test_components_sum_exactly_to_fct(self, scheduler, seed, overrides):
        sim, result = run_traced(scheduler, seed=seed, **overrides)
        tracer = sim.flow_trace
        breakdowns = tracer.breakdowns()
        assert breakdowns, "traced run completed no flows"
        # Every completed flow is accounted for: decomposed or explicitly
        # counted as incomplete (never silently dropped).
        assert (
            tracer.completed_flows + tracer.incomplete_flows
            == result.completed_flows
        )
        for b in breakdowns:
            components = b.components()
            assert set(components) == set(COMPONENTS)
            assert sum(components.values()) == b.fct_us
            assert all(value >= 0 for value in components.values())
            assert b.end_us - b.start_us == b.fct_us
            assert b.fct_us > 0

    def test_loss_shows_up_in_recovery_counters(self):
        sim, _ = run_traced("outran", seed=5, rlc_mode="am", radio_bler=0.15)
        breakdowns = sim.flow_trace.breakdowns()
        assert sum(b.harq_retx for b in breakdowns) > 0

    def test_breakdown_dict_view(self):
        sim, _ = run_traced()
        b = sim.flow_trace.breakdowns()[0]
        d = b.as_dict()
        assert d["fct_us"] == b.fct_us
        assert sum(d["components_us"].values()) == d["fct_us"]
        assert d["bucket"] in ("S", "M", "L")
        json.dumps(d)  # JSON-serializable as-is


class _Leg:
    """One copy of one TCP segment crossing the stack, in tracer-owned state."""

    def __init__(self, tx_us):
        self.tx_us = tx_us
        self.ingress_us = self.enqueue_us = None
        self.first_tx_us = self.last_tx_us = self.delivered_us = None

    @property
    def complete(self):
        return None not in (
            self.ingress_us, self.enqueue_us, self.first_tx_us,
            self.last_tx_us, self.delivered_us,
        )


class LegKeepingTracer(FlowTracer):
    """The tracer as it was before the stamps moved onto ``Packet``.

    Test-only reference: one ``_Leg`` per TCP segment of a live flow,
    keyed by ``packet_id``, created at ``on_tcp_tx``, dropped with an RLC
    drop and pruned when the flow completes.  It reads no stamp from the
    packet, so it checks the stamping tracer from independent state.
    """

    def __init__(self, air_delay_us=0):
        super().__init__(air_delay_us=air_delay_us)
        self._legs = {}  # packet_id -> leg (live flows only)
        self._flow_legs = {}  # flow_id -> {packet_id: leg}
        self._last = {}  # flow_id -> leg delivered last
        self.legs_created = 0

    def on_flow_start(self, spec, now_us):
        super().on_flow_start(spec, now_us)
        self._flow_legs[spec.flow_id] = {}

    def on_tcp_tx(self, flow_id, packet, now_us):
        flow = self._flows.get(flow_id)
        if flow is None or flow.completed:
            return
        leg = _Leg(now_us)
        self.legs_created += 1
        self._flow_legs[flow_id][packet.packet_id] = leg
        self._legs[packet.packet_id] = leg
        if packet.is_retx:
            flow.tcp_retx += 1
            self._emit(now_us, flow.ue_index, _TCP_RETX, packet.seq)

    def on_enb_ingress(self, packet, now_us):
        leg = self._legs.get(packet.packet_id)
        if leg is not None:
            leg.ingress_us = now_us

    def on_rlc_enqueue(self, sdu, now_us):
        leg = self._legs.get(sdu.packet.packet_id)
        if leg is not None:
            leg.enqueue_us = now_us

    def on_rlc_drop(self, packet, now_us):
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            return
        flow.rlc_drops += 1
        self._legs.pop(packet.packet_id, None)
        self._flow_legs[packet.flow_id].pop(packet.packet_id, None)
        self._emit(now_us, flow.ue_index, _RLC_DROP, packet.seq)

    def on_rlc_first_tx(self, sdu, now_us):
        leg = self._legs.get(sdu.packet.packet_id)
        if leg is not None and leg.first_tx_us is None:
            leg.first_tx_us = now_us

    def on_rlc_last_tx(self, sdu, now_us):
        leg = self._legs.get(sdu.packet.packet_id)
        if leg is not None:
            leg.last_tx_us = now_us

    def on_delivery(self, packet, now_us):
        leg = self._legs.get(packet.packet_id)
        if leg is None:
            return
        leg.delivered_us = now_us
        if packet.flow_id in self._flows:
            self._last[packet.flow_id] = leg

    def on_flow_complete(self, flow_id, now_us):
        flow = self._flows.get(flow_id)
        if flow is None or flow.completed:
            return
        flow.completed = True
        leg = self._last.pop(flow_id, None)
        if leg is None or not leg.complete:
            self.incomplete_flows += 1
        else:
            residual = now_us - leg.last_tx_us
            air_us = min(self.air_delay_us, residual)
            breakdown = FlowBreakdown(
                flow_id=flow.flow_id,
                ue_index=flow.ue_index,
                size_bytes=flow.size_bytes,
                start_us=flow.start_us,
                end_us=now_us,
                tcp_us=leg.tx_us - flow.start_us,
                core_us=leg.ingress_us - leg.tx_us,
                pdcp_us=leg.enqueue_us - leg.ingress_us,
                mac_wait_us=leg.first_tx_us - leg.enqueue_us,
                rlc_us=leg.last_tx_us - leg.first_tx_us,
                harq_us=residual - air_us,
                air_us=air_us,
                tcp_retx=flow.tcp_retx,
                rlc_drops=flow.rlc_drops,
                harq_retx=flow.harq_retx,
            )
            self._record_breakdown(astuple(breakdown))
        for packet_id in self._flow_legs.pop(flow_id):
            self._legs.pop(packet_id, None)


def _incast_dctcp(seed):
    cfg = SimConfig.lte_default(
        num_ues=12, load=0.8, seed=seed,
        cc="dctcp", aqm="red", ecn_min_sdus=30, ecn_max_sdus=30,
    )
    return cfg.with_overrides(traffic=replace(cfg.traffic, kind="incast_fanin"))


class TestAgainstLegKeepingReference:
    """Stamps on the packet decompose every flow exactly as per-packet
    legs inside the tracer did (two runs of one seed; the simulator is
    deterministic, so the tracers see the same hook calls)."""

    @pytest.mark.parametrize(
        "config,duration_s,exercised",
        [
            (
                SimConfig.lte_default(
                    num_ues=4, load=1.5, seed=9, radio_bler=0.1,
                    rlc_capacity_sdus=24,
                ),
                1.0,
                ("rlc_drops", "tcp_retx"),
            ),
            (
                # HARQ and AM both retransmit one shared SDU: the same
                # packet can reach the UE's PDCP more than once.
                SimConfig.nr_default(
                    mu=1, num_ues=6, load=0.5, seed=7,
                    rlc_mode="am", radio_bler=0.1,
                ),
                1.0,
                ("harq_retx",),
            ),
            (_incast_dctcp(3), 3.0, ("tcp_retx", "rlc_drops")),
        ],
        ids=["lte-um-lossy", "nr-am-lossy", "incast-dctcp-red"],
    )
    def test_same_breakdowns_and_export(self, config, duration_s, exercised):
        def run(tracer):
            sim = CellSimulation(config, scheduler="outran", flow_trace=tracer)
            result = sim.run(duration_s)
            return sim.flow_trace, result

        reference, ref_result = run(LegKeepingTracer(config.air_delay_us))
        tracer, result = run(True)
        assert type(tracer) is FlowTracer
        assert reference.legs_created > 10 * len(reference.breakdowns()) > 0
        for counter in exercised:
            assert sum(getattr(b, counter) for b in reference.breakdowns()) > 0
        assert tracer.breakdowns() == reference.breakdowns()
        assert tracer.incomplete_flows == reference.incomplete_flows == 0
        assert tracer.to_chrome_trace() == reference.to_chrome_trace()
        assert result.flow_breakdowns == ref_result.flow_breakdowns

    def test_nothing_is_keyed_by_packet(self):
        """Every container the tracer owns is per flow or per event."""
        sim, result = run_traced()
        tracer = sim.flow_trace
        assert result.completed_flows > 0
        assert set(vars(tracer)) == {
            "air_delay_us", "_flows", "_breakdowns", "_events",
            "incomplete_flows",
        }
        assert len(tracer._flows) == sim.metrics.flows_started
        assert all(
            flow.last_delivered is None
            for flow in tracer._flows.values() if flow.completed
        )


class TestDeterminism:
    def test_traced_run_is_byte_identical(self):
        cfg = dict(num_ues=4, load=0.5, seed=6)
        plain = CellSimulation(
            SimConfig.lte_default(**cfg), scheduler="outran"
        ).run(1.0)
        traced_sim = CellSimulation(
            SimConfig.lte_default(**cfg), scheduler="outran", flow_trace=True
        )
        traced = traced_sim.run(1.0)
        assert plain.summary() == traced.summary()
        assert list(plain.fcts_ms()) == list(traced.fcts_ms())
        assert traced_sim.flow_trace.completed_flows > 0

    def test_cli_json_identical_with_flow_trace(self, tmp_path):
        base_args = ["run", "--ues", "3", "--load", "0.4", "--duration", "1",
                     "--seed", "2"]
        plain_json = tmp_path / "plain.json"
        traced_json = tmp_path / "traced.json"
        trace_path = tmp_path / "flow.trace.json"
        main(base_args + ["--json", str(plain_json)])
        main(base_args + ["--json", str(traced_json),
                          "--flow-trace", str(trace_path)])
        assert plain_json.read_bytes() == traced_json.read_bytes()
        assert trace_path.exists()


class TestChromeTraceExport:
    def test_trace_is_valid_chrome_trace_event_json(self, tmp_path):
        sim, _ = run_traced(radio_bler=0.05)
        path = tmp_path / "trace.json"
        sim.flow_trace.save_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        phases = set()
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            phases.add(event["ph"])
            if event["ph"] == "X":
                assert event["dur"] > 0
                assert event["ts"] >= 0
            elif event["ph"] == "i":
                assert event["s"] == "t"
        # Spans, instants, and track-naming metadata all present.
        assert {"X", "M"} <= phases
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert names == {"process_name", "thread_name"}
        threads = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads <= set(LAYER_TRACKS)

    @pytest.mark.parametrize(
        "config,digest",
        [
            (
                SimConfig.lte_default(num_ues=6, load=0.5, seed=7),
                "74785b2ca377bb4889d08571657065ca0c51530c13b12e246a4ff3b05847d5a2",
            ),
            (
                SimConfig.nr_default(
                    mu=1, num_ues=6, load=0.5, seed=7,
                    rlc_mode="am", radio_bler=0.1,
                ),
                "1a999031509e87f79fc085e0ec9208111cdbce0a59cdc65d9b29c4438f355519",
            ),
        ],
        ids=["lte-um", "nr-am-lossy"],
    )
    def test_perfetto_export_is_pinned(self, config, digest):
        """The CI observability-smoke run's export, byte for byte.

        Recorded from the tuple-per-event tracer the commit before its
        events became integer columns.  Between them the two runs emit
        every instant kind and every span component except ``pdcp``
        (always 0 us), in 4 212 and 29 569 trace events.
        """
        sim = CellSimulation(config, scheduler="outran", flow_trace=True)
        sim.run(2.0)
        doc = json.dumps(sim.flow_trace.to_chrome_trace(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_span_durations_sum_to_fct(self):
        sim, _ = run_traced()
        tracer = sim.flow_trace
        doc = tracer.to_chrome_trace()
        by_flow = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                # Span names read "flow <id> <bucket> <size>B <component>".
                flow_id = int(event["name"].split()[1])
                by_flow[flow_id] = by_flow.get(flow_id, 0) + event["dur"]
        for b in tracer.breakdowns():
            assert by_flow[b.flow_id] == b.fct_us


class TestCoercion:
    def test_coerce(self):
        assert coerce_flow_tracer(None) is None
        assert coerce_flow_tracer(False) is None
        fresh = coerce_flow_tracer(True, air_delay_us=250)
        assert isinstance(fresh, FlowTracer)
        assert coerce_flow_tracer(fresh) is fresh
        with pytest.raises(TypeError):
            coerce_flow_tracer(42)


class TestBreakdownAnalysis:
    def test_aggregate_and_report(self):
        sim, _ = run_traced(num_ues=6, duration_s=1.5)
        breakdowns = sim.flow_trace.breakdowns()
        agg = aggregate_breakdowns(breakdowns)
        assert "all" in agg
        stats = agg["all"]
        assert stats["n"] == len(breakdowns)
        # Additivity survives aggregation: per-component means sum to the
        # bucket's mean FCT.
        assert sum(stats["components_us"].values()) == pytest.approx(
            stats["mean_fct_us"]
        )
        assert sum(stats["shares"].values()) == pytest.approx(1.0)
        report = breakdown_report(breakdowns, scheduler="outran")
        assert "FCT breakdown per size bucket [outran]" in report
        assert "slowest 5 flows [outran]" in report
        assert dominant_component(breakdowns[0]) in COMPONENTS

    def test_empty_breakdowns(self):
        assert aggregate_breakdowns([]) == {}
        assert "no completed flows traced" in breakdown_report([])


class TestExplainCli:
    def test_explain_renders_tables(self, tmp_path, capsys):
        out_json = tmp_path / "explain.json"
        perfetto = tmp_path / "explain.trace.json"
        rc = main([
            "explain", "--scheduler", "outran", "--ues", "4",
            "--load", "0.5", "--duration", "1", "--seed", "3",
            "--json", str(out_json), "--perfetto", str(perfetto),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FCT breakdown per size bucket" in out
        assert "bucket" in out and "dominant" in out
        payload = json.loads(out_json.read_text())
        assert "outran" in payload
        assert payload["outran"]["flows"]
        assert "all" in payload["outran"]["aggregates"]
        assert json.loads(perfetto.read_text())["traceEvents"]


class TestZeroFlowRun:
    def test_nan_with_warning_under_full_observability(self):
        # Zero completed flows with every observability surface active:
        # heartbeat, telemetry, and the flow tracer.
        sim = CellSimulation(
            SimConfig.lte_default(num_ues=2, load=0.3, seed=1),
            scheduler="outran",
            flows=[],
            telemetry=True,
            flow_trace=True,
        )
        beats = []
        sim.attach_heartbeat(period_s=0.05, emit=beats.append)
        result = sim.run(0.2)
        assert result.completed_flows == 0
        with pytest.warns(RuntimeWarning, match="completed no flows"):
            assert result.avg_fct_ms() != result.avg_fct_ms()  # NaN
        with pytest.warns(RuntimeWarning, match="completed no flows"):
            assert result.pctl_fct_ms(99) != result.pctl_fct_ms(99)
        # Empty *bucket* queries on a run that completed flows stay silent.
        sim2, result2 = run_traced()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result2.avg_fct_ms(bucket="L" if not result2.fcts_ms("L").size
                               else "S")
        assert beats  # the heartbeat really ran alongside
        assert sim.flow_trace.completed_flows == 0
