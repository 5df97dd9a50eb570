"""Tests for the telemetry subsystem: registry, exporters,
heartbeat, simulation wiring, and the observability invariants.

The load-bearing invariants: enabling telemetry must never change
simulation outcomes (same seed => identical results), and a snapshot is
a function of the run -- same seed => the same bytes.
"""

import json
import sys

import numpy as np
import pytest

from repro import CellSimulation, SimConfig
from repro.cli import main
from repro.sim.engine import EventEngine
from repro.sim.multicell import MultiCellSimulation
from repro.sim.session import SimulationSession
from repro.sim.trace import SchedulingTrace
from repro.telemetry.exporters import snapshot_to_json, snapshot_to_prometheus
from repro.telemetry.heartbeat import Heartbeat
from repro.telemetry.registry import TelemetryRegistry, coerce_registry


def small_config(**kwargs):
    defaults = dict(num_ues=3, load=0.4, seed=5)
    defaults.update(kwargs)
    return SimConfig.lte_default(**defaults)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = TelemetryRegistry()
        counter = reg.counter("mac.ttis_run")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_rejected(self):
        counter = TelemetryRegistry().counter("x")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0


class TestRegistry:
    def test_memoized_by_name(self):
        reg = TelemetryRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("a.g") is reg.gauge("a.g")

    def test_name_collision_across_types(self):
        reg = TelemetryRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError):
            reg.gauge("a.b")
        reg.gauge("a.g")
        with pytest.raises(ValueError):
            reg.counter("a.g")

    def test_snapshot_and_reset(self):
        reg = TelemetryRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        assert reg.snapshot() == {"counters": {"c": 3}, "gauges": {"g": 1.5}}
        reg.reset()
        assert reg.snapshot() == {"counters": {"c": 0}, "gauges": {"g": 0.0}}

    def test_none_is_off(self):
        assert coerce_registry(None) is None
        assert coerce_registry(False) is None
        assert isinstance(coerce_registry(True), TelemetryRegistry)
        reg = TelemetryRegistry()
        assert coerce_registry(reg) is reg
        with pytest.raises(TypeError):
            coerce_registry("yes")


class TestExporters:
    def snapshot(self):
        reg = TelemetryRegistry()
        reg.counter("mac.ttis_run").inc(7)
        reg.gauge("engine.queue_depth").set(3)
        return reg.snapshot()

    def test_json_roundtrip_and_file(self, tmp_path):
        path = tmp_path / "t.json"
        text = snapshot_to_json(self.snapshot(), path)
        assert json.loads(text) == json.loads(path.read_text())
        assert json.loads(text)["counters"]["mac.ttis_run"] == 7

    def test_prometheus_format(self, tmp_path):
        path = tmp_path / "t.prom"
        text = snapshot_to_prometheus(self.snapshot(), path)
        assert path.read_text() == text
        assert "# TYPE repro_mac_ttis_run counter" in text
        assert "repro_mac_ttis_run 7" in text
        assert text == (
            "# TYPE repro_mac_ttis_run counter\n"
            "repro_mac_ttis_run 7\n"
            "# TYPE repro_engine_queue_depth gauge\n"
            "repro_engine_queue_depth 3.0\n"
        )


class TestHeartbeat:
    def test_beats_ride_sim_time(self):
        engine = EventEngine()
        lines = []
        beat = Heartbeat(engine, period_s=0.5, emit=lines.append)
        beat.add_source("flows", lambda: 3)
        engine.run_until(2_000_000)
        assert beat.beats == 4
        assert len(lines) == 4
        assert beat.last["sim_s"] == pytest.approx(2.0)
        assert beat.last["flows"] == 3
        assert "[heartbeat] sim=2.0s" in lines[-1]
        assert "flows=3" in lines[-1]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            Heartbeat(EventEngine(), period_s=0)

    def test_attach_to_simulation(self):
        sim = CellSimulation(small_config(), scheduler="pf", telemetry=True)
        samples = []
        sim.attach_heartbeat(period_s=0.25, emit=samples.append)
        sim.run(duration_s=0.5)
        assert len(samples) >= 2
        assert "active_flows=" in samples[-1]


class TestSimulationTelemetry:
    def test_run_populates_layer_namespaces(self):
        sim = CellSimulation(small_config(), scheduler="outran", telemetry=True)
        result = sim.run(duration_s=1.0)
        snap = result.telemetry
        assert snap is not None
        counters = snap["counters"]
        assert counters["engine.events_processed"] > 0
        assert counters["mac.ttis_run"] > 0
        assert counters["rlc.tx.pdus_built"] > 0
        assert counters["tcp.packets_sent"] > 0
        assert counters["sim.flows_completed"] > 0
        assert set(snap) == {"counters", "gauges"}
        # outran-specific epsilon stats were switched on by the wiring
        assert counters["mac.epsilon.rb_assignments"] > 0

    def test_same_seed_writes_the_same_bytes(self):
        """Nothing in a snapshot comes from the host: two runs of one
        seed serialize to the same JSON and the same exposition text."""
        def run():
            sim = CellSimulation(
                small_config(), scheduler="outran", telemetry=True, flow_trace=True
            )
            return sim.run(duration_s=0.5).telemetry

        first, second = run(), run()
        assert snapshot_to_json(first) == snapshot_to_json(second)
        assert snapshot_to_prometheus(first) == snapshot_to_prometheus(second)

    def test_live_scrape_is_repeatable_and_leaves_the_final_count_alone(self):
        session = SimulationSession.from_config(
            small_config(), "outran", duration_s=0.5, telemetry=True
        ).start()
        session.step(n_ttis=200)
        scrapes = [session.sim.live_telemetry_snapshot() for _ in range(2)]
        assert scrapes[0] == scrapes[1]
        assert scrapes[0]["counters"]["mac.ttis_run"] == 200
        final = session.finish().telemetry
        unscraped = CellSimulation(
            small_config(), scheduler="outran", telemetry=True
        ).run(0.5).telemetry
        assert final == unscraped
        assert session.sim.live_telemetry_snapshot() == final

    def test_disabled_run_has_no_snapshot(self):
        result = CellSimulation(small_config(), scheduler="pf").run(duration_s=0.5)
        assert result.telemetry is None

    def test_telemetry_does_not_change_results(self):
        plain = CellSimulation(small_config(), scheduler="outran").run(1.0)
        instrumented = CellSimulation(
            small_config(), scheduler="outran", telemetry=True
        )
        samples = []
        instrumented.attach_heartbeat(period_s=0.25, emit=samples.append)
        observed = instrumented.run(1.0)
        assert plain.summary() == observed.summary()
        assert list(plain.fcts_ms()) == list(observed.fcts_ms())
        assert samples  # the heartbeat really ran

    def test_multicell_pools_counters(self):
        multi = MultiCellSimulation(
            small_config(), scheduler="pf", num_cells=2, telemetry=True
        )
        pooled = multi.run(duration_s=0.5)
        per_cell = [
            CellSimulation(
                small_config(seed=small_config().seed + 1000 * cell),
                scheduler="pf",
                telemetry=True,
            ).run(0.5)
            for cell in range(2)
        ]
        pooled_events = pooled.telemetry["counters"]["engine.events_processed"]
        solo_events = sum(
            r.telemetry["counters"]["engine.events_processed"] for r in per_cell
        )
        assert pooled_events == solo_events


class TestTraceSerialization:
    def make_trace(self):
        trace = SchedulingTrace(num_ues=2, num_rbs=3, chunk_ttis=2)
        for tti in range(5):  # forces a couple of _grow() calls
            trace.record(
                now_us=tti * 1000,
                owner=np.array([tti % 2, -1, 1], dtype=np.int16),
                grant_bits=np.array([100 * tti, 50], dtype=np.int64),
                buffer_bytes=np.array([10, 20], dtype=np.int64),
                head_levels=np.array([0, -1], dtype=np.int8),
            )
        return trace

    def test_npz_roundtrip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.npz"
        trace.save_npz(path)
        loaded = SchedulingTrace.load_npz(path)
        assert len(loaded) == len(trace)
        assert loaded.num_ues == 2 and loaded.num_rbs == 3
        np.testing.assert_array_equal(loaded.times_us, trace.times_us)
        np.testing.assert_array_equal(loaded.owners, trace.owners)
        np.testing.assert_array_equal(loaded.grants_bits, trace.grants_bits)
        np.testing.assert_array_equal(loaded.buffer_bytes, trace.buffer_bytes)
        np.testing.assert_array_equal(loaded.head_levels, trace.head_levels)
        assert loaded.utilization() == trace.utilization()

    def test_memory_bytes_counts_capacity(self):
        trace = self.make_trace()
        expected = (
            trace._owners.nbytes + trace._grants.nbytes + trace._buffers.nbytes
            + trace._levels.nbytes + trace._times.nbytes
        )
        assert trace.memory_bytes() == expected
        assert trace.memory_bytes() > 0


class TestCliObservability:
    ARGS = ["run", "--ues", "3", "--load", "0.4", "--duration", "1",
            "--seed", "2"]

    def test_telemetry_to_file(self, tmp_path, capsys):
        path = tmp_path / "out.telemetry.json"
        assert main(self.ARGS + ["--telemetry", str(path)]) == 0
        data = json.loads(path.read_text())
        assert set(data) == {"counters", "gauges"}
        assert data["counters"]["mac.ttis_run"] > 0
        assert data["counters"]["engine.events_processed"] > 0

    def test_telemetry_to_stdout(self, capsys):
        assert main(self.ARGS + ["--telemetry"]) == 0
        out = capsys.readouterr().out
        assert '"engine.events_processed"' in out

    def test_prometheus_export(self, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(self.ARGS + ["--prometheus", str(path)]) == 0
        assert "# TYPE repro_mac_ttis_run counter" in path.read_text()

    def test_trace_saved_as_npz(self, tmp_path):
        path = tmp_path / "trace.npz"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        trace = SchedulingTrace.load_npz(path)
        assert len(trace) > 0

    def test_compare_writes_per_scheduler_files(self, tmp_path):
        path = tmp_path / "out.json"
        rc = main(
            ["run", "--compare", "pf", "outran", "--ues", "3", "--load", "0.4",
             "--duration", "1", "--telemetry", str(path)]
        )
        assert rc == 0
        assert (tmp_path / "out.pf.json").exists()
        assert (tmp_path / "out.outran.json").exists()

    def test_heartbeat_writes_stderr(self, capsys):
        assert main(self.ARGS + ["--heartbeat", "0.5"]) == 0
        assert "[heartbeat]" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_heartbeat_rejects_non_positive(self, bad, capsys):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--heartbeat", bad])
        assert "must be positive" in capsys.readouterr().err
