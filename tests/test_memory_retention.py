"""A run's memory follows its live state, not its history.

The paper's overhead claim (section 7, Fig. 13) is 41 B of OutRAN state
per flow and flat memory from 1 k to 8 k flows; these tests hold the
simulator around it to the same shape.  A finished flow may leave behind
its ``FctRecord`` row (and, traced, its breakdown row), its flow-table
entry and a few typed samples -- not its TCP endpoints or a Python object
-- and per-packet history is bytes in typed columns, not one Python
object per packet.  A UE that holds no data holds no queue
storage and no random-number generator, so each UE adds a few KB to
building a cell (the paper's Fig. 14 scale side).
"""

import gc
import inspect
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import CellSimulation, SimConfig
from repro.core.flow_table import FlowTable
from repro.net.packet import FiveTuple, Packet
from repro.rlc.am import AmReceiver
from repro.rlc.pdu import RlcPdu, RlcSdu, SduSegment
from repro.sim import metrics
from repro.sim.metrics import MetricsCollector
from repro.sim.session import SimulationSession, result_fingerprint
from repro.telemetry import flowtrace
from repro.telemetry.flowtrace import FlowTracer
from repro.traffic.generator import FlowSpec

DRAIN_S = 0.3


def retained_by(build):
    """(bytes ``build()`` allocated and its return value keeps alive, that value)."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, kept


def traced_run(config, duration_s):
    """(bytes still allocated after ``finish()``, result, sim)."""

    def build():
        sim = CellSimulation(config, scheduler="outran")
        return sim.run(duration_s, drain_s=DRAIN_S), sim

    retained, (result, sim) = retained_by(build)
    return retained, result, sim


def rpc(config):
    """Many small, similar flows: the per-flow figure is not at the mercy
    of which elephants a short run happens to draw."""
    return config.with_overrides(traffic=replace(config.traffic, kind="rpc"))


@pytest.mark.parametrize(
    "config,duration_s",
    [
        # Parent commit: 3.4 KB and 3.9 KB per finished flow (5.7 / 6.5 KB
        # on the heavy-tailed default workload, whose flows carry ~40
        # queue-delay samples each); now 0.9 and 1.0 KB.
        (rpc(SimConfig.lte_default(num_ues=4, load=0.5, seed=1)), 0.1),
        (
            rpc(
                SimConfig.nr_default(
                    mu=1, num_ues=4, load=0.1, seed=1,
                    rlc_mode="am", radio_bler=0.1,
                )
            ),
            0.1,
        ),
    ],
    ids=["lte-um", "nr-am-lossy"],
)
def test_finished_flows_retire(config, duration_s):
    """One config at two durations: what the extra finished flows keep."""
    traced_run(config, 0.02)  # lazy imports and caches are not retention
    short_bytes, short, _ = traced_run(config, duration_s)
    long_bytes, long, sim = traced_run(config, 3 * duration_s)
    extra_flows = long.completed_flows - short.completed_flows
    assert extra_flows >= 150
    assert (long_bytes - short_bytes) / extra_flows <= 1_500

    # Only flows whose sender is still waiting for ACKs keep endpoints.
    assert all(not rt.sender.done for rt in sim._runtimes.values())
    assert len(sim._runtimes) <= long.censored_flows + 5
    # ...and a UE holds no endpoint table of its own beside that one.
    for ue in sim.ues:
        assert not hasattr(ue, "receivers")
        assert set(ue.active_runtimes) <= set(sim._runtimes)
    # ...while every flow ever started still blocks its id and has a size.
    assert len(sim._flow_sizes) == sim.metrics.flows_started


@pytest.mark.parametrize(
    "config,duration_s",
    [
        (SimConfig.lte_default(num_ues=4, load=0.8, seed=3, radio_bler=0.1), 0.6),
        (
            SimConfig.nr_default(
                mu=1, num_ues=4, load=0.5, seed=3, rlc_mode="am", radio_bler=0.1
            ),
            0.3,
        ),
    ],
    ids=["lte-um-lossy", "nr-am-lossy"],
)
def test_retirement_is_invisible_in_the_result(config, duration_s, monkeypatch):
    """Same fingerprint as a run that retires nothing, on runs where
    duplicates do reach the UE after their flow retired.  The receiver of
    the unretired run ACKs each of them; the retiring run lets them end
    at the UE, so it processes exactly that many events fewer."""
    late = []
    deliver = CellSimulation._deliver_sdu

    def counting_deliver(sim, ue, sdu, now_us):
        retired = sdu.packet.flow_id not in sim._runtimes
        failures = ue.pdcp_rx.decipher_failures
        deliver(sim, ue, sdu, now_us)
        if retired and ue.pdcp_rx.decipher_failures == failures:
            late.append(sdu.packet.flow_id)

    monkeypatch.setattr(CellSimulation, "_deliver_sdu", counting_deliver)

    def run(retire):
        sim = CellSimulation(config, scheduler="outran")
        if not retire:
            def sample_rtt_only(sender, now_us):
                if sender.srtt_us is not None:
                    sim.metrics.on_rtt_sample(sender.srtt_us)

            sim._on_sender_done = sample_rtt_only
        result = sim.run(duration_s, drain_s=0.5)
        assert (len(sim._runtimes) < sim.metrics.flows_started) == retire
        return result

    kept = run(retire=False)
    assert not late
    retired = run(retire=True)
    assert late
    assert result_fingerprint(retired) == result_fingerprint(kept)
    assert kept.extra["events"] - retired.extra["events"] == len(late)


def test_tracer_keeps_nothing_per_packet():
    """One 5 MB flow in flight: while it goes from 1 MB to 4 MB sent (over
    2 000 segments) the tracer allocates nothing that stays but its event
    rows.  At the parent commit every segment left a leg object and two
    dict entries behind until the flow completed."""
    config = SimConfig.lte_default(
        num_ues=1, load=0.1, seed=1, rlc_capacity_sdus=4_000
    )
    session = SimulationSession.from_config(
        config, "outran", duration_s=6.0, drain_s=0.0,
        flows=[FlowSpec(0, 0, 5_000_000, 0)], flow_trace=True,
    ).start()
    session.step(n_ttis=1)  # the flow starts with the first event
    sender = session.sim._runtimes[0].sender
    tracer = session.sim.flow_trace

    def send_until(sent_bytes):
        while sender.snd_nxt < sent_bytes:
            assert not session.done
            session.step(n_ttis=20)

    send_until(1_000_000)
    segments = sender.packets_sent
    gc.collect()
    tracemalloc.start()
    try:
        send_until(4_000_000)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert sender.packets_sent - segments > 2_000 and not sender.done
    kept = snapshot.filter_traces(
        [tracemalloc.Filter(True, flowtrace.__file__)]
    ).statistics("filename")
    # The event column (reallocated as it grows, 20 B a row plus the
    # array's over-allocation) and the last delivery's stamps.
    assert tracer._events.typecode == "i"
    assert sum(stat.count for stat in kept) <= 2
    assert sum(stat.size for stat in kept) <= 25 * tracer.event_count + 256


def test_idle_flow_table_entries_expire(monkeypatch):
    """Section 4.2 expiry runs in a cell, not only in unit tests: after
    12 s the tables hold fewer records than five-tuples seen, and the run
    is the one a table that forgets nothing gives -- ``observe`` restarts
    a record idle past the timeout, so dropping it first changes nothing.
    Twenty connections, eight of which come back after 10.6 s of silence,
    four of those past their first demotion threshold."""
    starts = [100_000 + 45_000 * i for i in range(20)]
    starts += [start_us + 10_600_000 for start_us in starts[:8]]
    flows = [
        FlowSpec(
            flow_id, flow_id % 2, 60_000 if flow_id % 4 < 2 else 4_000,
            start_us, connection=flow_id % 20,
        )
        for flow_id, start_us in enumerate(starts)
    ]
    config = SimConfig.lte_default(num_ues=2, load=0.1, seed=4)

    def run():
        sim = CellSimulation(config, scheduler="outran", flows=flows)
        result = sim.run(11.5, drain_s=0.5)
        return result, sum(len(ue.flow_table) for ue in sim.ues)

    swept, entries = run()
    assert swept.completed_flows == len(flows)
    assert entries == 8 < 20
    monkeypatch.setattr(FlowTable, "expire_idle", lambda self, now_us: 0)
    kept, all_entries = run()
    assert all_entries == 20
    assert result_fingerprint(swept) == result_fingerprint(kept)


def _queue_delays(n):
    metrics = MetricsCollector(num_ues=1, bandwidth_hz=1e7, tti_us=1000)
    for i in range(n):
        metrics.on_queue_delay(1_000 + i % 7, 5_000 + i)
    return metrics


def _mac_grants(n):
    tracer = FlowTracer()
    for i in range(n):
        tracer.on_mac_grant(i % 5, 12_000 + i, 3_000 + i, 1_000 * i)
    return tracer


def _am_in_order(n):
    rx = AmReceiver(deliver=lambda sdu, now_us: None)
    packet = Packet(FiveTuple(1, 2, 443, 5000), 0, 0, 1_000)
    for sn in range(n):
        sdu = RlcSdu(packet)
        rx.receive_pdu(RlcPdu([SduSegment(sdu, 0, sdu.size)], sn=sn), 1_000 * sn)
    assert rx.sdus_delivered == n and rx.missing_sns() == ()
    return rx


@pytest.mark.parametrize(
    "record,bytes_per_item",
    # Measured 8.5, 20.4 and 0 B an item (17 and 41 B while the logs were
    # 64-bit; 129, 202 and 269 B as Python objects).
    [(_queue_delays, 10), (_mac_grants, 25), (_am_in_order, 1)],
    ids=["queue-delay", "flowtrace-event", "am-receiver-sn"],
)
def test_per_packet_history_is_bytes_not_objects(record, bytes_per_item):
    n = 20_000
    record(100)
    retained, _ = retained_by(lambda: record(n))
    assert retained / n <= bytes_per_item


def _fct_records(n):
    metrics = MetricsCollector(num_ues=1, bandwidth_hz=1e7, tti_us=1000)
    for i in range(n):
        start_us = 1_000 * i
        metrics.on_flow_complete(
            6_000_000 + i, i % 20, 1_000 + 7 * i, start_us, start_us + 30_000 + i
        )
    return metrics


def _breakdown_rows(n):
    """The tracer's breakdown log after ``n`` decomposed flows (its span
    events are not kept: they are per-event history, gated above)."""
    tracer = FlowTracer()
    for i in range(n):
        start_us = 1_000 * i
        components = (2_000 + i % 300, 5_000, 0, 12_000 + i % 700, 3_000, 0)
        air_us = 30_000 + i - sum(components)
        tracer._record_breakdown(
            (6_000_000 + i, i % 20, 1_000 + 7 * i, start_us, start_us + 30_000 + i)
            + components
            + (air_us, i % 3, 0, i % 2)
        )
    return tracer._breakdowns


#: Finished-flow store -> (builder, bound in bytes per completed flow).
FINISHED_FLOW_LOGS = {
    "fct-record": (_fct_records, 25),
    "flow-breakdown": (_breakdown_rows, 75),
}


def retained_per_finished_flow(record, n=20_000) -> float:
    """Bytes ``record(n)``'s store keeps per completed flow."""
    record(100)
    retained, _ = retained_by(lambda: record(n))
    return retained / n


@pytest.mark.parametrize("log", list(FINISHED_FLOW_LOGS))
def test_finished_flow_history_is_one_narrow_row(log):
    """A completed flow keeps one 5-int FCT row in ``MetricsCollector``
    and, traced, one 15-int breakdown row in the tracer: measured 20.5 and
    60.8 B, and 248.7 and 440.7 B while each was a frozen-dataclass
    ``FctRecord`` / ``FlowBreakdown``."""
    record, bytes_per_flow = FINISHED_FLOW_LOGS[log]
    assert retained_per_finished_flow(record) <= bytes_per_flow


def test_queue_delay_history_is_one_narrow_row_per_sdu():
    """A UM cell keeps 8 B of queue-delay history per dequeued SDU (two
    32-bit columns plus over-allocation): measured 8.3 B, and 16.6 B
    while the columns were 64-bit."""
    config = SimConfig.lte_default(num_ues=4, load=0.8, seed=2)
    assert config.rlc_mode == "um"
    lines, first = inspect.getsourcelines(MetricsCollector.on_queue_delay)
    on_queue_delay = [
        tracemalloc.Filter(True, metrics.__file__, lineno, all_frames=True)
        for lineno in range(first, first + len(lines))
    ]
    gc.collect()
    tracemalloc.start(2)  # append_row's realloc and the frame calling it
    try:
        sim = CellSimulation(config, scheduler="outran")
        sim.run(1.0, drain_s=DRAIN_S)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    sdus = sum(1 for _ in sim.metrics.queue_delays())
    kept = snapshot.filter_traces(on_queue_delay).statistics("filename")
    assert sdus >= 2_000
    assert sum(stat.size for stat in kept) / sdus <= 10


@pytest.mark.parametrize("first_call", ["step", "finish"])
def test_a_resume_reclaims_the_session_it_replaced(first_call, tmp_path):
    """The session a resume replaces is cyclic garbage (engine <-> bound
    methods) that refcounting never frees; the resumed session's first
    step collects it, whether or not the automatic collector ever runs."""
    path = tmp_path / "replaced.ckpt"
    automatic = gc.isenabled()
    gc.disable()
    try:
        original = SimulationSession.from_config(
            SimConfig.lte_default(num_ues=3, load=0.5, seed=1),
            duration_s=0.2, drain_s=0.1,
        ).start()
        original.step(n_ttis=50)
        original.checkpoint(path)
        resumed = SimulationSession.resume(path)
        replaced = weakref.ref(original.sim)
        del original
        assert replaced() is not None
        if first_call == "step":
            resumed.step(n_ttis=1)
        else:
            resumed.finish()
        assert replaced() is None
    finally:
        if automatic:
            gc.enable()


def construction_bytes(num_ues: int) -> int:
    """Bytes allocated from ``repro`` files (and still live) while
    building the LTE / load 0.3 / ``outran`` session of ``num_ues`` UEs."""
    in_repro = tracemalloc.Filter(
        True, os.path.join(os.path.dirname(repro.__file__), "*")
    )
    gc.collect()
    tracemalloc.start()
    try:
        # Held until the snapshot, so what the session keeps is counted.
        session = SimulationSession.from_config(  # noqa: F841
            SimConfig.lte_default(num_ues=num_ues, load=0.3, seed=42), "outran"
        )
        snapshot = tracemalloc.take_snapshot().filter_traces([in_repro])
    finally:
        tracemalloc.stop()
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_an_idle_ue_allocates_no_queue_storage():
    """Per-UE FIFOs (four MLFQ levels, the promoted slot, HARQ's pending
    queue) are lists, 56 B each while empty where a deque is 760 B, and
    HARQ's generator stays a seed until the first decode draw: ~2.9 KB
    per UE, was 7.8 KB."""
    construction_bytes(20)  # warm: imports, module caches, the kernel loader
    assert (construction_bytes(200) - construction_bytes(20)) / 180 <= 4_000
    session = SimulationSession.from_config(
        SimConfig.lte_default(num_ues=20, load=0.3, seed=42), "outran"
    )
    harq = session.sim.enb._harq
    assert len(harq) == 20
    assert not [h for h in harq if isinstance(h._rng, np.random.Generator)]
