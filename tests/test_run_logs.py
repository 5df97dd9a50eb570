"""Property-based tests: a run's append-only logs widen without losing a row.

The flow tracer's event and breakdown rows, the finished-flow records and
the queue-delay columns are stored as 32-bit ``array('i')`` and become
64-bit ``array('q')`` the first time a value does not fit
(``repro.sim.metrics.append_row``).  Whatever reads them -- the Chrome
trace export, ``records``, ``breakdowns()``, ``fcts_ms``, the KPI
windows, ``queue_delays()``, the fingerprint -- must see the same values
a 64-bit log fed the same rows gives, and the row objects the logs
replaced would give.
"""

from array import array
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import SimConfig
from repro.sim.metrics import (
    SHORT_MAX_BYTES,
    FctRecord,
    MetricsCollector,
    SimResult,
    append_row,
)
from repro.sim.session import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SimulationSession,
    result_fingerprint,
)
from repro.telemetry.flowtrace import _INSTANTS, FlowBreakdown, FlowTracer
from repro.telemetry.kpi import CellKpiSnapshot, KpiCollector, _pctl
from repro.traffic.generator import FlowSpec

INT32 = st.integers(-(2**31), 2**31 - 1)
#: A value that needs 64 bits: at or above 2**31, or below -2**31.
WIDE = st.one_of(
    st.integers(2**31, 2**63 - 1), st.integers(-(2**63), -(2**31) - 1)
)
#: An instant row ``(ts_us, ue, kind, a, b)``; negative fields included.
ROW = st.tuples(INT32, INT32, st.integers(0, len(_INSTANTS) - 1), INT32, INT32)


def widen_one(rows, index, field, value):
    """``rows`` with ``value`` in ``field`` of row ``index``."""
    rows = list(rows)
    index %= len(rows)
    row = list(rows[index])
    row[field] = value
    rows[index] = tuple(row)
    return rows, index


@settings(max_examples=60, deadline=None)
@given(
    head=st.lists(st.tuples(INT32, INT32, INT32), max_size=8),
    values=st.lists(INT32, min_size=1, max_size=5),
    field=st.integers(0, 4),
    wide=WIDE,
)
def test_a_row_that_overflows_widens_the_log_whole(head, values, field, wide):
    """No partial row stays behind and no earlier row changes."""
    log = array("i", [v for row in head for v in row])
    row = tuple(values[:field]) + (wide,) + tuple(values[field:])
    before = log.tolist()
    log = append_row(log, row)
    assert log.typecode == "q"
    assert log.tolist() == before + list(row)
    # A 64-bit log only appends.
    assert append_row(log, (1, -1)) is log


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(ROW, min_size=1, max_size=12),
    index=st.integers(0, 11),
    field=st.sampled_from([0, 1, 3, 4]),
    wide=WIDE,
)
def test_flow_trace_export_ignores_the_width(rows, index, field, wide):
    rows, index = widen_one(rows, index, field, wide)
    narrow, reference = FlowTracer(), FlowTracer()
    reference._events = array("q")  # what a v8 checkpoint holds
    for row in rows:
        narrow._emit(*row)
        reference._emit(*row)
    assert narrow._events.typecode == "q"
    assert narrow._events == reference._events
    assert narrow.event_count == len(rows)
    assert narrow.to_chrome_trace() == reference.to_chrome_trace()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(INT32, INT32), min_size=1, max_size=12),
    index=st.integers(0, 11),
    field=st.integers(0, 1),
    wide=WIDE,
)
def test_queue_delays_ignore_the_width(rows, index, field, wide):
    rows, index = widen_one(rows, index, field, wide)

    def collector():
        return MetricsCollector(num_ues=1, bandwidth_hz=1e7, tti_us=1000)

    narrow, reference = collector(), collector()
    reference._queue_delay_flow_ids = array("q")
    reference._queue_delay_us = array("q")
    for flow_id, delay_us in rows:
        narrow.on_queue_delay(flow_id, delay_us)
        reference.on_queue_delay(flow_id, delay_us)
    columns = (narrow._queue_delay_flow_ids, narrow._queue_delay_us)
    assert columns[field].typecode == "q"
    assert list(narrow.queue_delays()) == rows
    assert list(narrow.queue_delays()) == list(reference.queue_delays())
    assert result_fingerprint(SimResult(narrow, 1.0, "pf")) == result_fingerprint(
        SimResult(reference, 1.0, "pf")
    )


def test_a_resumed_session_widens_and_finishes_with_the_uninterrupted_bytes(
    tmp_path,
):
    """A flow id past 2**31 starts after the checkpoint: the resumed
    session's 32-bit queue-delay log widens mid-run."""
    config = SimConfig.lte_default(num_ues=2, load=0.1, seed=1)
    flows = [
        FlowSpec(0, 0, 30_000, 0),
        FlowSpec(1, 1, 20_000, 10_000),
        FlowSpec(2**31 + 5, 0, 40_000, 150_000),
        FlowSpec(2, 1, 5_000, 160_000),
    ]

    def session():
        return SimulationSession.from_config(
            config, "outran", duration_s=0.4, drain_s=0.3,
            flows=flows, flow_trace=True,
        ).start()

    uninterrupted = session()
    expected = result_fingerprint(uninterrupted.finish())
    assert uninterrupted.sim.metrics._queue_delay_flow_ids.typecode == "q"

    interrupted = session()
    interrupted.step(n_ttis=100)
    path = tmp_path / "narrow.ckpt"
    interrupted.checkpoint(path)
    resumed = SimulationSession.resume(path)
    metrics = resumed.sim.metrics
    assert metrics._queue_delay_flow_ids.typecode == "i"
    result = resumed.finish()
    assert metrics is resumed.sim.metrics
    assert metrics._queue_delay_flow_ids.typecode == "q"
    assert metrics._queue_delay_us.typecode == "i"
    assert result.completed_flows == len(flows)
    assert result_fingerprint(result) == expected


# -- finished-flow rows ------------------------------------------------------

#: A field of a finished-flow row: mostly 32-bit, so the first wide value
#: tends to fall mid-list, or one that widens the log.  A breakdown's span
#: events add its start and components up, so its wide values stay far
#: enough from 2**63 for those sums to fit 64 bits.
FIELD = st.one_of(INT32, INT32, INT32, WIDE)
TIME_FIELD = st.one_of(
    INT32, INT32, INT32,
    st.integers(2**31, 2**56), st.integers(-(2**56), -(2**31) - 1),
)
#: Sizes around the S / M / L boundaries, and wide ones.
SIZE = st.one_of(
    st.sampled_from([1, 10_000, 10_001, 100_000, 100_001]),
    st.integers(0, 300_000),
    WIDE,
)
FCT_RECORD = st.builds(FctRecord, FIELD, FIELD, SIZE, FIELD, FIELD)
BREAKDOWN = st.builds(
    FlowBreakdown, *[TIME_FIELD] * 2, SIZE, *[TIME_FIELD] * 12
)


def collector():
    return MetricsCollector(num_ues=1, bandwidth_hz=1e7, tti_us=1000)


def record_all(metrics, records):
    for r in records:
        metrics.on_flow_complete(*astuple(r))


@settings(max_examples=60, deadline=None)
@given(records=st.lists(FCT_RECORD, min_size=1, max_size=12))
def test_records_read_back_the_appended_rows(records):
    """Before and after the first wide value, ``records`` equals what
    was appended, in order."""
    metrics = collector()
    result = SimResult(metrics, 1.0, "pf")
    for n, record in enumerate(records, start=1):
        record_all(metrics, [record])
        assert result.records == records[:n]
        assert result.completed_flows == metrics.completed == n
    wide = any(v not in range(-(2**31), 2**31) for r in records for v in astuple(r))
    assert metrics._records.typecode == ("q" if wide else "i")


@settings(max_examples=40, deadline=None)
@given(breakdowns=st.lists(BREAKDOWN, min_size=1, max_size=8))
def test_breakdowns_read_back_the_appended_rows(breakdowns):
    tracer, reference = FlowTracer(), FlowTracer()
    reference._breakdowns = array("q")
    reference._events = array("q")
    for n, breakdown in enumerate(breakdowns, start=1):
        tracer._record_breakdown(astuple(breakdown))
        reference._record_breakdown(astuple(breakdown))
        assert tracer.breakdowns() == breakdowns[:n]
        assert tracer.completed_flows == n
    assert reference.breakdowns() == breakdowns
    assert tracer.to_chrome_trace() == reference.to_chrome_trace()


@settings(max_examples=60, deadline=None)
@given(records=st.lists(FCT_RECORD, max_size=16))
def test_fcts_read_from_the_columns_equal_the_record_properties(records):
    metrics = collector()
    record_all(metrics, records)
    result = SimResult(metrics, 1.0, "pf")
    for bucket in (None, "S", "M", "L"):
        expected = [
            r.fct_ms for r in records if bucket is None or r.bucket == bucket
        ]
        fcts = result.fcts_ms(bucket)
        assert fcts.dtype == np.float64
        assert fcts.tolist() == expected


def window_as_records_did(window, t_us, window_us):
    """The snapshot ``KpiCollector`` built from a slice of ``FctRecord``s."""
    fcts = [r.fct_ms for r in window]
    short_fcts = [r.fct_ms for r in window if r.size_bytes <= SHORT_MAX_BYTES]
    return CellKpiSnapshot(
        t_us=t_us,
        window_us=window_us,
        flows_completed=len(window),
        fct_mean_ms=float(np.mean(fcts)) if fcts else float("nan"),
        fct_p50_ms=_pctl(fcts, 50),
        fct_p95_ms=_pctl(fcts, 95),
        fct_p99_ms=_pctl(fcts, 99),
        short_fct_p95_ms=_pctl(short_fcts, 95),
        queued_bytes=0,
        active_flows=0,
        backlogged_ues=0,
        mlfq_level_bytes=(),
    )


@settings(max_examples=40, deadline=None)
@given(batches=st.lists(st.lists(FCT_RECORD, max_size=6), min_size=1, max_size=6))
def test_kpi_windows_are_the_records_since_the_last_snapshot(batches):
    metrics = collector()
    sim = SimpleNamespace(metrics=metrics, ues=[], engine=SimpleNamespace(now_us=0))
    kpis = KpiCollector(sim)
    seen: list[FctRecord] = []
    for t_us, batch in enumerate(batches):
        sim.engine.now_us = t_us
        start = len(seen)
        record_all(metrics, batch)
        seen += batch
        snapshot = kpis.snapshot(window_us=1_000)
        expected = window_as_records_did(seen[start:], t_us, 1_000)
        assert snapshot.as_dict() == expected.as_dict()
    # A snapshot with nothing new is an empty window.
    assert kpis.snapshot(window_us=1_000).flows_completed == 0


@settings(max_examples=6, deadline=None)
@given(checkpoint_tti=st.integers(1, 399))
@example(checkpoint_tti=100)  # two narrow rows in each log
@example(checkpoint_tti=300)  # both logs already 64-bit
def test_a_traced_session_resumed_mid_run_finishes_with_the_uninterrupted_bytes(
    checkpoint_tti, tmp_path_factory
):
    """The finished-flow and breakdown logs cross a checkpoint in either
    width: flow ``2**31 + 5`` completes at ~260 ms and widens both."""
    config = SimConfig.lte_default(num_ues=2, load=0.1, seed=1)
    flows = [
        FlowSpec(0, 0, 30_000, 0),
        FlowSpec(1, 1, 20_000, 10_000),
        FlowSpec(2**31 + 5, 0, 40_000, 150_000),
        FlowSpec(2, 1, 5_000, 160_000),
    ]

    def session():
        return SimulationSession.from_config(
            config, "outran", duration_s=0.4, drain_s=0.3,
            flows=flows, flow_trace=True,
        ).start()

    uninterrupted = session()
    baseline = uninterrupted.finish()
    assert uninterrupted.sim.metrics._records.typecode == "q"
    assert uninterrupted.sim.flow_trace._breakdowns.typecode == "q"

    interrupted = session()
    interrupted.step(n_ttis=checkpoint_tti)
    path = tmp_path_factory.mktemp("ckpt") / "mid-run.ckpt"
    interrupted.checkpoint(path)
    assert path.read_bytes().startswith(
        b"%s %d\n" % (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    )
    resumed = SimulationSession.resume(path)
    assert resumed.sim.metrics.completed == interrupted.sim.metrics.completed
    result = resumed.finish()
    assert result.completed_flows == len(flows)
    assert result.records == baseline.records
    assert result.flow_breakdowns == baseline.flow_breakdowns
    assert result_fingerprint(result) == result_fingerprint(baseline)
