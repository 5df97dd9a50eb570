"""Property-based tests: a run's append-only logs widen without losing a row.

The flow tracer's event rows and the queue-delay columns are stored as
32-bit ``array('i')`` and become 64-bit ``array('q')`` the first time a
value does not fit (``repro.sim.metrics.append_row``).  Whatever reads
them -- the Chrome trace export, ``queue_delays()``, the fingerprint --
must see the same values a 64-bit log fed the same rows gives.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro import SimConfig
from repro.sim.metrics import MetricsCollector, SimResult, append_row
from repro.sim.session import SimulationSession, result_fingerprint
from repro.telemetry.flowtrace import _INSTANTS, FlowTracer
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
