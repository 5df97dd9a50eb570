"""Tests for the discrete-event engine."""

import gc
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import (
    EventEngine,
    PeriodicTask,
    US_PER_MS,
    US_PER_SEC,
    microseconds,
    seconds,
)

#: Later than anything a test below schedules: ``run_until`` to here
#: drains the queue.
HORIZON_US = 1_000_000


class TestConversions:
    def test_seconds(self):
        assert seconds(1_500_000) == 1.5

    def test_microseconds(self):
        assert microseconds(1.5) == 1_500_000

    def test_roundtrip(self):
        assert seconds(microseconds(0.123456)) == pytest.approx(0.123456)

    def test_constants(self):
        assert US_PER_SEC == 1_000_000
        assert US_PER_MS == 1_000


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(30, fired.append, "c")
        engine.schedule_at(10, fired.append, "a")
        engine.schedule_at(20, fired.append, "b")
        engine.run_until(HORIZON_US)
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo_order(self):
        engine = EventEngine()
        fired = []
        for tag in range(5):
            engine.schedule_at(100, fired.append, tag)
        engine.run_until(HORIZON_US)
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_is_relative(self):
        engine = EventEngine()
        seen = []
        engine.schedule_at(50, lambda: engine.schedule_in(25, lambda: seen.append(engine.now_us)))
        engine.run_until(HORIZON_US)
        assert seen == [75]

    def test_schedule_into_past_raises(self):
        engine = EventEngine()
        engine.schedule_at(10, lambda: None)
        engine.run_until(HORIZON_US)
        with pytest.raises(ValueError):
            engine.schedule_at(5, lambda: None)

    def test_negative_delay_raises(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            engine.schedule_in(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule_at(10, fired.append, "x")
        event.cancel()
        engine.run_until(HORIZON_US)
        assert fired == []

    def test_events_scheduled_during_run_fire(self):
        engine = EventEngine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule_in(10, chain, n + 1)

        engine.schedule_at(0, chain, 0)
        engine.run_until(HORIZON_US)
        assert fired == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        engine = EventEngine()
        for t in range(5):
            engine.schedule_at(t, lambda: None)
        engine.run_until(HORIZON_US)
        assert engine.events_processed == 5


class TestRunUntil:
    def test_clock_reaches_end_even_when_queue_drains(self):
        engine = EventEngine()
        engine.schedule_at(10, lambda: None)
        engine.run_until(1000)
        assert engine.now_us == 1000

    def test_future_events_stay_queued(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(10, fired.append, "early")
        engine.schedule_at(2000, fired.append, "late")
        engine.run_until(1000)
        assert fired == ["early"]
        engine.run_until(3000)
        assert fired == ["early", "late"]

    def test_event_exactly_at_boundary_fires(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1000, fired.append, "edge")
        engine.run_until(1000)
        assert fired == ["edge"]

    def test_monotonic_now_across_runs(self):
        engine = EventEngine()
        engine.run_until(500)
        engine.schedule_at(600, lambda: None)
        engine.run_until(700)
        assert engine.now_us == 700


class TestPeriodicTask:
    def test_fires_every_period(self):
        engine = EventEngine()
        ticks = []
        PeriodicTask(engine, 100, lambda: ticks.append(engine.now_us))
        engine.run_until(450)
        assert ticks == [100, 200, 300, 400]

    def test_custom_start(self):
        engine = EventEngine()
        ticks = []
        PeriodicTask(engine, 100, lambda: ticks.append(engine.now_us), start_us=50)
        engine.run_until(300)
        assert ticks == [50, 150, 250]

    def test_stop_prevents_future_fires(self):
        engine = EventEngine()
        ticks = []
        task = PeriodicTask(engine, 100, lambda: ticks.append(engine.now_us))
        engine.run_until(250)
        task.stop()
        engine.run_until(1000)
        assert ticks == [100, 200]

    def test_invalid_period_raises(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            PeriodicTask(engine, 0, lambda: None)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_property_fire_order_matches_sorted_times(times):
    """Whatever the scheduling order, events fire in nondecreasing time."""
    engine = EventEngine()
    fired = []
    for t in times:
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run_until(HORIZON_US)
    assert fired == sorted(times)


class _Recorder:
    """Picklable callback target: what fired, and when."""

    def __init__(self, engine):
        self.engine = engine
        self.fired = []

    def fire(self, tag):
        self.fired.append((self.engine.now_us, tag))


_OPS = st.one_of(
    st.tuples(st.sampled_from(["at", "in", "run"]), st.integers(0, 40)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("pickle"), st.just(0)),
)


@given(st.lists(_OPS, max_size=80))
def test_property_interleaved_schedule_cancel_run(ops):
    """Events fire in exactly ``(time_us, seq)`` order, a cancelled handle
    never fires, and ``pending()`` counts tombstones until their slot
    comes up -- also when the engine is pickled mid-sequence and the
    handles the caller holds come back with it."""
    engine = EventEngine()
    recorder = _Recorder(engine)
    handles = []
    # Model, one row per scheduled entry (its index is its seq):
    # [time_us, cancelled, popped].
    model = []
    expected = []
    for op, value in ops:
        if op in ("at", "in"):
            time_us = engine.now_us + value
            if op == "at":
                handle = engine.schedule_at(time_us, recorder.fire, len(model))
            else:
                handle = engine.schedule_in(value, recorder.fire, len(model))
            handles.append(handle)
            model.append([time_us, False, False])
        elif op == "cancel" and handles:
            tag = value % len(handles)
            handles[tag].cancel()
            model[tag][1] = True
        elif op == "run":
            end_us = engine.now_us + value
            engine.run_until(end_us)
            due = sorted(
                (row[0], tag) for tag, row in enumerate(model)
                if not row[2] and row[0] <= end_us
            )
            for time_us, tag in due:
                model[tag][2] = True
                if not model[tag][1]:
                    expected.append((time_us, tag))
            assert engine.now_us == end_us
        elif op == "pickle":
            engine, recorder, handles = pickle.loads(
                pickle.dumps((engine, recorder, handles), pickle.HIGHEST_PROTOCOL)
            )
        assert recorder.fired == expected
        assert engine.pending() == sum(not row[2] for row in model)
    engine.run_until(HORIZON_US)
    expected += sorted(
        (row[0], tag) for tag, row in enumerate(model) if not row[1] and not row[2]
    )
    assert recorder.fired == expected
    assert engine.events_processed == len(expected)
    assert engine.pending() == 0


def test_cancelled_handle_lets_go_of_fn_and_args():
    """A tombstone waits in the heap for its slot; what it would have
    called must not wait with it (a re-armed RTO pins a finished sender
    otherwise)."""

    class Target:
        def fire(self, arg):
            raise AssertionError("cancelled")

    engine = EventEngine()
    target, arg = Target(), Target()
    refs = [weakref.ref(target), weakref.ref(arg)]
    handle = engine.schedule_at(100, target.fire, arg)
    handle.cancel()
    del target, arg
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert engine.pending() == 1
    engine.run_until(HORIZON_US)
    assert engine.pending() == 0 and engine.events_processed == 0


class TestEngineEdges:
    def test_event_at_current_time_fires(self):
        engine = EventEngine()
        engine.run_until(100)
        fired = []
        engine.schedule_at(100, fired.append, 1)
        engine.run_until(100)
        assert fired == [1]

    def test_cancel_inside_callback(self):
        engine = EventEngine()
        fired = []
        later = engine.schedule_at(20, fired.append, "late")

        def first():
            fired.append("early")
            later.cancel()

        engine.schedule_at(10, first)
        engine.run_until(HORIZON_US)
        assert fired == ["early"]

    def test_pending_counts_tombstones(self):
        engine = EventEngine()
        event = engine.schedule_at(10, lambda: None)
        event.cancel()
        assert engine.pending() == 1
        engine.run_until(HORIZON_US)
        assert engine.pending() == 0
