"""Span recorder: self-time arithmetic on synthetic call trees."""

import pytest

from spans import SpanRecorder, resolve


class FakeClock:
    """Advances only when the test says so, so self times are exact."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_self_time_partitions_the_root(clock):
    rec = SpanRecorder(clock=clock)

    def leaf():
        clock.spend(5)

    leaf = rec.wrap("leaf", leaf)

    def middle():
        clock.spend(10)
        leaf()
        leaf()
        clock.spend(1)

    middle = rec.wrap("middle", middle)

    def root():
        clock.spend(100)
        middle()
        leaf()

    rec.wrap("root", root)()
    totals = rec.totals()
    assert totals == {"leaf": (3, 15), "middle": (1, 11), "root": (1, 100)}
    assert sum(s for _, s in totals.values()) == clock.now
    assert rec.spans == 5


def test_recursion_counts_each_frame_once(clock):
    rec = SpanRecorder(clock=clock)

    def countdown(n):
        clock.spend(7)
        if n:
            wrapped(n - 1)

    wrapped = rec.wrap("rec", countdown)
    wrapped(3)
    assert rec.totals() == {"rec": (4, 28)}


def test_exception_closes_the_span_and_credits_the_parent(clock):
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.spend(4)
        raise KeyError("x")

    boom = rec.wrap("boom", boom)

    def outer():
        clock.spend(2)
        with pytest.raises(KeyError):
            boom()
        clock.spend(3)

    rec.wrap("outer", outer)()
    assert rec.totals() == {"boom": (1, 4), "outer": (1, 5)}
    # The stack is balanced again: a new root starts with no parent.
    rec.wrap("again", lambda: clock.spend(1))()
    assert rec.raw[-1][0] == "again" and rec.raw[-1][4] == 0


def test_raw_spans_carry_parent_ids_and_are_capped(clock):
    rec = SpanRecorder(max_raw=2, clock=clock)
    inner = rec.wrap("inner", lambda: clock.spend(1))

    def outer():
        inner()
        inner()
        inner()

    rec.wrap("outer", outer)()
    assert len(rec.raw) == 2 and rec.spans == 4
    assert [(key, parent) for key, _, _, _, parent in rec.raw] == [("inner", 1), ("inner", 1)]
    assert rec.totals()["inner"] == (3, 3)  # aggregates are never capped
    events = rec.chrome_trace()["traceEvents"]
    assert {e["ph"] for e in events} == {"X"} and events[0]["args"]["parent"] == 1


class _Target:
    def method(self):
        return "m"

    @classmethod
    def build(cls):
        return cls()


class _Child(_Target):
    pass


def test_install_wraps_at_class_level_and_uninstall_restores():
    here = f"{__name__}._Target"
    rec = SpanRecorder()
    original = _Target.__dict__["method"]
    rec.install([f"{here}.method", f"{here}.build", f"{here}.gone", "no.such.module.f"])
    assert rec.missing == [f"{here}.gone", "no.such.module.f"]
    assert _Target.build().method() == "m"
    assert _Target.method.__name__ == "method"  # pickle finds bound methods by name
    assert rec.totals()[f"{here}.method"][0] == 1
    assert rec.totals()[f"{here}.build"][0] == 1
    rec.uninstall()
    assert _Target.__dict__["method"] is original
    assert isinstance(_Target.__dict__["build"], classmethod)


def test_resolve_ignores_inherited_attributes():
    assert resolve(f"{__name__}._Target.method") == (_Target, "method")
    assert resolve(f"{__name__}._Child.method") is None
