"""Tests for the per-UE MLFQ structure and its configuration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mlfq import DEFAULT_THRESHOLDS, MlfqConfig, MlfqQueue


class TestMlfqConfig:
    def test_default_is_four_queues(self):
        config = MlfqConfig()
        assert config.num_queues == 4  # paper: K > 4 plateaus
        assert len(config.thresholds) == 3

    def test_level_for_bytes_demotion(self):
        config = MlfqConfig(num_queues=3, thresholds=(100, 1000))
        assert config.level_for_bytes(0) == 0
        assert config.level_for_bytes(99) == 0
        assert config.level_for_bytes(100) == 1
        assert config.level_for_bytes(999) == 1
        assert config.level_for_bytes(1000) == 2
        assert config.level_for_bytes(10**9) == 2

    def test_single_queue_always_level_zero(self):
        config = MlfqConfig.single_queue()
        assert config.level_for_bytes(10**12) == 0

    def test_threshold_count_mismatch(self):
        with pytest.raises(ValueError):
            MlfqConfig(num_queues=4, thresholds=(100,))

    def test_non_increasing_thresholds(self):
        with pytest.raises(ValueError):
            MlfqConfig(num_queues=3, thresholds=(1000, 100))

    def test_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            MlfqConfig(num_queues=2, thresholds=(0,))

    def test_zero_queues(self):
        with pytest.raises(ValueError):
            MlfqConfig(num_queues=0, thresholds=())


class TestMlfqQueue:
    def test_strict_priority_order(self):
        q = MlfqQueue(MlfqConfig(num_queues=3, thresholds=(10, 20)))
        q.push("low", 5, level=2)
        q.push("high", 5, level=0)
        q.push("mid", 5, level=1)
        assert q.pop()[0] == "high"
        assert q.pop()[0] == "mid"
        assert q.pop()[0] == "low"

    def test_fifo_within_level(self):
        q = MlfqQueue()
        q.push("a", 1, 0)
        q.push("b", 1, 0)
        assert q.pop()[0] == "a"
        assert q.pop()[0] == "b"

    def test_promoted_beats_level_zero(self):
        q = MlfqQueue()
        q.push("normal", 5, 0)
        q.push_promoted("segment", 5)
        assert q.pop()[0] == "segment"
        assert q.head_level() == 0

    def test_push_front_goes_to_head_of_level(self):
        q = MlfqQueue(MlfqConfig(num_queues=2, thresholds=(10,)))
        q.push("first", 1, 1)
        q.push_front("urgent", 1, 1)
        q.push("top", 1, 0)
        assert q.pop()[0] == "top"
        assert q.pop()[0] == "urgent"
        assert q.pop()[0] == "first"

    def test_total_bytes_tracked(self):
        q = MlfqQueue()
        q.push("a", 100, 0)
        q.push("b", 50, 1)
        assert q.total_bytes == 150
        q.pop()
        assert q.total_bytes == 50

    def test_head_level_empty_is_none(self):
        q = MlfqQueue()
        assert q.head_level() is None

    def test_head_level_reports_highest_nonempty(self):
        q = MlfqQueue()
        q.push("x", 1, 2)
        assert q.head_level() == 2
        q.push("y", 1, 1)
        assert q.head_level() == 1

    def test_level_bytes_includes_promoted_in_zero(self):
        q = MlfqQueue()
        q.push("a", 10, 1)
        q.push_promoted("seg", 7)
        assert q.level_bytes() == [7, 10, 0, 0]

    def test_pop_empty_raises(self):
        q = MlfqQueue()
        with pytest.raises(IndexError):
            q.pop()
        with pytest.raises(IndexError):
            q.peek()

    def test_peek_does_not_remove(self):
        q = MlfqQueue()
        q.push("a", 1, 0)
        assert q.peek()[0] == "a"
        assert len(q) == 1

    def test_invalid_level_rejected(self):
        q = MlfqQueue()
        with pytest.raises(ValueError):
            q.push("a", 1, 4)
        with pytest.raises(ValueError):
            q.push_front("a", 1, -1)

    def test_negative_size_rejected(self):
        q = MlfqQueue()
        with pytest.raises(ValueError):
            q.push("a", -1, 0)

    def test_boost_all_moves_everything_to_top(self):
        q = MlfqQueue()
        q.push("a", 1, 3)
        q.push("b", 1, 1)
        q.boost_all()
        assert q.head_level() == 0
        assert q.level_bytes()[3] == 0
        # Order: level order before boost is preserved (b was higher).
        assert q.pop()[0] == "b"
        assert q.pop()[0] == "a"

    def test_drop_tail_removes_lowest_priority_last_item(self):
        q = MlfqQueue()
        q.push("keep", 1, 0)
        q.push("victim", 9, 3)
        dropped = q.drop_tail()
        assert dropped[0] == "victim"
        assert q.total_bytes == 1

    def test_drop_tail_empty_returns_none(self):
        q = MlfqQueue()
        assert q.drop_tail() is None

    def test_items_iterates_in_service_order(self):
        q = MlfqQueue()
        q.push("b", 2, 1)
        q.push("a", 1, 0)
        q.push_promoted("s", 3)
        order = [payload for payload, _, _ in q.items()]
        assert order == ["s", "a", "b"]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # level
            st.integers(min_value=0, max_value=1000),  # nbytes
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_byte_and_count_accounting(ops):
    """total_bytes and len stay consistent under pushes and pops."""
    q = MlfqQueue()
    expected_bytes = 0
    expected_count = 0
    for level, nbytes in ops:
        q.push(("item", level), nbytes, level)
        expected_bytes += nbytes
        expected_count += 1
    assert q.total_bytes == expected_bytes
    assert len(q) == expected_count
    while q:
        _, nbytes = q.pop()
        expected_bytes -= nbytes
        expected_count -= 1
        assert q.total_bytes == expected_bytes
        assert len(q) == expected_count


@settings(max_examples=60, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 100)), min_size=1, max_size=40
    )
)
def test_property_pop_order_is_nondecreasing_level(items):
    """Without new arrivals, pops come out in nondecreasing level order."""
    q = MlfqQueue()
    for level, nbytes in items:
        q.push(level, nbytes, level)
    levels = []
    while q:
        payload, _ = q.pop()
        levels.append(payload)
    assert levels == sorted(levels)


@settings(max_examples=60, deadline=None)
@given(
    thresholds=st.lists(
        st.integers(1, 10**8), min_size=1, max_size=6, unique=True
    ),
    sent=st.integers(0, 2 * 10**8),
)
def test_property_mlfq_level_monotone_in_bytes(thresholds, sent):
    """More sent-bytes never means a *higher* priority."""
    ladder = tuple(sorted(thresholds))
    config = MlfqConfig(num_queues=len(ladder) + 1, thresholds=ladder)
    level = config.level_for_bytes(sent)
    assert config.level_for_bytes(sent + 1) >= level
    assert 0 <= level <= len(ladder)


class MlfqModel:
    """Reference model: one list ordered by ``(promoted first, level,
    arrival)``, where ``push_front`` arrives ahead of everything queued.

    ``boost_all`` re-stamps arrivals in current service order, so moving
    every item to level 0 keeps that order.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, int, object, int]] = []
        self.back = 0
        self.front = 0

    def add(self, payload, nbytes, level, promoted=False, ahead=False):
        if ahead:
            self.front -= 1
            stamp = self.front
        else:
            self.back += 1
            stamp = self.back
        self.entries.append((0 if promoted else 1, level, stamp, payload, nbytes))
        self.entries.sort(key=lambda e: e[:3])

    def boost(self) -> None:
        self.entries = [
            (rank, 0, self.back + i, payload, nbytes)
            for i, (rank, _, _, payload, nbytes) in enumerate(self.entries)
        ]
        self.back += len(self.entries)

    def items(self) -> list[tuple[object, int, int]]:
        return [(payload, nbytes, level) for _, level, _, payload, nbytes in self.entries]

    def level_bytes(self, num_queues: int) -> list[int]:
        out = [0] * num_queues
        for _, level, _, _, nbytes in self.entries:
            out[level] += nbytes
        return out


MLFQ_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2), st.integers(0, 3000)),
        st.tuples(st.just("push_front"), st.integers(0, 2), st.integers(0, 3000)),
        st.tuples(st.just("push_promoted"), st.integers(0, 3000)),
        st.tuples(st.sampled_from(["pop", "peek", "drop_tail", "boost_all"])),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=MLFQ_OPS)
def test_property_queue_matches_the_sorted_list_model(ops):
    """Every operation answers as the one-list model does, and after
    every step the queue's whole observable state equals the model's."""
    num_queues = 3
    q = MlfqQueue(MlfqConfig(num_queues=num_queues, thresholds=(100, 1000)))
    model = MlfqModel()
    for step, (name, *args) in enumerate(ops):
        if name == "push":
            level, nbytes = args
            q.push(step, nbytes, level)
            model.add(step, nbytes, level)
        elif name == "push_front":
            level, nbytes = args
            q.push_front(step, nbytes, level)
            model.add(step, nbytes, level, ahead=True)
        elif name == "push_promoted":
            (nbytes,) = args
            q.push_promoted(step, nbytes)
            model.add(step, nbytes, 0, promoted=True)
        elif name in ("pop", "peek"):
            if not model.entries:
                with pytest.raises(IndexError):
                    getattr(q, name)()
                continue
            _, _, _, payload, nbytes = (
                model.entries.pop(0) if name == "pop" else model.entries[0]
            )
            assert getattr(q, name)() == (payload, nbytes)
        elif name == "drop_tail":
            victim = model.entries.pop()[3:] if model.entries else None
            assert q.drop_tail() == victim
        else:
            q.boost_all()
            model.boost()
        expected = model.items()
        assert list(q.items()) == expected
        assert q.head_level() == (expected[0][2] if expected else None)
        assert q.tail_level() == (expected[-1][2] if expected else None)
        assert q.level_bytes() == model.level_bytes(num_queues)
        assert q.total_bytes == sum(nbytes for _, nbytes, _ in expected)
        assert len(q) == len(expected)
