"""A minimal, fast discrete-event simulation engine.

Time is kept as integer **microseconds**.  All layers of the simulator (TTI
ticks, link propagation, TCP timers, RLC timers) schedule callbacks on a
single shared :class:`EventEngine`.  Integer time avoids floating-point
drift when the TTI is 125 us (5G numerology 3) and makes event ordering
deterministic.

Events scheduled for the same timestamp fire in FIFO order of scheduling,
which gives reproducible runs for a fixed RNG seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

US_PER_SEC = 1_000_000
US_PER_MS = 1_000


def seconds(t_us: int) -> float:
    """Convert integer microseconds into float seconds."""
    return t_us / US_PER_SEC


def microseconds(t_s: float) -> int:
    """Convert float seconds into integer microseconds (rounded)."""
    return int(round(t_s * US_PER_SEC))


class Event(list):
    """Heap entry and cancellation handle in one: ``[time_us, seq, fn, args]``.

    A list that defines no ordering of its own, so ``heapq`` compares
    entries in C; ``seq`` is unique, so the comparison never reaches ``fn``.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Turn the entry into a tombstone the engine skips when popped.

        The tombstone lets go of its callback: a cancelled RTO must not
        keep a finished sender alive until its slot in the heap comes up.
        """
        self[2] = None
        self[3] = ()


class EventEngine:
    """Binary-heap event loop with integer-microsecond timestamps."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self.now_us: int = 0
        self.events_processed: int = 0

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return seconds(self.now_us)

    def schedule_at(self, time_us: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time_us``.

        Scheduling into the past raises ``ValueError``: that is always a
        logic bug in a caller, and silently clamping it would reorder
        causally-dependent events.
        """
        if time_us < self.now_us:
            raise ValueError(
                f"cannot schedule into the past: {time_us} < now {self.now_us}"
            )
        event = Event((time_us, next(self._seq), fn, args))
        heapq.heappush(self._queue, event)
        return event

    def reserve_rank(self) -> int:
        """Take the next same-microsecond rank without queueing anything.

        For a caller that keeps one heap entry where it would push one per
        call (``TcpFlow``'s lazy RTO): the order of every other event, and
        of its own eventual ``schedule_ranked``, stays what it would be.
        """
        return next(self._seq)

    def schedule_ranked(
        self, time_us: int, rank: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time_us`` under a reserved rank."""
        if time_us < self.now_us:
            raise ValueError(
                f"cannot schedule into the past: {time_us} < now {self.now_us}"
            )
        event = Event((time_us, rank, fn, args))
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay_us: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"negative delay: {delay_us}")
        return self.schedule_at(self.now_us + delay_us, fn, *args)

    def run_until(self, end_us: int) -> None:
        """Process events in order until the clock reaches ``end_us``.

        The clock is left exactly at ``end_us`` even when the queue drains
        early, so back-to-back ``run_until`` calls never see it run backwards.
        """
        queue = self._queue
        while queue and queue[0][0] <= end_us:
            time_us, _, fn, args = heapq.heappop(queue)
            if fn is None:
                continue
            self.now_us = time_us
            self.events_processed += 1
            fn(*args)
        if self.now_us < end_us:
            self.now_us = end_us

    def pending(self) -> int:
        """Number of queued events, including cancelled tombstones."""
        return len(self._queue)


class PeriodicTask:
    """Re-schedules a callback every ``period_us`` until cancelled.

    The callback fires first at ``start_us`` (default: one period from the
    moment the task is created).
    """

    def __init__(
        self,
        engine: EventEngine,
        period_us: int,
        fn: Callable[..., Any],
        *args: Any,
        start_us: Optional[int] = None,
    ) -> None:
        if period_us <= 0:
            raise ValueError(f"period must be positive: {period_us}")
        self._engine = engine
        self._period_us = period_us
        self._fn = fn
        self._args = args
        self._stopped = False
        first = engine.now_us + period_us if start_us is None else start_us
        self._event = engine.schedule_at(first, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn(*self._args)
        if not self._stopped:
            self._event = self._engine.schedule_in(self._period_us, self._tick)

    def stop(self) -> None:
        """Stop firing; a pending occurrence is cancelled."""
        self._stopped = True
        self._event.cancel()
