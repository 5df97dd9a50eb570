"""Named counters and gauges: the harvest of a run's own integers.

Metric names are dotted paths whose first component is the *namespace*
(``engine.events_processed``, ``mac.harq.retransmissions``); exporters and
the snapshot format preserve the full name.  The registry memoizes by
name, so a harvest can call :meth:`TelemetryRegistry.counter` every time
without holding references.

Nothing records while a cell runs: the simulator layers keep plain
integer attributes on their own hot paths and *harvest* them into a
registry at the end of a run (or into a throwaway one for a live
scrape), so a snapshot is a function of simulated state and two
same-seed runs write the same snapshot.  "Off" is ``None`` -- there is
no registry object to call.
"""

from __future__ import annotations

from typing import Optional


class Counter:
    """Monotonically non-decreasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0: counters only ever go up)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount


class Gauge:
    """Point-in-time float metric (queue depth, window sizes, memory)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class TelemetryRegistry:
    """Registry of named metrics, one per simulation (or shared).

    A registry may be shared by several simulations (multi-cell runs, the
    benchmark harness): counters then accumulate across runs, which is the
    pooled view those callers want.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._gauges[name] = Gauge(name)
        return metric

    @staticmethod
    def _check_free(name: str, other_kind: dict) -> None:
        if name in other_kind:
            raise ValueError(f"metric {name} already registered as another type")

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of every metric's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
        }

    def reset(self) -> None:
        """Zero every metric (keeps registrations)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0


def coerce_registry(telemetry) -> Optional[TelemetryRegistry]:
    """Normalize a constructor argument into a registry, or None for off.

    ``None``/``False`` -> None, ``True`` -> a fresh registry, a registry
    -> itself.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        return TelemetryRegistry()
    if isinstance(telemetry, TelemetryRegistry):
        return telemetry
    raise TypeError(f"telemetry must be a TelemetryRegistry or bool: {telemetry!r}")
