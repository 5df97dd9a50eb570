"""Named counters, gauges, and fixed-bucket histograms.

Metric names are dotted paths whose first component is the *namespace*
(``engine.events_processed``, ``mac.harq.retransmissions``); exporters and
the snapshot format preserve the full name.  The registry memoizes by
name, so instrumented code can call :meth:`TelemetryRegistry.counter`
every time without holding references.

Disabled-mode cost: the simulator layers keep plain integer attributes on
their own hot paths (the pre-existing idiom) and *harvest* them into a
registry once per run, so a disabled registry costs literally nothing
there.  The few live instrumentation points (per-TTI latency histograms)
go through :data:`NULL_REGISTRY`, whose metric objects are shared no-op
singletons.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

#: Default latency bucket upper edges in microseconds (last bucket is
#: +inf): spans a fast vectorized TTI (~50 us) to a pathological one.
DEFAULT_LATENCY_EDGES_US = (50, 100, 250, 500, 1000, 2500, 5000, 10000)


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
    """Point-in-time float metric (queue depth, rates, memory)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: K finite upper edges plus an overflow.

    ``edges`` are the inclusive upper bounds of the first K buckets; any
    observation above the last edge lands in the overflow bucket.  Edges
    are fixed at creation so recording is one bisect plus an increment.
    """

    __slots__ = ("name", "edges", "counts", "count", "total")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError(f"histogram {name} needs at least one edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram {name} edges must strictly increase: {edges}")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation within buckets.

        Observations are assumed uniform inside their bucket (the usual
        Prometheus ``histogram_quantile`` convention); the first bucket's
        lower bound is 0 and a rank landing in the overflow bucket clamps
        to the last finite edge (the estimate cannot exceed what the
        buckets resolve).  NaN when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for edge, count in zip(self.edges, self.counts):
            if count and cumulative + count >= rank:
                return lower + (edge - lower) * (rank - cumulative) / count
            cumulative += count
            lower = edge
        return self.edges[-1]


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class TelemetryRegistry:
    """Registry of named metrics, one per simulation (or shared).

    A registry may be shared by several simulations (multi-cell runs, the
    benchmark harness): counters then accumulate across runs, which is the
    pooled view those callers want.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._gauges, self._histograms)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._counters, self._histograms)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES_US
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._counters, self._gauges)
            metric = self._histograms[name] = Histogram(name, edges)
        elif tuple(float(e) for e in edges) != metric.edges:
            raise ValueError(
                f"histogram {name} already registered with edges {metric.edges}"
            )
        return metric

    @staticmethod
    def _check_free(name: str, *other_kinds: dict) -> None:
        for kind in other_kinds:
            if name in kind:
                raise ValueError(f"metric {name} already registered as another type")

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of every metric's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.total,
                    # Interpolated tail estimates (None when empty keeps
                    # the JSON export strictly valid -- no NaN literals).
                    "p50": h.quantile(0.50) if h.count else None,
                    "p95": h.quantile(0.95) if h.count else None,
                    "p99": h.quantile(0.99) if h.count else None,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every metric (keeps registrations and bucket edges)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for hist in self._histograms.values():
            hist.counts = [0] * len(hist.counts)
            hist.count = 0
            hist.total = 0.0


class _NullRegistry(TelemetryRegistry):
    """Shared do-nothing registry: every accessor returns a no-op metric."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null", (1.0,))

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES_US
    ) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __reduce__(self):
        # Pickle as a reference to the process-wide singleton so session
        # checkpoints of telemetry-disabled runs restore the shared no-op
        # registry instead of growing private copies.
        return (_null_registry, ())


def _null_registry() -> "_NullRegistry":
    return NULL_REGISTRY


#: The process-wide disabled registry; instrument against this by default.
NULL_REGISTRY = _NullRegistry()


def coerce_registry(telemetry) -> TelemetryRegistry:
    """Normalize a constructor argument into a registry.

    ``None``/``False`` -> :data:`NULL_REGISTRY`, ``True`` -> a fresh
    enabled registry, a registry -> itself.
    """
    if telemetry is None or telemetry is False:
        return NULL_REGISTRY
    if telemetry is True:
        return TelemetryRegistry()
    if isinstance(telemetry, TelemetryRegistry):
        return telemetry
    raise TypeError(f"telemetry must be a TelemetryRegistry or bool: {telemetry!r}")
