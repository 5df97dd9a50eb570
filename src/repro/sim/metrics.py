"""Measurement machinery: FCT records, spectral efficiency, fairness.

The paper's metrics (section 6):

* **FCT** -- from flow start to last byte arriving at the UE, bucketed as
  short (0, 10 KB], medium (10 KB, 0.1 MB], long (0.1 MB, inf) following
  Figure 15.
* **Spectral efficiency** -- transmitted bits over bandwidth x time,
  sampled every 50 TTIs (the Figure 7 granularity).
* **Fairness index** -- Jain's index (eq. 3) over the per-UE service
  each sampling window, restricted to UEs that carried backlog inside the
  window (idle UEs are not "users competing for the resource"; a
  backlogged UE that received nothing counts as starved, which is what
  lets SRJF's starvation show up, Figure 4b).
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.telemetry.flowtrace import FlowBreakdown

SHORT_MAX_BYTES = 10_000
MEDIUM_MAX_BYTES = 100_000

#: Figure 7 samples the SE / fairness CDFs every 50 TTIs.
SAMPLE_WINDOW_TTIS = 50


def size_bucket(size_bytes: int) -> str:
    """Paper's flow-size buckets: 'S', 'M', or 'L'."""
    if size_bytes <= SHORT_MAX_BYTES:
        return "S"
    if size_bytes <= MEDIUM_MAX_BYTES:
        return "M"
    return "L"


@dataclass(frozen=True)
class FctRecord:
    """One completed flow (a row of ``MetricsCollector._records``, built
    when read)."""

    flow_id: int
    ue_index: int
    size_bytes: int
    start_us: int
    end_us: int

    @property
    def fct_us(self) -> int:
        return self.end_us - self.start_us

    @property
    def fct_ms(self) -> float:
        return self.fct_us / 1e3

    @property
    def bucket(self) -> str:
        return size_bucket(self.size_bytes)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index (paper eq. 3); 1.0 for <= 1 value.

    Zero entries are kept: a competing user that received nothing drags
    the index down (that *is* unfairness).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return 1.0
    total_sq = float((arr**2).sum())
    if total_sq == 0.0:
        return 1.0
    return float(arr.sum() ** 2 / (arr.size * total_sq))


_INT32 = range(-(2**31), 2**31)
#: Integers in a ``MetricsCollector._records`` row (``FctRecord``'s fields).
_FCT_ROW = 5


def append_row(log: array, values: tuple) -> array:
    """Append ``values`` to ``log`` and return it, or, when ``log`` is an
    ``array('i')`` and a value does not fit, to its ``array('q')`` copy."""
    try:
        log.extend(values)
    except OverflowError:
        if log.typecode != "i":
            raise
        # extend() stopped at the first value out of range: drop what it
        # already appended of this row, then widen and append it whole.
        appended = next(i for i, v in enumerate(values) if v not in _INT32)
        del log[len(log) - appended:]
        log = array("q", log)
        log.extend(values)
    return log


class MetricsCollector:
    """Accumulates per-TTI and per-flow measurements during a run."""

    def __init__(
        self,
        num_ues: int,
        bandwidth_hz: float,
        tti_us: int,
        fairness_window_s: float = 1.0,
    ) -> None:
        self.num_ues = num_ues
        self.bandwidth_hz = bandwidth_hz
        self.tti_us = tti_us
        self._beta = min((tti_us / 1e6) / fairness_window_s, 1.0)
        #: One ``_FCT_ROW``-int row per completed flow, in ``FctRecord``
        #: field order (20 B a flow); read through fct_columns().
        self._records = array("i")
        self.se_samples: list[tuple[int, float]] = []
        self.fairness_samples: list[tuple[int, float]] = []
        # One sample per dequeued SDU / per finished sender: typed columns
        # (8 B a sample each), read through queue_delays().
        self._queue_delay_flow_ids = array("i")
        self._queue_delay_us = array("i")
        self.rtt_samples_us = array("d")
        self._window_ue_bits = np.zeros(num_ues)
        self.total_ue_bits = np.zeros(num_ues)
        self._ever_backlogged: set[int] = set()
        self._window_bits = 0
        self._window_ttis = 0
        self._window_active: set[int] = set()
        self._tti_count = 0
        self.total_bits = 0
        self.sdus_dropped = 0
        self.decipher_failures = 0
        self.reassembly_discards = 0
        self.flows_started = 0

    # -- per-TTI -----------------------------------------------------------

    def on_tti(
        self,
        now_us: int,
        per_ue_bits: np.ndarray,
        backlogged_ues: Iterable[int],
    ) -> None:
        """Account one TTI's transmissions."""
        bits = int(per_ue_bits.sum())
        self.total_bits += bits
        self._window_bits += bits
        self._window_ttis += 1
        self._window_active.update(backlogged_ues)
        self._ever_backlogged.update(self._window_active)
        self._window_ue_bits += per_ue_bits
        self.total_ue_bits += per_ue_bits
        self._tti_count += 1
        if self._window_ttis >= SAMPLE_WINDOW_TTIS:
            self._close_window(now_us)

    def _close_window(self, now_us: int) -> None:
        window_s = self._window_ttis * self.tti_us / 1e6
        se = self._window_bits / (self.bandwidth_hz * window_s)
        if self._window_active:
            self.se_samples.append((now_us, se))
            active = sorted(self._window_active)
            self.fairness_samples.append(
                (now_us, jain_index(self._window_ue_bits[active]))
            )
        self._window_bits = 0
        self._window_ttis = 0
        self._window_active.clear()
        self._window_ue_bits[:] = 0.0

    # -- per-flow ------------------------------------------------------------

    def on_flow_started(self) -> None:
        self.flows_started += 1

    def on_flow_complete(
        self, flow_id: int, ue_index: int, size_bytes: int, start_us: int,
        end_us: int,
    ) -> None:
        self._records = append_row(
            self._records, (flow_id, ue_index, size_bytes, start_us, end_us)
        )

    @property
    def completed(self) -> int:
        """Flows completed so far."""
        return len(self._records) // _FCT_ROW

    def fct_columns(self, start: int = 0) -> tuple[array, ...]:
        """``(flow_id, ue_index, size_bytes, start_us, end_us)`` columns of
        the flows completed from the ``start``-th on, in completion order."""
        log = self._records
        return tuple(
            log[start * _FCT_ROW + i :: _FCT_ROW] for i in range(_FCT_ROW)
        )

    def on_queue_delay(self, flow_id: int, delay_us: int) -> None:
        self._queue_delay_flow_ids = append_row(
            self._queue_delay_flow_ids, (flow_id,)
        )
        self._queue_delay_us = append_row(self._queue_delay_us, (delay_us,))

    def queue_delays(self) -> Iterator[tuple[int, int]]:
        """``(flow_id, delay_us)`` of every dequeued SDU, in dequeue order."""
        return zip(self._queue_delay_flow_ids, self._queue_delay_us)

    def on_rtt_sample(self, srtt_us: float) -> None:
        self.rtt_samples_us.append(srtt_us)


class SimResult:
    """Immutable summary of one run, with figure-shaped accessors."""

    def __init__(
        self,
        collector: MetricsCollector,
        duration_s: float,
        scheduler_name: str,
        flow_sizes: Optional[dict[int, int]] = None,
        extra: Optional[dict] = None,
        telemetry: Optional[dict] = None,
        breakdown_log: Optional[array] = None,
    ) -> None:
        self._c = collector
        self.duration_s = duration_s
        self.scheduler_name = scheduler_name
        self._flow_sizes = flow_sizes or {}
        self.extra = extra or {}
        #: Telemetry snapshot captured at the end of the run (None when the
        #: run was not instrumented); see docs/OBSERVABILITY.md.  Kept out
        #: of the summary accessors so instrumented and plain runs report
        #: identical simulation results.
        self.telemetry = telemetry
        #: The flow tracer's breakdown rows (None when tracing was off).
        #: Also kept out of the summary accessors: a traced and an
        #: untraced same-seed run report identical simulation results.
        self._breakdowns = breakdown_log

    @property
    def flow_breakdowns(self) -> Optional[list["FlowBreakdown"]]:
        """A fresh list of per-flow FCT breakdowns, in completion order
        (None when tracing was off)."""
        if self._breakdowns is None:
            return None
        from repro.telemetry.flowtrace import breakdown_list

        return breakdown_list(self._breakdowns)

    # -- FCT ------------------------------------------------------------------

    @property
    def records(self) -> list[FctRecord]:
        """A fresh list of the completed flows, in completion order."""
        return [FctRecord(*row) for row in zip(*self._c.fct_columns())]

    def fct_columns(self) -> tuple[array, ...]:
        """The records as ``(flow_id, ue_index, size_bytes, start_us,
        end_us)`` integer columns."""
        return self._c.fct_columns()

    def fcts_ms(self, bucket: Optional[str] = None) -> np.ndarray:
        """FCTs in ms, optionally restricted to a size bucket."""
        _, _, sizes, starts, ends = self._c.fct_columns()
        values = [
            (end - start) / 1e3
            for size, start, end in zip(sizes, starts, ends)
            if bucket is None or size_bucket(size) == bucket
        ]
        return np.asarray(values, dtype=float)

    def _warn_if_no_records(self) -> None:
        """Zero completed flows: FCT statistics are NaN by definition.

        A per-bucket query with an empty bucket stays silent -- mixed
        workloads legitimately miss buckets; a run that completed nothing
        at all is almost always a misconfiguration (duration too short,
        load zero) worth flagging.
        """
        if not self._c.completed:
            warnings.warn(
                f"run [{self.scheduler_name}] completed no flows; "
                "FCT statistics are NaN",
                RuntimeWarning,
                stacklevel=3,
            )

    def avg_fct_ms(self, bucket: Optional[str] = None) -> float:
        values = self.fcts_ms(bucket)
        if not values.size:
            self._warn_if_no_records()
            return float("nan")
        return float(values.mean())

    def pctl_fct_ms(self, percentile: float, bucket: Optional[str] = None) -> float:
        values = self.fcts_ms(bucket)
        if not values.size:
            self._warn_if_no_records()
            return float("nan")
        return float(np.percentile(values, percentile))

    @property
    def completed_flows(self) -> int:
        return self._c.completed

    @property
    def censored_flows(self) -> int:
        """Flows started but not finished when the run ended."""
        return self._c.flows_started - self._c.completed

    # -- system metrics ---------------------------------------------------------

    def se_series(self) -> np.ndarray:
        return np.asarray([s for _, s in self._c.se_samples], dtype=float)

    def fairness_series(self) -> np.ndarray:
        return np.asarray([f for _, f in self._c.fairness_samples], dtype=float)

    def mean_se(self) -> float:
        series = self.se_series()
        return float(series.mean()) if series.size else float("nan")

    def mean_fairness(self) -> float:
        series = self.fairness_series()
        return float(series.mean()) if series.size else float("nan")

    def longterm_fairness(self) -> float:
        """Jain's index over whole-run served bytes of UEs that ever had
        backlog -- the paper's eq. 3 at its longest horizon (the windowed
        ``mean_fairness`` is the Figure 7 sampling)."""
        active = sorted(self._c._ever_backlogged)
        if not active:
            return float("nan")
        return jain_index(self._c.total_ue_bits[active])

    def mean_rtt_ms(self) -> float:
        samples = self._c.rtt_samples_us
        return float(np.mean(samples) / 1e3) if samples else float("nan")

    def queue_delay_ms(self, bucket: Optional[str] = None) -> float:
        """Mean RLC queueing delay, optionally per flow-size bucket."""
        values = [
            delay / 1e3
            for flow_id, delay in self._c.queue_delays()
            if bucket is None
            or size_bucket(self._flow_sizes.get(flow_id, 0)) == bucket
        ]
        return float(np.mean(values)) if values else float("nan")

    @property
    def sdus_dropped(self) -> int:
        return self._c.sdus_dropped

    @property
    def decipher_failures(self) -> int:
        return self._c.decipher_failures

    @property
    def reassembly_discards(self) -> int:
        return self._c.reassembly_discards

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-friendly summary of the run (``--json``, serve, sweeps)."""
        return {
            "scheduler": self.scheduler_name,
            "duration_s": self.duration_s,
            "completed_flows": self.completed_flows,
            "censored_flows": self.censored_flows,
            "avg_fct_ms": self.avg_fct_ms(),
            "short_avg_fct_ms": self.avg_fct_ms("S"),
            "short_p95_fct_ms": self.pctl_fct_ms(95, "S"),
            "medium_avg_fct_ms": self.avg_fct_ms("M"),
            "long_avg_fct_ms": self.avg_fct_ms("L"),
            "spectral_efficiency": self.mean_se(),
            "fairness": self.mean_fairness(),
            "sdus_dropped": self.sdus_dropped,
        }

    def fct_summary(self) -> str:
        """Human-readable one-run summary (the quickstart prints this)."""
        lines = [
            f"scheduler={self.scheduler_name} duration={self.duration_s:.1f}s "
            f"flows={self.completed_flows} (+{self.censored_flows} unfinished)",
            f"  overall avg FCT: {self.avg_fct_ms():8.1f} ms",
        ]
        for bucket, label in (("S", "short"), ("M", "medium"), ("L", "long")):
            n = self.fcts_ms(bucket).size
            if n:
                lines.append(
                    f"  {label:>6} ({bucket}) avg {self.avg_fct_ms(bucket):8.1f} ms  "
                    f"95%ile {self.pctl_fct_ms(95, bucket):8.1f} ms  (n={n})"
                )
        lines.append(
            f"  spectral efficiency {self.mean_se():.2f} bit/s/Hz, "
            f"fairness {self.mean_fairness():.3f}"
        )
        return "\n".join(lines)
