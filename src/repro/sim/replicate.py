"""Seeded replication: run one configuration across seeds, report CIs.

Single runs of a heavy-tailed workload are noisy; the paper averages 50
testbed runs per webpage and simulates 10 K flows.  ``run_replications``
is the library's equivalent: N independent seeds of the same
(configuration, scheduler) pair, summarized as mean and a Student-t
confidence interval per metric (t with n-1 degrees of freedom, not the
normal 1.96 -- replication counts are small, and the normal quantile
understates the interval by ~2.2x at n=3).

The replications run through :class:`~repro.runner.pool.SweepRunner`,
in this process for ``jobs == 1`` and on worker processes for more;
seeds are explicit, so the report is the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.mac.scheduler import MacScheduler
from repro.sim.config import SimConfig
from repro.sim.metrics import SimResult


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value with ``df`` degrees of freedom."""
    from scipy.stats import t as student_t

    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1: {df}")
    return float(student_t.ppf(0.975, df))

#: Metric extractors applied to every replication's SimResult.
DEFAULT_METRICS: dict[str, Callable[[SimResult], float]] = {
    "avg_fct_ms": lambda r: r.avg_fct_ms(),
    "short_avg_fct_ms": lambda r: r.avg_fct_ms("S"),
    "short_p95_fct_ms": lambda r: r.pctl_fct_ms(95, "S"),
    "long_avg_fct_ms": lambda r: r.avg_fct_ms("L"),
    "spectral_efficiency": lambda r: r.mean_se(),
    "fairness": lambda r: r.mean_fairness(),
}


@dataclass(frozen=True)
class MetricSummary:
    """Mean and 95% CI half-width of one metric across replications."""

    name: str
    mean: float
    ci95: float
    samples: tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.name}: {self.mean:.2f} ± {self.ci95:.2f} (n={len(self.samples)})"


@dataclass(frozen=True)
class ReplicationReport:
    """All metric summaries for one (config, scheduler) pair."""

    scheduler_name: str
    replications: int
    metrics: dict[str, MetricSummary]

    def __getitem__(self, name: str) -> MetricSummary:
        return self.metrics[name]

    def __str__(self) -> str:
        lines = [f"{self.scheduler_name} ({self.replications} replications)"]
        lines += [f"  {summary}" for summary in self.metrics.values()]
        return "\n".join(lines)


def summarize(name: str, values: list[float]) -> MetricSummary:
    """Mean and 95% Student-t CI of a sample (NaNs dropped)."""
    clean = [v for v in values if v == v]
    if not clean:
        return MetricSummary(name, float("nan"), float("nan"), tuple(values))
    mean = float(np.mean(clean))
    if len(clean) < 2:
        return MetricSummary(name, mean, float("nan"), tuple(values))
    sem = float(np.std(clean, ddof=1)) / math.sqrt(len(clean))
    return MetricSummary(name, mean, t_critical_95(len(clean) - 1) * sem, tuple(values))


def run_replications(
    config: SimConfig,
    scheduler: Union[str, MacScheduler],
    replications: int = 5,
    duration_s: float = 8.0,
    metrics: Optional[dict[str, Callable[[SimResult], float]]] = None,
    jobs: int = 1,
) -> ReplicationReport:
    """Run ``replications`` seeds and summarize the chosen metrics.

    ``jobs > 1`` executes the replications on a process pool; the seeds
    (and therefore the report) are identical either way.  No persistent
    store: arbitrary in-memory configs have no stable content hash.
    """
    from repro.runner import ConfigTask, SweepRunner, run_config_task

    if replications < 1:
        raise ValueError(f"need at least one replication: {replications}")
    if not isinstance(scheduler, str):
        raise TypeError(
            "replications need a scheduler *name* so each run gets a "
            "fresh instance"
        )
    extractors = metrics if metrics is not None else DEFAULT_METRICS
    tasks = [
        ConfigTask(
            config=config.with_overrides(seed=config.seed + 101 * rep),
            scheduler=scheduler,
            duration_s=duration_s,
            index=rep,
        )
        for rep in range(replications)
    ]
    outcome = SweepRunner(
        jobs=jobs, store=None, worker=run_config_task
    ).execute(tasks)
    outcome.raise_on_failure()
    values: dict[str, list[float]] = {name: [] for name in extractors}
    scheduler_name = scheduler
    for result in outcome.in_order(tasks):
        scheduler_name = result.scheduler_name
        for name, fn in extractors.items():
            values[name].append(fn(result))
    return ReplicationReport(
        scheduler_name=scheduler_name,
        replications=replications,
        metrics={name: summarize(name, vals) for name, vals in values.items()},
    )
