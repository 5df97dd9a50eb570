"""Static vs adaptive: the Near-RT RIC closed loop under non-stationary load.

The paper tunes epsilon and the MLFQ ladder offline and ships one static
configuration.  This figure puts that static tuning under a time-varying
workload (calm -> overload burst -> settle, :class:`NonStationaryLoad`)
and compares it against the same cell with the hill-climbing xApp
closing the loop at runtime (:mod:`repro.ric`).  Two claims are checked:

* starting from the paper's defaults, the adaptive loop ends with a
  lower p95 FCT than the static defaults achieve, and
* starting from a pathologically mis-tuned MLFQ ladder, the loop climbs
  out of it (static stays bad; adaptive recovers most of the gap).

Every run is deterministic (fixed simulation and schedule seeds), so the
emitted table is reproducible byte-for-byte; the per-run numbers and the
two headline gains are written next to it as
``benchmarks/results/ric_adaptive.<mode>.json``.
"""

import os

import pytest

from repro.analysis.tables import format_table
from repro.core.mlfq import MlfqConfig
from repro.ric.hillclimb import HillClimbXApp
from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession
from repro.traffic.nonstationary import NonStationaryLoad

from _harness import improvement_pct, once, record, scale

#: The scale at which the static/adaptive gap is demonstrable and fast
#: (~5 s wall per run).  Env overrides exist so the CI smoke job can
#: shrink further; the committed artifact uses the defaults.
RIC_UES = int(os.environ.get("REPRO_BENCH_RIC_UES", 12))
RIC_PHASE_S = float(os.environ.get("REPRO_BENCH_RIC_PHASE", scale(3.0, 6.0)))
RIC_SEED = 3
SCHEDULE_SEED = 11
REPORT_PERIOD_US = 250_000

#: A pathologically small ladder: every flow beyond 2 KB is demoted to
#: the lowest level, so MLFQ degrades toward FIFO-with-extra-steps.
BAD_THRESHOLDS = (500, 1_000, 2_000)


def _run(xapp=None, epsilon=0.2, thresholds=None):
    overrides = {}
    if thresholds is not None:
        overrides["mlfq"] = MlfqConfig(
            num_queues=len(thresholds) + 1, thresholds=thresholds
        )
    cfg = SimConfig.lte_default(num_ues=RIC_UES, seed=RIC_SEED, **overrides)
    schedule = NonStationaryLoad.burst(
        low=0.55, high=1.4, settle=0.8, phase_s=RIC_PHASE_S, seed=SCHEDULE_SEED
    )
    session = SimulationSession.from_config(
        cfg, f"outran:{epsilon}", duration_s=schedule.total_duration_s
    )
    schedule.provide_to(session.sim)
    if xapp is not None:
        session.attach_ric(xapps=[xapp], period_us=REPORT_PERIOD_US)
    result = session.start().finish()
    stats = {
        "p95_fct_ms": result.pctl_fct_ms(95),
        "mean_fct_ms": result.avg_fct_ms(),
        "short_p95_fct_ms": result.pctl_fct_ms(95, bucket="S"),
        "flows": result.completed_flows,
    }
    if xapp is not None:
        report = session.ric_report()
        stats["final_params"] = report["final_params"]
        stats["controls_accepted"] = report["controls_accepted"]
        stats["controls_rejected"] = report["controls_rejected"]
    return stats


def _hillclimb(dimensions):
    return HillClimbXApp(dimensions=dimensions, min_window_flows=8)


def run_ric_adaptive() -> str:
    runs = {
        "static default": _run(),
        "static bad ladder": _run(thresholds=BAD_THRESHOLDS),
        "adaptive from default": _run(
            xapp=_hillclimb(("epsilon", "thresholds"))
        ),
        "adaptive from bad ladder": _run(
            xapp=_hillclimb(("thresholds",)), thresholds=BAD_THRESHOLDS
        ),
    }
    rows = []
    for name, stats in runs.items():
        final = stats.get("final_params")
        rows.append(
            [
                name,
                f"{stats['p95_fct_ms']:.1f}",
                f"{stats['mean_fct_ms']:.2f}",
                f"{stats['short_p95_fct_ms']:.1f}",
                stats["flows"],
                "static" if final is None else (
                    f"eps={final['epsilon']:g} th={tuple(final['thresholds'])}"
                ),
            ]
        )
    table = format_table(
        ["configuration", "p95 FCT ms", "mean FCT ms", "short p95 ms",
         "flows", "final params"],
        rows,
        title=(
            "RIC closed loop -- static vs adaptive under non-stationary "
            f"load ({RIC_UES} UEs, calm->burst->settle, "
            f"{REPORT_PERIOD_US // 1000} ms reporting)"
        ),
    )
    return record(
        "ric_adaptive",
        table,
        {
            "runs": runs,
            "adaptive_vs_static_default_pct": improvement_pct(
                runs["static default"]["p95_fct_ms"],
                runs["adaptive from default"]["p95_fct_ms"],
            ),
            "adaptive_vs_static_bad_pct": improvement_pct(
                runs["static bad ladder"]["p95_fct_ms"],
                runs["adaptive from bad ladder"]["p95_fct_ms"],
            ),
        },
    )


@pytest.mark.benchmark(group="ric")
def test_ric_adaptive(benchmark):
    print("\n" + once(benchmark, run_ric_adaptive))
