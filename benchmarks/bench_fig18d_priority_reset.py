"""Figure 18d: the priority-reset safeguard under an incast workload.

Worst case for MLFQ (section 6.3): synchronized 8 KB shorts take 10% of
the volume at 80-90% load, continually preempting long flows.  Sweeping
the reset period S: no reset gives the best short FCT but the worst
long-flow FCT; shortening S pushes long flows back toward PF while
keeping most of the short-flow gain (paper: S = 500 ms keeps long flows
at PF level and still improves short average by ~30%).
"""

import pytest

from repro.analysis.tables import format_table
from repro.sim.config import TrafficSpec
from repro import SimConfig, SimulationSession

from _harness import DEFAULT_SEED, LTE_DURATION_S, LTE_UES, once, record, scale

LOAD = 0.9
RESET_PERIODS_S = scale((None, 10.0, 0.5, 0.1), (None, 100.0, 10.0, 1.0, 0.5, 0.2, 0.1))


def _run(scheduler, reset_period_s):
    cfg = SimConfig.lte_default(
        num_ues=LTE_UES,
        seed=DEFAULT_SEED,
        priority_reset_period_us=(
            None if reset_period_s is None else int(reset_period_s * 1e6)
        ),
    ).with_overrides(
        traffic=TrafficSpec(
            distribution="lte_cellular",
            load=LOAD,
            kind="incast",
            incast_short_bytes=8_000,
            incast_short_fraction=0.1,
            incast_burst_flows=8,
        )
    )
    return SimulationSession.from_config(
        cfg, scheduler, duration_s=LTE_DURATION_S
    ).start().finish()


def run_fig18d() -> str:
    pf = _run("pf", None)
    base_short = pf.avg_fct_ms("S")
    base_long = pf.avg_fct_ms("L")
    rows = [["PF (baseline)", "1.00", "1.00"]]
    for period in RESET_PERIODS_S:
        res = _run("outran", period)
        label = "no reset" if period is None else f"S={period:g}s"
        rows.append(
            [
                f"OutRAN {label}",
                f"{res.avg_fct_ms('S') / base_short:.2f}",
                f"{res.avg_fct_ms('L') / base_long:.2f}",
            ]
        )
    table = format_table(
        ["configuration", "short FCT (norm.)", "long FCT (norm.)"],
        rows,
        title="Figure 18d -- priority reset period under incast "
        f"(load {LOAD}; normalized to PF)",
    )
    return record("fig18d_priority_reset", table)


@pytest.mark.benchmark(group="fig18d")
def test_fig18d_priority_reset(benchmark):
    print("\n" + once(benchmark, run_fig18d))
