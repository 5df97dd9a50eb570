#!/usr/bin/env python3
"""Compare the whole scheduler zoo on one congested LTE cell.

Runs PF, MT, RR, the clairvoyant SRJF, the QoS oracles (PSS, CQA),
strict MLFQ, and OutRAN on an identical workload and prints the
trade-off every row of the paper's evaluation revolves around: short
and long flow completion times vs spectral efficiency vs user fairness.

Run:  python examples/scheduler_comparison.py
"""

from repro import SimConfig, SimulationSession
from repro.analysis.tables import format_table

SCHEDULERS = (
    "pf", "mt", "rr", "bet", "srjf", "pss", "cqa", "mlwdf", "exppf",
    "mlfq_strict", "outran",
)


def main() -> None:
    rows = []
    for scheduler in SCHEDULERS:
        config = SimConfig.lte_default(num_ues=40, load=0.9, seed=21)
        result = SimulationSession.from_config(
            config, scheduler, duration_s=8.0
        ).start().finish()
        rows.append(
            [
                scheduler,
                f"{result.avg_fct_ms('S'):.1f}",
                f"{result.pctl_fct_ms(95, 'S'):.0f}",
                f"{result.avg_fct_ms('L'):.0f}",
                f"{result.mean_se():.2f}",
                f"{result.mean_fairness():.3f}",
            ]
        )
    print(
        format_table(
            ["scheduler", "S avg ms", "S p95 ms", "L avg ms", "SE", "fairness"],
            rows,
            title="Scheduler comparison, 40 UEs, load 0.9 "
            "(S = flows <= 10 KB, L = flows > 100 KB)",
        )
    )
    print(
        "\nReading guide: SRJF/PSS/CQA need oracle knowledge; OutRAN should\n"
        "approach their short-flow FCT while keeping SE and fairness at the\n"
        "PF level -- the co-optimization the paper is about."
    )


if __name__ == "__main__":
    main()
