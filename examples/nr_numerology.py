#!/usr/bin/env python3
"""5G NR numerologies and edge placement: the Figure 17 story in small.

Shows how the slot length (numerology) and the server placement (remote
vs MEC) change the end-to-end RTT, and how OutRAN keeps the short-flow
tail in check once the cell is loaded.

Run:  python examples/nr_numerology.py
"""

from repro import SimConfig, SimulationSession
from repro.analysis.tables import format_table


def main() -> None:
    rows = []
    for mec in (False, True):
        for mu in (0, 1, 3):
            for scheduler in ("pf", "outran"):
                config = SimConfig.nr_default(
                    mu=mu, num_ues=12, load=0.8, seed=3, mec=mec
                )
                result = SimulationSession.from_config(
                    config, scheduler, duration_s=4.0
                ).start().finish()
                rows.append(
                    [
                        "MEC" if mec else "remote",
                        f"mu={mu} ({config.tti_us} us slots)",
                        scheduler,
                        f"{result.mean_rtt_ms():.0f}",
                        f"{result.queue_delay_ms('S'):.1f}",
                        f"{result.pctl_fct_ms(95, 'S'):.0f}",
                    ]
                )
    print(
        format_table(
            ["server", "numerology", "scheduler", "RTT ms", "S queue ms", "S p95 ms"],
            rows,
            title="5G NR at load 0.8: lower slots and edge servers cut RTT, "
            "OutRAN cuts the queueing that remains",
        )
    )


if __name__ == "__main__":
    main()
