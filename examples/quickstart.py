#!/usr/bin/env python3
"""Quickstart: run one LTE cell with OutRAN and compare it against PF.

This is the smallest end-to-end use of the library: build a cell
configuration, run the same Poisson workload under two schedulers, and
print the flow-completion-time summary each produces.

Run:  python examples/quickstart.py
"""

from repro import SimConfig, SimulationSession


def main() -> None:
    for scheduler in ("pf", "outran"):
        # 20 UEs, LTE 20 MHz, pedestrian channel, heavy-tailed LTE
        # traffic at 85% cell load.  The same seed means both schedulers
        # face the *identical* workload and channel realization.
        config = SimConfig.lte_default(num_ues=20, load=0.85, seed=7)
        session = SimulationSession.from_config(config, scheduler, duration_s=8.0)
        print(
            f"cell capacity estimate: {session.sim.capacity_bps() / 1e6:.1f} Mbps"
        )
        result = session.start().finish()
        print(result.fct_summary())
        print()


if __name__ == "__main__":
    main()
