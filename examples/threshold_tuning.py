#!/usr/bin/env python3
"""Tune the MLFQ demotion thresholds for a traffic mix (PIAS-style).

Section 4.2: the paper derives OutRAN's MLFQ thresholds by solving the
PIAS optimization with SciPy's global optimization toolbox.  This
example does the same for the LTE-cellular workload, compares the
optimized ladder against a geometric default in the analytical mean-FCT
model, and then validates the winner in a short packet-level simulation.

Run:  python examples/threshold_tuning.py
"""

import numpy as np

from repro import SimConfig, SimulationSession
from repro.core.mlfq import MlfqConfig
from repro.core.thresholds import (
    geometric_thresholds,
    mean_fct_model,
    optimize_thresholds,
)
from repro.traffic.distributions import LTE_CELLULAR

LOAD = 0.9


def main() -> None:
    rng = np.random.default_rng(0)
    sizes = LTE_CELLULAR.sample(rng, 20_000)

    geometric = geometric_thresholds(20_000, 5.0, num_queues=4)
    print("optimizing thresholds with scipy.optimize.differential_evolution ...")
    optimized = optimize_thresholds(sizes, num_queues=4, load=LOAD, maxiter=40)

    print(f"\n{'ladder':<12} {'thresholds (KB)':<28} analytic mean FCT (norm.)")
    base = mean_fct_model((), sizes.astype(float), LOAD)
    for name, thresholds in (("geometric", geometric), ("optimized", optimized)):
        model = mean_fct_model(thresholds, sizes.astype(float), LOAD)
        kb = "/".join(f"{t / 1e3:.0f}" for t in thresholds)
        print(f"{name:<12} {kb:<28} {model / base:.3f}  (FIFO = 1.000)")

    print("\nvalidating in the packet-level simulator (short-flow avg FCT):")
    for name, thresholds in (("geometric", geometric), ("optimized", optimized)):
        config = SimConfig.lte_default(
            num_ues=30, load=LOAD, seed=5,
            mlfq=MlfqConfig(num_queues=4, thresholds=tuple(thresholds)),
        )
        result = SimulationSession.from_config(
            config, "outran", duration_s=6.0
        ).start().finish()
        print(f"  {name:<12} {result.avg_fct_ms('S'):6.1f} ms")


if __name__ == "__main__":
    main()
