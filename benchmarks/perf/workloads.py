"""The five benchmark workloads (names are the contract).

Every workload is a ``SimConfig`` plus a duration, run under the
``outran`` scheduler on the default execution path (no ``backend=``).
The recorded reason for each workload lives next to its name in
``BENCHMARK.json``; the README repeats it with the measured sizes.

The benchmark seed goes into ``SimConfig.seed`` and nowhere else
(``run.cell_seeds``: one run simulates several cells per workload).

Durations are about half of what the issue measured, because the
benchmark contract allows about 30 s per run (README, "Sizing").
``--scale`` multiplies the load phase; the 2 s drain is never scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.sim.config import SimConfig

SCHEDULER = "outran"
DRAIN_S = 2.0
#: served_session cadence: how `repro serve` drives a session.
SERVED_STEP_TTIS = 100
SERVED_CHECKPOINT_EVERY = 16


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], SimConfig]
    duration_s: float
    #: Driven as step/snapshot/checkpoint with a registry and a flow
    #: tracer attached (how `repro serve` runs a session), not start().finish().
    served: bool = False


def _incast_dctcp(seed: int) -> SimConfig:
    cfg = SimConfig.lte_default(
        num_ues=12, load=0.8, seed=seed,
        cc="dctcp", aqm="red", ecn_min_sdus=30, ecn_max_sdus=30,
    )
    return cfg.with_overrides(traffic=replace(cfg.traffic, kind="incast_fanin"))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "surge_10ue",
            lambda seed: SimConfig.lte_default(num_ues=10, load=2.0, seed=seed),
            duration_s=4.0,
        ),
        Workload(
            "wide_200ue",
            lambda seed: SimConfig.lte_default(num_ues=200, load=0.3, seed=seed),
            duration_s=4.0,
        ),
        Workload("incast_dctcp", _incast_dctcp, duration_s=8.0),
        Workload(
            "nr_am_lossy",
            lambda seed: SimConfig.nr_default(
                mu=1, num_ues=20, load=0.7, seed=seed,
                rlc_mode="am", radio_bler=0.1,
            ),
            duration_s=1.5,
        ),
        Workload(
            "served_session",
            lambda seed: SimConfig.lte_default(num_ues=20, load=0.8, seed=seed),
            duration_s=3.0,
            served=True,
        ),
    )
}
