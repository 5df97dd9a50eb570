"""Figure 2: downlink flow-size distribution and SINR distribution.

Regenerates (a) the flow-size CDF of the LTE-cellular workload with the
paper's anchor (90% of flows < 35.9 KB) and (b) the per-UE channel
quality (SINR) distribution of the simulated cell, spanning the paper's
medium / good / excellent bands.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.runner.spec import RunSpec
from repro.traffic.distributions import LTE_CELLULAR, MIRAGE_MOBILE_APP

from _harness import once, record


def run_fig02() -> str:
    rng = np.random.default_rng(0)
    rows = []
    for dist in (LTE_CELLULAR, MIRAGE_MOBILE_APP):
        samples = dist.sample(rng, 100_000)
        rows.append(
            [
                dist.name,
                f"{np.median(samples) / 1e3:.1f}",
                f"{np.percentile(samples, 90) / 1e3:.1f}",
                f"{np.percentile(samples, 99) / 1e3:.0f}",
                f"{samples.mean() / 1e3:.0f}",
                f"{np.mean(samples < 35_900) * 100:.1f}%",
            ]
        )
    dist_table = format_table(
        ["distribution", "p50 KB", "p90 KB", "p99 KB", "mean KB", "<35.9KB"],
        rows,
        title="Figure 2a -- flow size distributions (paper: 90% < 35.9 KB)",
    )
    sim = RunSpec("lte", "pf", seed=7, num_ues=100).session().sim
    sinrs = np.array([ue.channel.mean_sinr_db() for ue in sim.ues])
    bands = [
        ("medium (<20 dB)", np.mean(sinrs < 20)),
        ("good (20-35 dB)", np.mean((sinrs >= 20) & (sinrs < 35))),
        ("excellent (>=35 dB)", np.mean(sinrs >= 35)),
    ]
    sinr_table = format_table(
        ["band", "fraction of UEs"],
        [[name, f"{frac * 100:.0f}%"] for name, frac in bands],
        title=(
            "Figure 2b -- UE SINR distribution "
            f"(min {sinrs.min():.1f} dB, max {sinrs.max():.1f} dB)"
        ),
    )
    return record("fig02_distributions", dist_table + "\n\n" + sinr_table)


@pytest.mark.benchmark(group="fig02")
def test_fig02_distributions(benchmark):
    print("\n" + once(benchmark, run_fig02))
