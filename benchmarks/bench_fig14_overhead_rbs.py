"""Figure 14: scheduler scalability vs the number of resource blocks.

OutRAN's inter-user pass adds one extra iteration over users per RB and
must stay O(|U||B|) (section 4.3).  Regenerated as the per-TTI
allocation wall time of PF vs OutRAN for 25..100 RBs, plus the saturated
throughput attained at each grid size (tracking the theoretical max).
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.outran import OutranScheduler
from repro.mac.bsr import BufferStatusReport
from repro.mac.kernels import as_table
from repro.mac.pf import ProportionalFairScheduler
from repro.mac.scheduler import UeSchedState

from _harness import once, record, run_lte

RB_COUNTS = (25, 50, 75, 100)
NUM_UES = 20
TTIS = 2_000


def _make_state(num_rbs: int):
    rng = np.random.default_rng(0)
    ues = []
    for i in range(NUM_UES):
        ue = UeSchedState(i, i)
        ue.ewma_bps = float(rng.uniform(1e5, 1e7))
        ue.bsr = BufferStatusReport(
            ue_id=i, total_bytes=10_000, head_level=int(rng.integers(0, 4))
        )
        ues.append(ue)
    rates = rng.uniform(100, 1000, size=(NUM_UES, num_rbs))
    return ues, rates


def _alloc_us_per_tti(scheduler, num_rbs: int) -> float:
    ues, rates = _make_state(num_rbs)
    table = as_table(ues)  # what the xNodeB hands the scheduler
    start = time.perf_counter()
    for t in range(TTIS):
        scheduler.allocate(rates, table, t * 1000)
    return (time.perf_counter() - start) / TTIS * 1e6


def run_fig14() -> str:
    rows = []
    for num_rbs in RB_COUNTS:
        pf_us = _alloc_us_per_tti(ProportionalFairScheduler(), num_rbs)
        outran_us = _alloc_us_per_tti(OutranScheduler(), num_rbs)
        rows.append(
            [num_rbs, f"{pf_us:.1f}", f"{outran_us:.1f}",
             f"{(outran_us / pf_us - 1) * 100:+.0f}%"]
        )
    micro = format_table(
        ["RBs", "PF us/TTI", "OutRAN us/TTI", "extra"],
        rows,
        title="Figure 14b -- per-TTI allocation time vs #RBs "
        f"({NUM_UES} active UEs; both O(|U||B|))",
    )
    thr_rows = []
    for bw, rbs in ((5.0, 25), (10.0, 50), (15.0, 75), (20.0, 100)):
        res = run_lte(
            "outran", load=2.0, duration_s=3.0, num_ues=20, bandwidth_mhz=bw
        )
        thr_rows.append(
            [rbs, f"{res._c.total_bits / res.duration_s / 1e6:.1f}"]
        )
    thr = format_table(
        ["RBs", "OutRAN saturated DL Mbps"],
        thr_rows,
        title="Figure 14a -- throughput scales with the grid "
        "(no scheduler bottleneck)",
    )
    return record("fig14_overhead_rbs", micro + "\n\n" + thr)


@pytest.mark.benchmark(group="fig14")
def test_fig14_overhead_rbs(benchmark):
    print("\n" + once(benchmark, run_fig14))
