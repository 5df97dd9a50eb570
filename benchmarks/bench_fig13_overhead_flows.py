"""Figure 13: xNodeB overhead vs the number of active flows.

The paper's traffic-surge experiment: 1k..8k active flows ingress the
base station; OutRAN's extra work (header inspection + flow-table
update, ~150 ns per PDCP SDU in the paper) must not dent processing
throughput.  Regenerated as micro-benchmarks of the per-packet ingress
path and the flow-table memory footprint, plus the achieved saturated
DL throughput with and without OutRAN.  What OutRAN's extra pass costs
end to end is ``core.*_self_s`` in ``benchmarks/perf``.
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.flow_table import FlowTable
from repro.core.mlfq import MlfqConfig
from repro.net.packet import FiveTuple

from _harness import once, record, run_lte

FLOW_COUNTS = (1_000, 2_000, 4_000, 8_000)
PACKETS_PER_MEASURE = 200_000


def _ingress_ns_per_packet(num_flows: int) -> tuple[float, int]:
    """Time the PDCP flow-identification hot path over num_flows flows."""
    table = FlowTable(MlfqConfig())
    tuples = [FiveTuple(1, 2, 443, 10_000 + i) for i in range(num_flows)]
    for ft in tuples:  # populate
        table.observe(ft, 1400, 0)
    rng = np.random.default_rng(0)
    order = rng.integers(0, num_flows, size=PACKETS_PER_MEASURE)
    start = time.perf_counter()
    for i in order:
        table.observe(tuples[i], 1400, 0)
    elapsed = time.perf_counter() - start
    return elapsed / PACKETS_PER_MEASURE * 1e9, table.state_bytes()


def run_fig13() -> str:
    rows = []
    for num_flows in FLOW_COUNTS:
        ns_per_packet, state_bytes = _ingress_ns_per_packet(num_flows)
        rows.append(
            [
                num_flows,
                f"{ns_per_packet:.0f}",
                f"{state_bytes / 1e3:.0f}",
            ]
        )
    micro = format_table(
        ["active flows", "ingress ns/SDU", "flow-table KB"],
        rows,
        title="Figure 13a -- OutRAN per-SDU overhead vs active flows "
        "(paper: ~150 ns/SDU, 41 B/flow; flat in flow count)",
    )
    # Saturated throughput: OutRAN must match the vanilla scheduler.
    pf = run_lte("pf", load=2.0, duration_s=4.0, num_ues=30)
    outran = run_lte("outran", load=2.0, duration_s=4.0, num_ues=30)
    thr = format_table(
        ["scheduler", "saturated DL Mbps"],
        [
            ["srsRAN (PF)", f"{_mbps(pf):.1f}"],
            ["OutRAN", f"{_mbps(outran):.1f}"],
        ],
        title="Figure 13b -- peak DL throughput unaffected "
        "(paper: <= 2.73% gap from theoretical max)",
    )
    return record("fig13_overhead_flows", micro + "\n\n" + thr)


def _mbps(result) -> float:
    return result._c.total_bits / result.duration_s / 1e6


@pytest.mark.benchmark(group="fig13")
def test_fig13_overhead_flows(benchmark):
    print("\n" + once(benchmark, run_fig13))
