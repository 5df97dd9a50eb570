#!/usr/bin/env python3
"""GBR bearer isolation alongside OutRAN (paper Table 1 / section 7).

Delay-critical traffic (VoLTE) rides a dedicated GBR bearer that the
operator provisions explicitly -- OutRAN only schedules the best-effort
remainder.  This example wraps the scheduler in a GBR reservation layer
and shows that (a) the guaranteed cell-edge bearer keeps its rate in an
overloaded cell and (b) the best-effort traffic still enjoys OutRAN's
short-flow gains.

Run:  python examples/gbr_isolation.py
"""

from repro import SimConfig, SimulationSession
from repro.core.outran import OutranScheduler
from repro.mac.gbr import GbrConfig, GbrReservingScheduler
from repro.mac.pf import ProportionalFairScheduler
from repro.traffic.generator import FlowSpec

GUARANTEE_BPS = 3e6
BEARER_FLOW = 77_000


def run(label, scheduler):
    cfg = SimConfig.lte_default(num_ues=10, load=1.1, seed=9)
    session = SimulationSession.from_config(
        cfg, scheduler, duration_s=6.0, drain_s=0.5
    )
    sim = session.sim
    bearer = FlowSpec(
        flow_id=BEARER_FLOW, ue_index=0, size_bytes=30_000_000, start_us=0
    )
    sim._provided_flows = sim._make_flows(6.0) + [bearer]
    res = session.start().finish()
    achieved = sim._runtimes[BEARER_FLOW].receiver.bytes_received * 8 / 6.0
    print(
        f"{label:<28} bearer {achieved / 1e6:5.2f} Mbps "
        f"(guarantee {GUARANTEE_BPS / 1e6:.0f})   "
        f"best-effort short FCT {res.avg_fct_ms('S'):6.1f} ms"
    )


def main() -> None:
    print("overloaded cell (load 1.1), one guaranteed bearer on UE 0:\n")
    run("PF, no reservation", ProportionalFairScheduler())
    run("OutRAN, no reservation", OutranScheduler())
    run(
        "OutRAN + GBR reservation",
        GbrReservingScheduler(
            OutranScheduler(), {0: GbrConfig(rate_bps=GUARANTEE_BPS)}
        ),
    )
    print(
        "\nThe reservation floors the bearer's service; OutRAN keeps\n"
        "improving the best-effort short flows around it (paper section 7)."
    )


if __name__ == "__main__":
    main()
