"""Figure 8: sensitivity of OutRAN to the relaxation threshold epsilon.

Sweeps eps from 0 to 1 over the PF legacy scheduler and reports the
(spectral efficiency, fairness) operating point plus short-flow FCT.
Paper: for eps < 0.4 OutRAN stays near the PF point; larger eps drifts
away; eps = 0.2 is the chosen balance.  A top-K variant (the candidate
rule the paper argues against in section 4.3) is included as an
ablation -- it cannot condense under heterogeneous channels, so it pays
more SE/fairness for the same room.
"""

import pytest

from repro.analysis.tables import format_table
from repro.core.outran import OutranScheduler
from repro.mac.pf import ProportionalFairScheduler
from repro import SimConfig, SimulationSession

from _harness import LTE_DURATION_S, LTE_UES, DEFAULT_SEED, once, record, run_lte

LOAD = 0.9
EPSILONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def run_fig08() -> str:
    pf = run_lte("pf", load=LOAD)
    rows = [
        ["PF (baseline)", f"{pf.mean_se():.3f}", f"{pf.mean_fairness():.3f}",
         f"{pf.avg_fct_ms('S'):.1f}"]
    ]
    for eps in EPSILONS:
        res = run_lte(f"outran:{eps}", load=LOAD)
        rows.append(
            [f"eps={eps}", f"{res.mean_se():.3f}", f"{res.mean_fairness():.3f}",
             f"{res.avg_fct_ms('S'):.1f}"]
        )
    # Top-K ablation: always grant a K-user room regardless of metric gaps.
    for k in (2, 4):
        cfg = SimConfig.lte_default(num_ues=LTE_UES, load=LOAD, seed=DEFAULT_SEED)
        sched = OutranScheduler(ProportionalFairScheduler(), top_k=k)
        res = SimulationSession.from_config(
            cfg, sched, duration_s=LTE_DURATION_S
        ).start().finish()
        rows.append(
            [f"top-{k} (ablation)", f"{res.mean_se():.3f}",
             f"{res.mean_fairness():.3f}", f"{res.avg_fct_ms('S'):.1f}"]
        )
    table = format_table(
        ["configuration", "SE bit/s/Hz", "fairness", "S avg ms"],
        rows,
        title="Figure 8 -- epsilon sensitivity over PF "
        f"(load {LOAD}; paper: steady for eps < 0.4, eps = 0.2 chosen)",
    )
    return record("fig08_epsilon_sensitivity", table)


@pytest.mark.benchmark(group="fig08")
def test_fig08_epsilon_sensitivity(benchmark):
    print("\n" + once(benchmark, run_fig08))
