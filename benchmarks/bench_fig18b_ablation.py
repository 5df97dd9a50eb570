"""Figure 18b: ablation of OutRAN's two components across Tf.

For each fairness window (and MT as the large-Tf limit), compare the
average FCT of: the legacy scheduler alone, legacy + Intra-user Flow
Scheduler only (per-UE MLFQ, eps = 0), and full OutRAN (MLFQ + the
epsilon inter-user pass).  Values are normalized to the legacy
scheduler at the same Tf.

Shape targets (paper): with a small Tf most of the gain comes from the
intra-user scheduler; the inter-user pass contributes more as Tf grows
(11% extra at Tf = 10 s) and OutRAN always wins overall.
"""

import pytest

from repro.analysis.tables import format_table

from _harness import once, record, run_lte, scale

LOAD = 0.9
WINDOWS_S = scale((0.1, 1.0, 10.0), (0.01, 0.1, 1.0, 10.0, 100.0))


def run_fig18b() -> str:
    rows = []
    for tf in list(WINDOWS_S) + ["mt"]:
        if tf == "mt":
            legacy = run_lte("mt", load=LOAD)
            intra = run_lte("mt", load=LOAD, use_mlfq=True)
            # Full OutRAN over the MT metric.
            from repro.core.outran import OutranScheduler
            from repro.mac.pf import MaxThroughputScheduler
            from repro import SimConfig, SimulationSession
            from _harness import DEFAULT_SEED, LTE_DURATION_S, LTE_UES

            cfg = SimConfig.lte_default(num_ues=LTE_UES, load=LOAD, seed=DEFAULT_SEED)
            full = SimulationSession.from_config(
                cfg,
                OutranScheduler(MaxThroughputScheduler()),
                duration_s=LTE_DURATION_S,
            ).start().finish()
            label = "MT"
        else:
            legacy = run_lte("pf", load=LOAD, fairness_window_s=tf)
            intra = run_lte("pf", load=LOAD, fairness_window_s=tf, use_mlfq=True)
            full = run_lte("outran", load=LOAD, fairness_window_s=tf)
            label = f"Tf={tf:g}s"
        base = legacy.avg_fct_ms()
        rows.append(
            [
                label,
                "1.00",
                f"{intra.avg_fct_ms() / base:.2f}",
                f"{full.avg_fct_ms() / base:.2f}",
            ]
        )
    table = format_table(
        ["legacy config", "legacy", "+intra-user", "full OutRAN"],
        rows,
        title="Figure 18b -- normalized average FCT ablation "
        f"(load {LOAD}; lower is better)",
    )
    return record("fig18b_ablation", table)


@pytest.mark.benchmark(group="fig18b")
def test_fig18b_ablation(benchmark):
    print("\n" + once(benchmark, run_fig18b))
