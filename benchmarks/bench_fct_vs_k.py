"""FCT vs ECN threshold K: DCTCP senders under the incast workload.

The cloud-dcn-ecn style sweep: DCTCP senders under the incast fan-in
workload against the RLC buffer's marking threshold (drop-tail baseline,
then K = 10 / 30 / 60 queued SDUs).  Records the short-flow FCT
percentiles and the marking volume per K in
``benchmarks/results/fct_vs_k.<mode>.json``; the expected qualitative
trend is that a sane K relieves the incast victim queue that drop-tail
lets fill, and that the trend reverses as K stops binding (K -> infinity
degenerates to drop-tail).

What the pluggable-CC layer and an idle marker cost in host time is
``cc.self_s`` / ``cc.aqm_calls`` in ``benchmarks/perf``; that an idle
marker changes no output byte is ``tests/test_cc.py``.

Run standalone (``python benchmarks/bench_fct_vs_k.py --quick``) or via
pytest-benchmark like every other figure script.  Full scale via
``REPRO_BENCH_FULL=1``.
"""

import pytest

from repro.analysis.tables import format_table
from repro.runner.spec import RunSpec

from _harness import once, record, scale

BENCH_UES = scale(6, 20)
BENCH_DURATION_S = scale(1.5, 5.0)
LOAD = 0.8
SEED = 42

#: The k10/k30/k60 marking-threshold axis; None = drop-tail baseline.
K_SWEEP = (None, 10, 30, 60)


def _run(k):
    """One sweep point: RED step marking at ``k`` queued SDUs (None = drop-tail)."""
    overrides = {"cc": "dctcp"}
    if k is not None:
        overrides.update(aqm="red", ecn_min_sdus=k, ecn_max_sdus=k)
    session = RunSpec(
        "lte", "outran", load=LOAD, seed=SEED, num_ues=BENCH_UES,
        duration_s=BENCH_DURATION_S, workload="incast", overrides=overrides,
    ).session()
    result = session.start().finish()
    marked = sum(getattr(ue.rlc, "sdus_marked", 0) for ue in session.sim.ues)
    return result, marked


def run_fct_vs_k() -> str:
    rows = []
    points = []
    for k in K_SWEEP:
        result, marked = _run(k)
        point = {
            "ecn_k": k,
            "aqm": "droptail" if k is None else "red",
            "short_avg_fct_ms": result.avg_fct_ms("S"),
            "short_p95_fct_ms": result.pctl_fct_ms(95, "S"),
            "overall_avg_fct_ms": result.avg_fct_ms(),
            "completed_flows": result.completed_flows,
            "sdus_dropped": result.sdus_dropped,
            "sdus_marked": marked,
        }
        points.append(point)
        rows.append([
            "droptail" if k is None else f"K={k}",
            f"{point['short_avg_fct_ms']:.1f}",
            f"{point['short_p95_fct_ms']:.1f}",
            f"{point['overall_avg_fct_ms']:.1f}",
            str(point["sdus_marked"]),
            str(point["sdus_dropped"]),
        ])
    table = format_table(
        ["threshold", "S avg ms", "S p95 ms", "avg ms", "marked", "dropped"],
        rows,
        title="Short-flow FCT vs ECN threshold K -- DCTCP senders, "
        "incast fan-in workload",
    )
    return record("fct_vs_k", table, {"points": points})


@pytest.mark.benchmark(group="cc")
def test_fct_vs_k(benchmark):
    print("\n" + once(benchmark, run_fct_vs_k))


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--quick", action="store_true",
        help="quick scale (the default unless REPRO_BENCH_FULL=1)",
    )
    cli.parse_args()
    print(run_fct_vs_k())
