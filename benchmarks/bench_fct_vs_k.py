"""FCT vs ECN threshold K, and the cost of the pluggable-CC layer.

Two tracked entries in ``BENCH_overhead.json``:

* ``fct_vs_k`` -- the cloud-dcn-ecn style sweep: DCTCP senders under the
  incast fan-in workload against the RLC buffer's marking threshold
  (drop-tail baseline, then K = 10 / 30 / 60 queued SDUs).  Records the
  short-flow FCT percentiles and the marking volume per K; the expected
  qualitative trend is that a sane K relieves the incast victim queue
  that drop-tail lets fill, and that the trend reverses as K stops
  binding (K -> infinity degenerates to drop-tail).

* ``cc_overhead`` -- the refactor toll-gate: the extracted
  ``CongestionControl`` delegation plus an attached-but-never-marking
  RED marker may not cost more than 2% wall time over the same run with
  drop-tail, and must stay byte-identical (fingerprint gate before any
  timing is recorded).  DCTCP and BBR walls ride along for context.

Run standalone (``python benchmarks/bench_fct_vs_k.py --quick``) or via
pytest-benchmark like every other figure script.  Full scale via
``REPRO_BENCH_FULL=1``.
"""

import time

import pytest

from repro.analysis.tables import format_table
from repro.runner import RunSpec
from repro.sim.session import result_fingerprint

from _harness import (
    BENCH_REPS,
    _median,
    _spread_pct,
    once,
    record,
    record_bench,
    scale,
)

BENCH_UES = scale(6, 20)
BENCH_DURATION_S = scale(1.5, 5.0)
LOAD = 0.8
SEED = 42

#: The k10/k30/k60 marking-threshold axis; None = drop-tail baseline.
K_SWEEP = (None, 10, 30, 60)


def _spec(workload="poisson", **overrides):
    return RunSpec(
        "lte", "outran", load=LOAD, seed=SEED, num_ues=BENCH_UES,
        duration_s=BENCH_DURATION_S, workload=workload, overrides=overrides,
    )


def _step_marking(k):
    """Overrides for RED step marking at ``k`` queued SDUs (None = drop-tail)."""
    return {} if k is None else dict(aqm="red", ecn_min_sdus=k, ecn_max_sdus=k)


def _run(spec):
    session = spec.session()
    result = session.start().finish()
    marked = sum(getattr(ue.rlc, "sdus_marked", 0) for ue in session.sim.ues)
    return result, marked


def run_fct_vs_k() -> str:
    rows = []
    points = []
    for k in K_SWEEP:
        result, marked = _run(_spec("incast", cc="dctcp", **_step_marking(k)))
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
    record_bench(
        "fct_vs_k",
        {
            "workload": {
                "kind": "incast", "cc": "dctcp", "scheduler": "outran",
                "load": LOAD, "num_ues": BENCH_UES,
                "duration_s": BENCH_DURATION_S, "seed": SEED,
            },
            "points": points,
        },
    )
    table = format_table(
        ["threshold", "S avg ms", "S p95 ms", "avg ms", "marked", "dropped"],
        rows,
        title="Short-flow FCT vs ECN threshold K -- DCTCP senders, "
        "incast fan-in workload",
    )
    return record("fct_vs_k", table)


def _time_run(spec) -> tuple[float, str]:
    session = spec.session()
    start = time.perf_counter()
    result = session.start().finish()
    return time.perf_counter() - start, result_fingerprint(result)


def run_cc_overhead() -> str:
    #: Idle RED: attached marker with an unreachable step threshold, so
    #: the whole AQM/ECN path executes without ever changing behaviour.
    variants = {
        "cubic/droptail": _spec(),
        "cubic/idle-red": _spec(**_step_marking(100_000)),
        "dctcp/droptail": _spec(cc="dctcp"),
        "bbr/droptail": _spec(cc="bbr"),
    }
    walls = {name: [] for name in variants}
    fingerprints = {name: set() for name in variants}
    for _ in range(BENCH_REPS):
        for name, spec in variants.items():
            wall, fp = _time_run(spec)
            walls[name].append(wall)
            fingerprints[name].add(fp)
    for name, fps in fingerprints.items():
        if len(fps) != 1:
            raise AssertionError(f"{name}: non-deterministic run: {sorted(fps)}")
    # Identity gate: an idle marker must not change a single output byte,
    # otherwise the overhead below compares different computations.
    if fingerprints["cubic/droptail"] != fingerprints["cubic/idle-red"]:
        raise AssertionError(
            "idle RED marker changed simulation output vs drop-tail"
        )
    baseline = _median(walls["cubic/droptail"])
    idle = _median(walls["cubic/idle-red"])
    overhead_pct = (idle / baseline - 1) * 100 if baseline else float("nan")
    record_bench(
        "cc_overhead",
        {
            "workload": {
                "scheduler": "outran", "load": LOAD, "num_ues": BENCH_UES,
                "duration_s": BENCH_DURATION_S, "seed": SEED,
            },
            "reps": BENCH_REPS,
            "cubic_droptail_wall_s": baseline,
            "cubic_droptail_spread_pct": _spread_pct(walls["cubic/droptail"]),
            "cubic_idle_red_wall_s": idle,
            "cubic_idle_red_spread_pct": _spread_pct(walls["cubic/idle-red"]),
            "dctcp_wall_s": _median(walls["dctcp/droptail"]),
            "bbr_wall_s": _median(walls["bbr/droptail"]),
            "ecn_off_overhead_pct": overhead_pct,
            "fingerprint": fingerprints["cubic/droptail"].pop(),
        },
    )
    table = format_table(
        ["variant", "median wall s", "spread %"],
        [
            [name, f"{_median(w):.3f}", f"{_spread_pct(w):.1f}"]
            for name, w in walls.items()
        ],
        title=f"Pluggable-CC overhead -- idle ECN path costs "
        f"{overhead_pct:+.2f}% wall vs drop-tail (budget: <= 2%), "
        "byte-identical output",
    )
    return record("cc_overhead", table)


@pytest.mark.benchmark(group="cc")
def test_fct_vs_k(benchmark):
    print("\n" + once(benchmark, run_fct_vs_k))


@pytest.mark.benchmark(group="cc")
def test_cc_overhead(benchmark):
    print("\n" + once(benchmark, run_cc_overhead))


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--quick", action="store_true",
        help="quick scale (the default unless REPRO_BENCH_FULL=1)",
    )
    cli.parse_args()
    print(run_fct_vs_k())
    print(run_cc_overhead())
