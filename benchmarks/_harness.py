"""Shared machinery for the figure-regeneration benchmarks.

Every benchmark module regenerates one table or figure of the paper:
it runs the relevant simulations, prints the same rows/series the paper
reports, and saves the text under ``benchmarks/results/`` (consumed by
EXPERIMENTS.md).

Scale: by default the benchmarks run in *quick* mode (fewer UEs, shorter
runs) so the whole suite finishes in tens of minutes.  Set
``REPRO_BENCH_FULL=1`` for paper-scale runs.  The CI smoke job shrinks
further via ``REPRO_BENCH_LTE_UES`` / ``REPRO_BENCH_LTE_DURATION`` (and
the ``NR`` twins).

Results are cached in the persistent, content-hash-keyed
:class:`~repro.runner.store.ResultStore` under
``benchmarks/results/.store/`` (relocate with ``REPRO_BENCH_STORE=path``,
disable with ``REPRO_BENCH_STORE=0``), so figures that share a sweep --
e.g. Figure 15 and Figure 16 -- reuse runs within and *across* processes
and interrupted suites resume from the last completed run.

Parallelism: ``REPRO_BENCH_JOBS=N`` makes the ``prefetch_*`` helpers
(called by the sweep-heavy figures) execute their grid through
:class:`~repro.runner.pool.SweepRunner` on N worker processes.  Seeds are
explicit, so parallel and serial runs produce byte-identical figure text.

Every in-process run is instrumented with the shared telemetry registry
and phase profiler; ``record()`` writes a ``<name>.<mode>.telemetry.json``
next to each figure's text output (telemetry never changes simulation
results -- the test suite asserts this; prefetched runs execute
uninstrumented in workers and contribute no counters).

The overhead figures additionally feed ``record_bench()`` /
``measure_overhead()``, which maintain the tracked perf trajectory in
``BENCH_overhead.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.runner import ResultStore, RunSpec, SweepRunner
from repro.sim.metrics import SimResult
from repro.telemetry import Profiler, TelemetryRegistry, snapshot_to_json

QUICK = os.environ.get("REPRO_BENCH_FULL", "0") != "1"

RESULTS_DIR = Path(__file__).parent / "results"

#: Tracked perf trajectory.  The overhead benchmarks (fig13/fig14) merge
#: their wall-clock/TTI-rate/profile numbers into this one JSON at the
#: repo root, so each commit's diff shows how the numbers moved.
BENCH_PATH = Path(__file__).parent.parent / "BENCH_overhead.json"

#: Default seeds/durations per mode (env overrides exist so CI smoke
#: sweeps can run a real figure at toy scale).
LTE_UES = int(os.environ.get("REPRO_BENCH_LTE_UES", 60 if QUICK else 100))
LTE_DURATION_S = float(
    os.environ.get("REPRO_BENCH_LTE_DURATION", 10.0 if QUICK else 25.0)
)
NR_UES = int(os.environ.get("REPRO_BENCH_NR_UES", 16 if QUICK else 40))
NR_DURATION_S = float(
    os.environ.get("REPRO_BENCH_NR_DURATION", 4.0 if QUICK else 12.0)
)
DEFAULT_SEED = 42

#: Worker processes used by the prefetch helpers (1 = serial, unchanged).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def _make_store() -> Optional[ResultStore]:
    configured = os.environ.get("REPRO_BENCH_STORE")
    if configured is None:
        return ResultStore(RESULTS_DIR / ".store")
    if configured in ("", "0"):
        return None
    return ResultStore(configured)


#: Persistent cross-process result store (None when disabled).
STORE = _make_store()

#: Shared across every harness run so the suite's telemetry pools.
TELEMETRY = TelemetryRegistry()
PROFILER = Profiler()


def scale(quick_value, full_value):
    """Pick a parameter by benchmark mode."""
    return quick_value if QUICK else full_value


def _lte_spec(
    scheduler: str,
    load: float,
    num_ues: Optional[int],
    duration_s: Optional[float],
    seed: int,
    overrides: dict,
) -> RunSpec:
    return RunSpec(
        rat="lte",
        scheduler=scheduler,
        load=load,
        seed=seed,
        num_ues=num_ues if num_ues is not None else LTE_UES,
        duration_s=duration_s if duration_s is not None else LTE_DURATION_S,
        overrides=overrides,
    )


def _nr_spec(
    scheduler: str,
    mu: int,
    load: float,
    mec: bool,
    num_ues: Optional[int],
    duration_s: Optional[float],
    seed: int,
    overrides: dict,
) -> RunSpec:
    return RunSpec(
        rat="nr",
        scheduler=scheduler,
        load=load,
        seed=seed,
        num_ues=num_ues if num_ues is not None else NR_UES,
        duration_s=duration_s if duration_s is not None else NR_DURATION_S,
        mu=mu,
        mec=mec,
        overrides=overrides,
    )


def _fetch_or_run(spec: RunSpec) -> SimResult:
    """Serve one spec from the store, else run it in-process (instrumented
    with the suite telemetry) and persist the result."""
    key = spec.key()
    result = STORE.get(key) if STORE is not None else None
    if result is None:
        session = spec.session(telemetry=TELEMETRY, profiler=PROFILER)
        result = session.start().finish()
        if STORE is not None:
            STORE.put(key, result)
    return result


def run_lte(
    scheduler: str,
    load: float = 0.6,
    num_ues: Optional[int] = None,
    duration_s: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    **overrides,
) -> SimResult:
    """Run (or fetch from the store) one LTE cell simulation."""
    return _fetch_or_run(
        _lte_spec(scheduler, load, num_ues, duration_s, seed, overrides)
    )


def run_nr(
    scheduler: str,
    mu: int = 1,
    load: float = 0.6,
    mec: bool = False,
    num_ues: Optional[int] = None,
    duration_s: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    **overrides,
) -> SimResult:
    """Run (or fetch from the store) one 5G NR cell simulation."""
    return _fetch_or_run(
        _nr_spec(scheduler, mu, load, mec, num_ues, duration_s, seed, overrides)
    )


def prefetch(specs: Sequence[RunSpec]) -> None:
    """Execute a sweep grid up-front into the store when ``JOBS`` > 1.

    With ``JOBS=1`` (or the store disabled) this is a no-op: runs happen
    lazily exactly as they always have.  With more jobs the grid executes
    across worker processes, each persisting its result; any quarantined
    run is reported but not raised, so the figure simulates it inline.
    """
    if JOBS <= 1 or STORE is None or not specs:
        return
    runner = SweepRunner(
        jobs=JOBS,
        store=STORE,
        telemetry=TELEMETRY,
        progress=sys.stderr,
        progress_period_s=30.0,
    )
    for failure in runner.execute(specs).failures.values():
        print(f"[harness] prefetch failure, will retry inline: {failure}",
              file=sys.stderr)


def prefetch_lte(
    schedulers: Sequence[str],
    loads: Sequence[float],
    num_ues: Optional[int] = None,
    duration_s: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    **overrides,
) -> None:
    """Prefetch the scheduler x load LTE grid used by the cell-scale figures."""
    prefetch(
        [
            _lte_spec(sched, load, num_ues, duration_s, seed, overrides)
            for sched in schedulers
            for load in loads
        ]
    )


def prefetch_nr(
    schedulers: Sequence[str],
    loads: Sequence[float],
    mus: Sequence[int] = (1,),
    mecs: Sequence[bool] = (False,),
    num_ues: Optional[int] = None,
    duration_s: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    **overrides,
) -> None:
    """Prefetch the scheduler x load x numerology x placement NR grid."""
    prefetch(
        [
            _nr_spec(sched, mu, load, mec, num_ues, duration_s, seed, overrides)
            for sched in schedulers
            for load in loads
            for mu in mus
            for mec in mecs
        ]
    )


def record(name: str, text: str) -> str:
    """Save a rendered figure table under results/ and return it.

    Also dumps the telemetry accumulated so far (counters pooled across
    every harness run this process has done, plus the phase-profile) as
    ``<name>.<mode>.telemetry.json`` next to the text output.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "quick" if QUICK else "full"
    (RESULTS_DIR / f"{name}.{mode}.txt").write_text(text + "\n")
    snapshot = TELEMETRY.snapshot()
    snapshot["profile"] = PROFILER.report()
    snapshot_to_json(snapshot, RESULTS_DIR / f"{name}.{mode}.telemetry.json")
    return text


#: Timing repetitions for the tracked perf numbers.  Single-shot wall
#: clocks on runs this short are noise-dominated (overhead percentages
#: came out *negative* in past trajectory entries); every recorded
#: number is now the median of >= 5 repetitions with the spread stored
#: alongside it.
BENCH_REPS = max(5, int(os.environ.get("REPRO_BENCH_REPS", "5")))


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _spread_pct(values: Sequence[float]) -> float:
    """Full spread (max-min) relative to the median, in percent."""
    med = _median(values)
    if not med or med != med:
        return float("nan")
    return (max(values) - min(values)) / med * 100.0


def measure_overhead(
    scheduler: str,
    load: float = 2.0,
    num_ues: int = 20,
    duration_s: float = 2.0,
    seed: int = DEFAULT_SEED,
    flow_trace: bool = False,
    reps: Optional[int] = None,
    **overrides,
) -> dict:
    """Time *uncached* LTE runs end-to-end for the perf trajectory.

    Deliberately bypasses the store and uses a private profiler
    per repetition: a cached result has no wall clock to measure, and
    the shared ``PROFILER`` pools phase time across every figure in the
    suite.  Runs ``reps`` (default :data:`BENCH_REPS`, >= 5) identical
    repetitions and reports the median wall clock with its spread, so
    the tracked overhead percentages compare medians instead of two
    noise samples.  Returns the wall seconds, simulated TTIs and events
    per wall second, and the per-phase profile split of the median
    repetition -- the numbers :func:`record_bench` tracks in
    ``BENCH_overhead.json``.
    """
    spec = _lte_spec(scheduler, load, num_ues, duration_s, seed, overrides)
    reps = BENCH_REPS if reps is None else max(1, reps)
    walls = []
    samples = []
    for _ in range(reps):
        profiler = Profiler()
        session = spec.session(
            telemetry=TELEMETRY, profiler=profiler, flow_trace=flow_trace
        )
        start = time.perf_counter()
        result = session.start().finish()
        wall_s = time.perf_counter() - start
        walls.append(wall_s)
        samples.append((wall_s, result, profiler))
    # Report the repetition whose wall clock is closest to the median,
    # so the per-phase split is a real, self-consistent measurement.
    wall_med = _median(walls)
    wall_s, result, profiler = min(
        samples, key=lambda s: abs(s[0] - wall_med)
    )
    ttis = int(result.extra["ttis"])
    events = int(result.extra["events"])
    report = profiler.report()
    return {
        "scheduler": scheduler,
        "num_ues": num_ues,
        "duration_s": duration_s,
        "flow_trace": flow_trace,
        "flows_completed": len(result._c.records),
        "wall_s": wall_s,
        "wall_reps": reps,
        "wall_spread_pct": _spread_pct(walls),
        "ttis": ttis,
        "ttis_per_s": ttis / wall_s if wall_s else float("nan"),
        "events_per_s": events / wall_s if wall_s else float("nan"),
        "profile_s": {
            name: phase["seconds"]
            for name, phase in report["phases"].items()
        },
        "profile_other_s": report["other_s"],
    }


def record_bench(name: str, payload: dict) -> dict:
    """Merge one named entry into ``BENCH_overhead.json`` at the repo root.

    The file is the tracked perf trajectory: each overhead benchmark
    overwrites only its own entry, so a run of one figure never clobbers
    the other's numbers and successive commits diff as that benchmark's
    movement.
    """
    doc = {"schema": 1, "mode": "quick" if QUICK else "full", "entries": {}}
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
            if isinstance(previous.get("entries"), dict):
                doc["entries"] = previous["entries"]
        except ValueError:
            pass  # corrupt trajectory file: start a fresh one
    doc["entries"][name] = payload
    BENCH_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return payload


def once(benchmark, fn):
    """Run a figure-regeneration once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def improvement_pct(baseline: float, value: float) -> float:
    """Relative improvement of ``value`` over ``baseline`` in percent."""
    if baseline == 0 or baseline != baseline:
        return float("nan")
    return (baseline - value) / baseline * 100.0
