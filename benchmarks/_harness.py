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

Inline and prefetched runs are the same uninstrumented session, so a
store entry is the same bytes whichever process wrote it.  Host time is
not measured here: that is ``benchmarks/perf`` (see its README).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.runner.pool import SweepRunner
from repro.runner.spec import RunSpec
from repro.runner.store import ResultStore
from repro.sim.metrics import SimResult

QUICK = os.environ.get("REPRO_BENCH_FULL", "0") != "1"

RESULTS_DIR = Path(__file__).parent / "results"

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
    """Serve one spec from the store, else run it in-process and persist
    the result."""
    key = spec.key()
    result = STORE.get(key) if STORE is not None else None
    if result is None:
        result = spec.session().start().finish()
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


def record(name: str, text: str, data: Optional[dict] = None) -> str:
    """Save a rendered figure table under results/ and return it.

    ``data`` (the figure's simulated numbers, exact per seed) is written
    as ``<name>.<mode>.json`` next to the text.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "quick" if QUICK else "full"
    (RESULTS_DIR / f"{name}.{mode}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.{mode}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
    return text


def once(benchmark, fn):
    """Run a figure-regeneration once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def improvement_pct(baseline: float, value: float) -> float:
    """Relative improvement of ``value`` over ``baseline`` in percent."""
    if baseline == 0 or baseline != baseline:
        return float("nan")
    return (baseline - value) / baseline * 100.0
