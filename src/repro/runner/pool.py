"""Crash-tolerant parallel sweep execution over a process pool.

:class:`SweepRunner` takes a list of tasks (anything with a ``.key()``
-- normally :class:`~repro.runner.spec.RunSpec`), drops the ones already
in the result store, and shards the rest across a
``ProcessPoolExecutor``.  The failure model:

* a worker that **raises** fails only its own run; the run is retried
  with capped exponential backoff and quarantined after ``max_attempts``
  failures (recorded as a :class:`RunFailure`; the sweep always
  completes, it never deadlocks on a bad run);
* a worker that **dies** (SIGKILL, ``os._exit``, OOM) breaks the whole
  pool; a fresh pool is built and the in-flight runs re-queued.  A break
  with one run in flight is attributed to that run; with several, nobody
  can be blamed, so the affected runs become *suspects* and re-run one at
  a time until each completes (exonerated) or crashes alone (charged) --
  an innocent run never gets quarantined for sharing a pool with a
  crasher.  Runs that finished before the break keep their results, and
  anything a worker persisted to the store survives even a *parent*
  crash, which is what makes re-invoking an interrupted sweep resume
  from the last checkpoint;
* a worker that **hangs** past ``run_timeout_s`` is detected by the
  oldest in-flight deadline; the pool's processes are terminated and
  treated exactly like a pool break.

Determinism: tasks carry explicit seeds and workers are uninstrumented,
so the result set is a pure function of the task list -- serial
(``jobs=1``) and parallel execution produce identical results, and
figure text rendered from them is byte-identical.

Progress: the runner keeps its counts in :class:`SweepStats`
(``SweepOutcome.stats``) and emits a ``[heartbeat]``-style sweep-progress
line every ``progress_period_s`` wall seconds.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, TextIO, Union

from repro.sim.metrics import SimResult
from repro.runner.store import ResultStore, as_store
from repro.runner.worker import run_spec


@dataclass(frozen=True)
class RunFailure:
    """A run that exhausted its retry budget and was quarantined."""

    task: object
    attempts: int
    error: str

    def __str__(self) -> str:
        label = getattr(self.task, "label", None)
        name = label() if callable(label) else repr(self.task)
        return f"{name}: quarantined after {self.attempts} attempts ({self.error})"


@dataclass
class SweepStats:
    """Bookkeeping for one :meth:`SweepRunner.execute` call."""

    total: int = 0
    store_hits: int = 0
    executed: int = 0
    retries: int = 0
    pool_breaks: int = 0
    quarantined: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SweepOutcome:
    """Results keyed by task content hash, plus quarantined failures."""

    results: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    stats: SweepStats = field(default_factory=SweepStats)

    def get(self, task) -> Optional[SimResult]:
        return self.results.get(task.key())

    def in_order(self, tasks: Sequence) -> list:
        """Results aligned with ``tasks`` (``None`` for quarantined runs)."""
        return [self.results.get(task.key()) for task in tasks]

    def raise_on_failure(self) -> "SweepOutcome":
        if self.failures:
            lines = "\n  ".join(str(f) for f in self.failures.values())
            raise RuntimeError(f"{len(self.failures)} run(s) failed:\n  {lines}")
        return self


#: Ceiling of the retry backoff, seconds.
BACKOFF_CAP_S = 2.0


def backoff_delay(attempt: int, base_s: float, cap_s: float = BACKOFF_CAP_S) -> float:
    """Capped exponential backoff: ``base * 2**(attempt-1)``, clamped."""
    if attempt < 1:
        raise ValueError(f"attempt counts from 1: {attempt}")
    return min(cap_s, base_s * (2.0 ** (attempt - 1)))


def _pick_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


class SweepRunner:
    """Executes a task list with store read-through and crash tolerance."""

    def __init__(
        self,
        jobs: int = 1,
        store: Union[None, str, Path, ResultStore] = None,
        worker: Callable = run_spec,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        run_timeout_s: Optional[float] = None,
        progress: Union[None, TextIO, Callable[[str], None]] = None,
        progress_period_s: float = 10.0,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
        self.jobs = jobs
        self.store = as_store(store)
        self.worker = worker
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.run_timeout_s = run_timeout_s
        self._progress = progress
        self.progress_period_s = progress_period_s

    # -- public API -----------------------------------------------------------

    def execute(self, tasks: Sequence) -> SweepOutcome:
        """Run every task once; duplicates (same key) are collapsed."""
        started = time.monotonic()
        outcome = SweepOutcome()
        if self.store is not None:
            self.store.sweep_temp()  # what a killed worker left behind
        by_key: dict[str, object] = {}
        for task in tasks:
            by_key.setdefault(task.key(), task)
        outcome.stats.total = len(by_key)

        pending: list[str] = []
        for key, task in by_key.items():
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                outcome.results[key] = cached
                outcome.stats.store_hits += 1
            else:
                pending.append(key)

        if pending:
            if self.jobs == 1:
                self._execute_serial(pending, by_key, outcome)
            else:
                self._execute_parallel(pending, by_key, outcome)

        outcome.stats.elapsed_s = time.monotonic() - started
        self._emit_progress(outcome, in_flight=0, force=True)
        return outcome

    # -- serial path ----------------------------------------------------------

    def _execute_serial(self, pending, by_key, outcome) -> None:
        store_root = str(self.store.root) if self.store is not None else None
        for key in pending:
            task = by_key[key]
            attempt = 0
            while True:
                attempt += 1
                try:
                    got_key, result = self.worker(task, store_root)
                except Exception as exc:  # noqa: BLE001 -- worker faults are data
                    if not self._retry_or_quarantine(task, key, attempt, exc, outcome):
                        break
                    time.sleep(backoff_delay(attempt, self.backoff_base_s))
                else:
                    self._record_success(got_key, result, outcome)
                    break
            self._emit_progress(outcome, in_flight=0)

    # -- parallel path --------------------------------------------------------

    def _execute_parallel(self, pending, by_key, outcome) -> None:
        store_root = str(self.store.root) if self.store is not None else None
        ctx = _pick_context()
        executor = ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)
        ready: deque[str] = deque(pending)
        delayed: list[tuple[float, str]] = []  # (not-before monotonic, key)
        in_flight: dict[Future, str] = {}
        deadlines: dict[Future, float] = {}
        attempts: dict[str, int] = {key: 0 for key in pending}
        # Crash attribution: a pool break with several runs in flight does
        # not say *which* worker died, so nobody is charged an attempt --
        # the affected runs become suspects and re-run one at a time, where
        # a repeat crash is unambiguous.  This keeps an innocent run that
        # shared the pool with a crasher from being quarantined.
        suspects: set[str] = set()

        def submit(key: str) -> None:
            future = executor.submit(self.worker, by_key[key], store_root)
            in_flight[future] = key
            if self.run_timeout_s is not None:
                deadlines[future] = time.monotonic() + self.run_timeout_s

        def fail_attempt(key: str, error: Exception) -> None:
            attempts[key] += 1
            if self._retry_or_quarantine(
                by_key[key], key, attempts[key], error, outcome
            ):
                not_before = time.monotonic() + backoff_delay(
                    attempts[key], self.backoff_base_s
                )
                delayed.append((not_before, key))

        def rebuild_pool(reason: str) -> ProcessPoolExecutor:
            outcome.stats.pool_breaks += 1
            crashed = list(in_flight.values())
            in_flight.clear()
            deadlines.clear()
            if len(crashed) == 1:
                # Alone in the pool: the crash is unambiguously its fault.
                fail_attempt(crashed[0], RuntimeError(reason))
                suspects.discard(crashed[0])
            else:
                for key in reversed(crashed):
                    suspects.add(key)
                    ready.appendleft(key)
            executor.shutdown(wait=False, cancel_futures=True)
            return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)

        try:
            while ready or delayed or in_flight:
                now = time.monotonic()
                if delayed:
                    due = [k for t, k in delayed if t <= now]
                    delayed = [(t, k) for t, k in delayed if t > now]
                    ready.extend(due)
                if suspects:
                    # Serial probe mode: one run in flight until every
                    # suspect has either completed (exonerated) or crashed
                    # alone (charged).
                    if not in_flight and ready:
                        submit(ready.popleft())
                else:
                    while ready and len(in_flight) < self.jobs * 2:
                        submit(ready.popleft())
                if not in_flight:
                    # Everything outstanding is backing off; sleep to the
                    # earliest retry time.
                    time.sleep(max(0.0, min(t for t, _ in delayed) - now))
                    continue

                timeout = self._wait_timeout(delayed, deadlines, now)
                done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)

                broken = False
                for future in done:
                    key = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        got_key, result = future.result()
                    except BrokenProcessPool:
                        # Put the key back: rebuild_pool() attributes the
                        # crash over everything still unfinished.  Runs
                        # whose futures already resolved keep their results.
                        in_flight[future] = key
                        broken = True
                    except Exception as exc:  # noqa: BLE001
                        suspects.discard(key)  # it ran: attribution is direct
                        fail_attempt(key, exc)
                    else:
                        suspects.discard(key)
                        self._record_success(got_key, result, outcome)
                if broken:
                    executor = rebuild_pool("worker process died")
                    continue

                if self.run_timeout_s is not None:
                    expired = [f for f, d in deadlines.items() if d <= time.monotonic()]
                    if expired:
                        # A hung worker cannot be cancelled individually:
                        # terminate the pool's processes and rebuild, with
                        # the same single-vs-many attribution as a crash.
                        for proc in getattr(executor, "_processes", {}).values():
                            proc.terminate()
                        executor = rebuild_pool(
                            f"worker exceeded run timeout ({self.run_timeout_s}s)"
                        )
                        continue

                self._emit_progress(outcome, in_flight=len(in_flight))
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _wait_timeout(self, delayed, deadlines, now: float) -> float:
        horizon = self.progress_period_s if self._progress is not None else 10.0
        if delayed:
            horizon = min(horizon, max(0.0, min(t for t, _ in delayed) - now))
        if deadlines:
            horizon = min(horizon, max(0.0, min(deadlines.values()) - now))
        return max(horizon, 0.05)

    # -- shared bookkeeping ---------------------------------------------------

    def _record_success(self, key: str, result: SimResult, outcome: SweepOutcome) -> None:
        outcome.results[key] = result
        outcome.stats.executed += 1
        # The worker persisted before returning; mirror serial/in-parent
        # execution for store=None workers that could not.
        if self.store is not None and key not in self.store:
            self.store.put(key, result)

    def _retry_or_quarantine(
        self,
        task,
        key: str,
        attempt: int,
        error: Exception,
        outcome: SweepOutcome,
    ) -> bool:
        """Record one failed attempt; return True if the run should retry."""
        if attempt < self.max_attempts:
            outcome.stats.retries += 1
            return True
        outcome.failures[key] = RunFailure(
            task=task, attempts=attempt, error=f"{type(error).__name__}: {error}"
        )
        outcome.stats.quarantined += 1
        return False

    # -- progress -------------------------------------------------------------

    def _emit_progress(self, outcome: SweepOutcome, in_flight: int, force: bool = False) -> None:
        if self._progress is None:
            return
        now = time.monotonic()
        last = getattr(self, "_last_progress", 0.0)
        if not force and now - last < self.progress_period_s:
            return
        self._last_progress = now
        stats = outcome.stats
        done = len(outcome.results) + len(outcome.failures)
        line = (
            f"[heartbeat] sweep done={done}/{stats.total} in_flight={in_flight} "
            f"store_hits={stats.store_hits} retries={stats.retries} "
            f"quarantined={stats.quarantined}"
        )
        if callable(self._progress):
            self._progress(line)
        else:
            self._progress.write(line + "\n")
            self._progress.flush()


def run_sweep(
    tasks: Sequence,
    jobs: int = 1,
    store: Union[None, str, Path, ResultStore] = None,
    **kwargs,
) -> SweepOutcome:
    """One-shot convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(jobs=jobs, store=store, **kwargs).execute(tasks)
