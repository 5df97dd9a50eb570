"""Worker-side execution: the functions that run inside pool processes.

Everything here is a module-level callable so it pickles cleanly into a
``ProcessPoolExecutor``.  The contract shared by every worker function
(and by the fault-injecting workers the tests supply) is::

    worker(task, store_root: Optional[str]) -> (key: str, result: SimResult)

where ``task`` is any picklable object with a ``.key()`` method.  When a
store root is given the worker persists the result *before* returning,
so a completed run survives even if the parent dies right after -- the
store, not the pipe, is the checkpoint.

Workers run the simulation *uninstrumented* (no telemetry registry):
observability never changes simulation results (asserted by
the test suite), so store-served and freshly-simulated runs are
interchangeable byte-for-byte in figure output.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.sim.metrics import SimResult
from repro.sim.session import CheckpointError, SimulationSession
from repro.runner.spec import RunSpec
from repro.runner.store import ResultStore

#: Set to a TTI count to make workers checkpoint their session every N
#: TTIs (requires a store root).  An interrupted run then resumes from
#: its last checkpoint instead of from zero -- mid-run preemption
#: tolerance on top of the store's run-granularity resume.  Off by
#: default: checkpoint I/O is pure overhead when runs are short.
CKPT_TTIS_ENV = "REPRO_WORKER_CKPT_TTIS"


def _checkpoint_ttis() -> Optional[int]:
    raw = os.environ.get(CKPT_TTIS_ENV)
    if not raw:
        return None
    ttis = int(raw)
    return ttis if ttis > 0 else None


def _checkpoint_path(store_root: str, key: str) -> Path:
    return Path(store_root) / "session-ckpt" / f"{key}.ckpt"


def execute_spec(
    spec: RunSpec, checkpoint_path: Optional[Path] = None
) -> SimResult:
    """Materialize and run one declaratively-specified simulation.

    Runs through a :class:`~repro.sim.session.SimulationSession`.  With a
    ``checkpoint_path`` (and :data:`CKPT_TTIS_ENV` set) the session
    checkpoints every N TTIs and resumes from an existing checkpoint
    file -- byte-identical to an uninterrupted run, so preempted workers
    lose at most one checkpoint interval of work.
    """
    ckpt_ttis = _checkpoint_ttis() if checkpoint_path is not None else None
    if ckpt_ttis is None:
        return spec.session().start().finish()
    session = None
    if checkpoint_path.exists():
        try:
            session = SimulationSession.resume(checkpoint_path)
        except (CheckpointError, OSError):
            # A torn or outdated checkpoint must never kill the retry:
            # fall back to a fresh run.
            checkpoint_path.unlink(missing_ok=True)
    if session is None:
        session = spec.session().start()
    checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
    while not session.done:
        session.step(n_ttis=ckpt_ttis)
        if not session.done:
            session.checkpoint(checkpoint_path)  # atomic, torn-write safe
    result = session.finish()
    checkpoint_path.unlink(missing_ok=True)
    return result


def run_spec(spec: RunSpec, store_root: Optional[str] = None):
    """Default pool worker: read-through the store, else simulate + persist."""
    key = spec.key()
    store = ResultStore(store_root) if store_root else None
    if store is not None:
        cached = store.get(key)
        if cached is not None:
            return key, cached
    ckpt = _checkpoint_path(store_root, key) if store_root else None
    result = execute_spec(spec, checkpoint_path=ckpt)
    if store is not None:
        store.put(key, result)
    return key, result
