"""Resumable simulation sessions: step, pause, inspect, checkpoint.

A :class:`SimulationSession` wraps one :class:`~repro.sim.cell.
CellSimulation` and owns its event loop.  Where the legacy
``CellSimulation.run()`` was fire-and-forget, a session is driven::

    session = SimulationSession.from_config(cfg, "outran", duration_s=8.0)
    session.start()
    while not session.done:
        session.step(n_ttis=1000)       # or until_us=...
        print(session.progress())       # live, cheap
    result = session.finish()           # same SimResult run() returned

Sessions checkpoint mid-run (:meth:`checkpoint` / :meth:`resume`): the
whole simulation object graph -- event heap, TCP senders/receivers,
PDCP/RLC entities, MLFQ flow tables, scheduler (including the xNodeB's
array-backed table), RNGs, telemetry -- is serialized with stdlib
pickle, and a paused-and-resumed run is **byte-identical** to an
uninterrupted one.  Two properties make that hold:

* ``EventEngine.run_until(t)`` leaves the clock exactly at ``t`` even
  when the queue drains early, so splitting one ``run_until`` into many
  is invisible to event ordering; sessions only ever pause *between*
  ``run_until`` slices.
* Every callback held by long-lived simulation state is a bound method
  or :func:`functools.partial` -- no closures -- so pickling needs no
  custom machinery beyond the heartbeat's stream handling.

The compiled MAC kernel is process state (a module-level ctypes handle),
not simulation state: checkpoints carry the *array* state and the
resuming process re-binds the kernel it has, so a checkpoint written on
a host with the compiled kernel resumes bit-identically on one without.

Identity is judged on the **outcome** of a run (:func:`result_fingerprint`):
what it simulated, not how many heap entries the host popped on the way.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import microseconds
from repro.sim.metrics import SimResult

if TYPE_CHECKING:
    from repro.ric.ric import NearRTRIC
    from repro.sim.cell import CellSimulation

#: Checkpoint file header: magic, format version, newline, pickle payload.
CHECKPOINT_MAGIC = b"REPROCKPT"
CHECKPOINT_VERSION = 12


class SessionError(RuntimeError):
    """A session method was called in the wrong state."""


class CheckpointError(RuntimeError):
    """A checkpoint file could not be written or restored."""


def _reclaim_dead_graphs() -> None:
    """One full collection: frees simulation graphs nothing refers to.

    A dropped graph is cyclic (the engine's heap holds bound methods of
    the objects that hold the engine), so refcounting never frees it, and
    a steady-state run allocates about as much as it frees, so the
    automatic collector seldom reaches the oldest generation.
    """
    gc.collect()


class SimulationSession:
    """Resumable execution of one cell simulation.

    State machine: ``new`` --start()--> ``running`` --finish()-->
    ``finished``.  :meth:`step` and :meth:`checkpoint` require
    ``running``; :meth:`resume` restores a ``running`` session from disk.
    """

    #: Set on a session :meth:`resume` returns; its first :meth:`step`
    #: deletes it again, so later checkpoints pickle no extra key.  A
    #: class-level default, so checkpoints written before it existed load.
    _reclaim_on_step = False

    def __init__(
        self,
        sim: "CellSimulation",
        duration_s: float,
        drain_s: float = 2.0,
    ) -> None:
        if not 0 < duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and positive: {duration_s}")
        if not 0 <= drain_s < math.inf:
            raise ValueError(f"drain_s must be finite and non-negative: {drain_s}")
        self.sim = sim
        self.duration_s = duration_s
        self.drain_s = drain_s
        self.state = "new"
        self._end_us = microseconds(duration_s + drain_s)
        self._steps = 0
        self._checkpoints = 0
        self._resumed = False
        self._result: Optional[SimResult] = None
        self._ric: Optional["NearRTRIC"] = None
        self._control_node = None

    @classmethod
    def from_config(
        cls,
        config,
        scheduler="outran",
        duration_s: float = 8.0,
        drain_s: float = 2.0,
        **sim_kwargs,
    ) -> "SimulationSession":
        """Build the simulation and the session in one call.

        This is the one place a :class:`~repro.sim.cell.CellSimulation`
        is constructed; ``sim_kwargs`` pass through to it (``flows=``,
        ``telemetry=``, ``flow_trace=``).
        """
        from repro.sim.cell import CellSimulation

        sim = CellSimulation(config, scheduler, **sim_kwargs)
        return cls(sim, duration_s=duration_s, drain_s=drain_s)

    # -- state ------------------------------------------------------------

    @property
    def now_us(self) -> int:
        """Current simulated time in microseconds."""
        return self.sim.engine.now_us

    @property
    def end_us(self) -> int:
        """Simulated end time (duration plus drain)."""
        return self._end_us

    @property
    def done(self) -> bool:
        """Whether simulated time has reached the end of the run."""
        return self.state == "finished" or (
            self.state == "running" and self.now_us >= self._end_us
        )

    @property
    def result(self) -> Optional[SimResult]:
        """The final result (None until :meth:`finish` has run)."""
        return self._result

    def _require(self, *states: str) -> None:
        if self.state not in states:
            raise SessionError(
                f"session is {self.state!r}; expected {' or '.join(states)}"
            )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SimulationSession":
        """Schedule the workload; the clock does not advance yet."""
        self._require("new")
        self.sim._setup_run(self.duration_s, self.drain_s)
        self.state = "running"
        return self

    def step(
        self,
        n_ttis: Optional[int] = None,
        until_us: Optional[int] = None,
    ) -> dict:
        """Advance simulated time; returns :meth:`progress`.

        ``n_ttis`` advances that many TTIs from now; ``until_us`` runs to
        an absolute simulated time; with neither, runs to the end of the
        run.  Targets clamp to the run's end and never move backwards, so
        over-stepping is safe and idempotent.
        """
        self._require("running")
        if n_ttis is not None and until_us is not None:
            raise ValueError("pass n_ttis or until_us, not both")
        if n_ttis is not None:
            if n_ttis <= 0:
                raise ValueError(f"n_ttis must be positive: {n_ttis}")
            target = self.now_us + n_ttis * self.sim.config.tti_us
        elif until_us is not None:
            target = until_us
        else:
            target = self._end_us
        target = min(max(target, self.now_us), self._end_us)
        if self._reclaim_on_step:
            # The caller of resume() has usually just dropped the session
            # this one replaces; by now nothing refers to that graph, and
            # without a full collection it lives until the process exits.
            del self._reclaim_on_step
            _reclaim_dead_graphs()
        self.sim.engine.run_until(target)
        self._steps += 1
        return self.progress()

    def finish(self) -> SimResult:
        """Run any remaining simulated time, tear down, and summarize.

        Idempotent once finished; the result is also kept on
        :attr:`result`.
        """
        if self.state == "finished":
            assert self._result is not None
            return self._result
        self._require("running")
        if not self.done:
            self.step()
        if self._ric is not None:
            self._ric.stop()
        self.sim._teardown_run()
        self._result = self.sim._build_result()
        self.state = "finished"
        return self._result

    # -- inspection -------------------------------------------------------

    def progress(self) -> dict:
        """Cheap run-position summary (no telemetry harvest)."""
        sim = self.sim
        return {
            "state": self.state,
            "now_us": self.now_us,
            "end_us": self._end_us,
            "progress": min(self.now_us / self._end_us, 1.0) if self._end_us else 1.0,
            "steps": self._steps,
            "events_processed": sim.engine.events_processed,
            "queue_depth": sim.engine.pending(),
            "ttis_run": sim.enb.ttis_run,
            "flows_started": sim.metrics.flows_started,
            "flows_completed": sim.metrics.completed,
            "flows_active": sim._count_active_flows(),
        }

    def snapshot(self, telemetry: bool = False) -> dict:
        """Full inspection view: progress, config, live tuning state.

        ``telemetry=True`` adds a live registry snapshot (harvested into a
        throwaway registry -- repeatable, does not disturb the end-of-run
        accounting).
        """
        sim = self.sim
        out = self.progress()
        out["scheduler"] = sim.scheduler.name
        out["duration_s"] = self.duration_s
        out["drain_s"] = self.drain_s
        out["num_ues"] = sim.config.num_ues
        out["checkpoints"] = self._checkpoints
        out["resumed"] = self._resumed
        out["boost_period_us"] = sim.priority_boost_period_us
        epsilon = getattr(sim.scheduler, "epsilon", None)
        if epsilon is not None:
            out["epsilon"] = epsilon
        if sim.uses_mlfq:
            thresholds = sim.ues[0].flow_table.config.thresholds
            out["mlfq_thresholds"] = list(thresholds) if thresholds else []
        if self._ric is not None:
            out["ric"] = self._ric.describe()
        if telemetry:
            out["telemetry"] = sim.live_telemetry_snapshot()
        return out

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self, path) -> dict:
        """Serialize the paused session to ``path``.

        Only a ``running`` session between steps checkpoints -- exactly
        the states from which a resume can continue event-for-event.
        The graph is pickled straight into a ``.tmp.<pid>`` sibling that
        replaces ``path`` once complete, so a failure half-way (or a
        killed process) leaves a previous checkpoint at ``path`` intact.
        Returns metadata (bytes written, simulated position).
        """
        self._require("running")
        path = Path(path)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(b"%s %d\n" % (CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
                try:
                    pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)
                except OSError:
                    raise  # the disk, not the graph
                except Exception as exc:  # unpicklable completion hook, open file...
                    raise CheckpointError(
                        f"session state does not pickle: {exc!r}; "
                        "dynamic-workload completion hooks and custom emit "
                        "callbacks must be picklable (bound methods or "
                        "functools.partial, not closures) to checkpoint"
                    ) from exc
                size = fh.tell()
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self._checkpoints += 1
        return {
            "path": str(path),
            "bytes": size,
            "now_us": self.now_us,
            "version": CHECKPOINT_VERSION,
        }

    @classmethod
    def resume(cls, path) -> "SimulationSession":
        """Restore a session checkpointed with :meth:`checkpoint`."""
        with open(path, "rb") as fh:
            header = fh.readline(64)
            parts = header.split()
            if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC:
                raise CheckpointError(f"{path}: not a repro checkpoint")
            try:
                version = int(parts[1])
            except ValueError:
                raise CheckpointError(f"{path}: malformed checkpoint header")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint format v{version} not supported "
                    f"(this build reads v{CHECKPOINT_VERSION})"
                )
            try:
                session = pickle.load(fh)
            except OSError:
                raise  # the disk, not the payload
            except Exception as exc:  # truncated, torn or overwritten file
                raise CheckpointError(
                    f"{path}: damaged payload ({exc!r})"
                ) from exc
        if not isinstance(session, cls):
            raise CheckpointError(
                f"{path}: checkpoint holds {type(session).__name__}, "
                f"not {cls.__name__}"
            )
        session._resumed = True
        session._reclaim_on_step = True
        return session

    # -- runtime tuning (serve / RIC control surface) ---------------------

    def attach_ric(
        self,
        xapps=("hillclimb",),
        period_us: Optional[int] = None,
        guardrails=None,
    ) -> "NearRTRIC":
        """Host a Near-RT RIC loop on this session's event engine.

        May be called before :meth:`start` or mid-run; the loop's first
        indication fires one period from now.  Returns the RIC so callers
        can read :meth:`~repro.ric.ric.NearRTRIC.report`.
        """
        from repro.ric.node import CellE2Node
        from repro.ric.ric import DEFAULT_REPORT_PERIOD_US, NearRTRIC

        if self._ric is not None:
            raise SessionError("a RIC is already attached to this session")
        self._require("new", "running")
        node = CellE2Node(self.sim, guardrails=guardrails)
        ric = NearRTRIC(
            node,
            period_us=DEFAULT_REPORT_PERIOD_US if period_us is None else period_us,
        )
        ric.load_xapps(list(xapps))
        ric.start()
        self._ric = ric
        return ric

    @property
    def ric(self) -> Optional["NearRTRIC"]:
        return self._ric

    def ric_report(self) -> dict:
        """The attached RIC's full control-loop report."""
        if self._ric is None:
            raise SessionError("no RIC attached to this session")
        return self._ric.report()

    def reconfigure(
        self,
        epsilon: Optional[float] = None,
        thresholds=None,
        boost_period_us: Optional[int] = None,
        ric_period_us: Optional[int] = None,
        ric_xapps=None,
    ) -> dict:
        """Guardrail-checked runtime tuning, applied at a TTI boundary.

        Parameter changes route through the same E2 control path an xApp
        uses, so the guardrails see every writer.  A rejected change
        raises :class:`~repro.ric.guardrails.GuardrailRejection` (a
        structured error -- `repro serve` maps it to HTTP 409) instead of
        being silently dropped.  ``ric_period_us`` / ``ric_xapps``
        retune or hot-swap an attached RIC loop.
        """
        from repro.ric.e2 import E2ControlRequest
        from repro.ric.guardrails import GuardrailRejection
        from repro.ric.node import CellE2Node

        self._require("new", "running")
        out: dict = {}
        if epsilon is not None or thresholds is not None or boost_period_us is not None:
            node = self._ric.node if self._ric is not None else self._control_node
            if node is None:
                node = self._control_node = CellE2Node(self.sim)
            request = E2ControlRequest(
                xapp="session.reconfigure",
                epsilon=epsilon,
                thresholds=tuple(thresholds) if thresholds is not None else None,
                boost_period_us=boost_period_us,
            )
            ack = node.control(request)
            if not ack.accepted:
                raise GuardrailRejection(ack.detail, request=request, t_us=ack.t_us)
            out["control"] = {
                "accepted": True,
                "detail": ack.detail,
                "t_us": ack.t_us,
            }
        if ric_period_us is not None:
            if self._ric is None:
                raise SessionError("no RIC attached; cannot set its period")
            self._ric.set_period(ric_period_us)
            out["ric_period_us"] = ric_period_us
        if ric_xapps is not None:
            if self._ric is None:
                raise SessionError("no RIC attached; cannot swap xApps")
            self._ric.replace_xapps(list(ric_xapps))
            out["ric_xapps"] = [x.name for x in self._ric.xapps]
        return out


# -- byte-identity fingerprints -------------------------------------------
#
# CI asserts that a stepped/checkpointed/resumed run equals the one-shot
# path by comparing these canonical payloads.  They hold the outcome of
# a run -- what it simulated -- and nothing of how the host got there
# (docs/ARCHITECTURE.md, "What identity covers"): the ``engine.``
# telemetry namespace counts heap entries, which is mechanism; every
# other name in a snapshot is outcome.


def canonical_telemetry(snapshot: Optional[dict]) -> Optional[dict]:
    """A telemetry snapshot without the ``engine.`` names."""
    if snapshot is None:
        return None
    canonical = {
        section: {
            name: value
            for name, value in snapshot[section].items()
            if not name.startswith("engine.")
        }
        for section in ("counters", "gauges")
    }
    # Snapshots once had a third section, which always hashed as empty; the
    # key stays in the payload so that every fingerprint pinned for a run
    # with a registry attached (golden files, perf history) still matches.
    canonical["histograms"] = {}
    return canonical


def result_fingerprint_payload(result: SimResult) -> dict:
    """Deterministic JSON-ready view of the outcome of a run.

    Covers the FCT records, every metrics series, the summary extras
    that count a simulated thing (``extra["events"]``, the number of
    heap entries the engine popped, is mechanism and left out), the
    (canonicalized) telemetry snapshot, and the flow-trace breakdowns --
    the full surface the byte-identity guarantee spans.
    """
    c = result._c
    extra = {
        key: value
        for key, value in result.extra.items()
        if key not in ("capacity_bps", "events")
    }
    extra["capacity_bps"] = repr(result.extra.get("capacity_bps"))
    return {
        "scheduler": result.scheduler_name,
        "duration_s": result.duration_s,
        "records": [list(row) for row in zip(*c.fct_columns())],
        "flows_started": c.flows_started,
        "se_samples": [[t, repr(v)] for t, v in c.se_samples],
        "fairness_samples": [[t, repr(v)] for t, v in c.fairness_samples],
        "queue_delays": list(c.queue_delays()),
        "rtt_samples_us": [repr(v) for v in c.rtt_samples_us],
        "total_bits": c.total_bits,
        "total_ue_bits": [repr(v) for v in c.total_ue_bits.tolist()],
        "sdus_dropped": c.sdus_dropped,
        "decipher_failures": c.decipher_failures,
        "reassembly_discards": c.reassembly_discards,
        "extra": extra,
        "telemetry": canonical_telemetry(result.telemetry),
        "flow_breakdowns": (
            [b.as_dict() for b in result.flow_breakdowns]
            if result.flow_breakdowns is not None
            else None
        ),
    }


def result_fingerprint(result: SimResult) -> str:
    """SHA-256 over the canonical payload (the CI identity check)."""
    payload = result_fingerprint_payload(result)
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()
