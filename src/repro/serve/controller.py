"""Session registry and control logic behind the serve API.

The controller is transport-agnostic: every public method takes and
returns JSON-ready dicts (or raises :class:`ApiError`), so the asyncio
HTTP front-end in :mod:`repro.serve.http` is a thin codec and the whole
control surface is testable without sockets.

Concurrency model: the HTTP layer may call the controller from executor
threads, and ``run`` drives a session from a dedicated background thread
in chunked steps.  Every touch of a session goes through its handle's
lock; the background runner lets a waiting caller in at each chunk
boundary (``_SessionHandle.turnstile``), so ``inspect`` and ``/metrics``
wait out at most the chunk in progress, not the rest of the run.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional, Union

from repro.ric.guardrails import GuardrailRejection
from repro.runner.spec import RunSpec
from repro.sim.session import CheckpointError, SessionError, SimulationSession
from repro.sim.session import _reclaim_dead_graphs, result_fingerprint
from repro.telemetry.exporters import snapshot_to_prometheus

#: Default background-run slice: 1000 TTIs (1 simulated second in LTE)
#: between lock releases.
DEFAULT_CHUNK_TTIS = 1000

#: Where checkpoints live unless the embedding program says otherwise
#: (relative to the server's working directory).
DEFAULT_CHECKPOINT_DIR = ".repro-serve"

#: How long an inspect/scrape waits for a mid-chunk session lock before
#: reporting 503 instead of stalling the scrape loop.
LOCK_TIMEOUT_S = 5.0

_SPEC_FIELDS = frozenset(
    ("rat", "scheduler", "load", "seed", "num_ues", "duration_s",
     "mu", "mec", "distribution", "workload", "overrides")
)


class ApiError(Exception):
    """A request the controller refuses, with an HTTP status to match."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail

    def as_dict(self) -> dict:
        return {"error": self.error, "detail": self.detail}


def _typed(field: str, value, cast, error: str = "bad_request"):
    """``cast(value)`` of a request field, None when absent or null.

    A value the cast refuses is a 400 naming the field, not the cast's
    own exception escaping as a 500.
    """
    if value is None:
        return None
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ApiError(400, error, f"{field!r}: {exc}")


def _ric_period_us(ric) -> Optional[int]:
    """``period_ms`` of a request's ``ric`` object, in microseconds."""
    if not isinstance(ric, dict):
        raise ApiError(400, "bad_ric", f"'ric' must be a JSON object: {ric!r}")
    return _typed(
        "period_ms", ric.get("period_ms"),
        lambda ms: int(round(float(ms) * 1000)), "bad_ric",
    )


class _SessionHandle:
    """One hosted session plus its lock and background-run state."""

    def __init__(self, session: SimulationSession, spec: Optional[RunSpec] = None):
        self.id = ""  # assigned when the controller registers the handle
        self.session = session
        self.spec = spec
        self.lock = threading.Lock()
        #: Held by a caller waiting for ``lock``; the background runner
        #: passes it before each chunk, so that caller goes first.
        self.turnstile = threading.Lock()
        self.pause_requested = threading.Event()
        self.thread: Optional[threading.Thread] = None
        self.run_error: Optional[str] = None
        #: The latest heartbeat line (a picklable sink: checkpoints carry
        #: the heartbeat's emit callback).
        self.last_heartbeat: deque[str] = deque(maxlen=1)

    @property
    def running_in_background(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


class ServeController:
    """Owns every hosted session; the HTTP layer is a codec over this."""

    def __init__(
        self,
        chunk_ttis: int = DEFAULT_CHUNK_TTIS,
        checkpoint_dir: Union[str, Path] = DEFAULT_CHECKPOINT_DIR,
    ) -> None:
        if chunk_ttis <= 0:
            raise ValueError(f"chunk_ttis must be positive: {chunk_ttis}")
        self.chunk_ttis = chunk_ttis
        #: The only directory clients can checkpoint into or resume from.
        self.checkpoint_dir = Path(checkpoint_dir)
        self._handles: dict[str, _SessionHandle] = {}
        self._registry_lock = threading.Lock()
        self._counter = 0

    # -- registry ---------------------------------------------------------

    def _register(self, handle: _SessionHandle) -> dict:
        """Give a fully built session its id; nothing after this refuses."""
        with self._registry_lock:
            self._counter += 1
            handle.id = f"s{self._counter}"
            self._handles[handle.id] = handle
        return self.describe(handle.id)

    def _handle(self, sid: str) -> _SessionHandle:
        with self._registry_lock:
            handle = self._handles.get(sid)
        if handle is None:
            raise ApiError(404, "unknown_session", f"no session {sid!r}")
        return handle

    def _locked(self, handle: _SessionHandle):
        """Acquire a handle's lock or 503 if a background chunk holds it."""
        deadline = time.monotonic() + LOCK_TIMEOUT_S
        if handle.turnstile.acquire(timeout=LOCK_TIMEOUT_S):
            try:
                locked = handle.lock.acquire(timeout=max(deadline - time.monotonic(), 0))
            finally:
                handle.turnstile.release()
            if locked:
                return _Unlocker(handle.lock)
        raise ApiError(
            503, "busy", f"session {handle.id} is mid-step; retry shortly"
        )

    # -- session creation -------------------------------------------------

    def create_session(self, payload: Optional[dict]) -> dict:
        """POST /sessions -- RunSpec-shaped JSON plus serve options.

        Spec fields (``rat``, ``scheduler``, ``load``, ``seed``,
        ``num_ues``, ``duration_s``, ``mu``, ``mec``, ``distribution``,
        ``overrides``) go through :class:`~repro.runner.spec.RunSpec` --
        the same declarative schema the sweep runner hashes -- so a serve
        session and an offline run of the same JSON are the same
        simulation.  Serve options: ``drain_s``, ``telemetry``,
        ``flow_trace``, ``heartbeat_s``, ``ric``
        (``{"xapps": [...], "period_ms": ...}``).
        """
        payload = dict(payload or {})
        spec_kwargs = {k: payload.pop(k) for k in list(payload) if k in _SPEC_FIELDS}
        drain_s = payload.pop("drain_s", 2.0)
        telemetry = bool(payload.pop("telemetry", True))
        flow_trace = bool(payload.pop("flow_trace", False))
        heartbeat_s = _typed("heartbeat_s", payload.pop("heartbeat_s", None), float)
        ric = payload.pop("ric", None)
        if payload:
            raise ApiError(
                400, "unknown_field",
                f"unknown session fields: {sorted(payload)}",
            )
        spec_kwargs.setdefault("rat", "lte")
        spec_kwargs.setdefault("scheduler", "outran")
        try:
            spec = RunSpec(**spec_kwargs)
            session = spec.session(
                drain_s=float(drain_s),
                telemetry=telemetry,
                flow_trace=flow_trace,
            )
        except (TypeError, ValueError) as exc:
            raise ApiError(400, "bad_spec", str(exc))
        handle = _SessionHandle(session, spec)
        if heartbeat_s is not None:
            try:
                session.sim.attach_heartbeat(
                    period_s=heartbeat_s, emit=handle.last_heartbeat.append
                )
            except ValueError as exc:
                raise ApiError(400, "bad_request", f"'heartbeat_s': {exc}")
        if ric is not None:
            period_us = _ric_period_us(ric)
            try:
                session.attach_ric(
                    xapps=ric.get("xapps", ["hillclimb"]), period_us=period_us
                )
            except (KeyError, TypeError, ValueError, SessionError) as exc:
                raise ApiError(400, "bad_ric", str(exc))
        return self._register(handle)

    def _checkpoint_path(self, payload: Optional[dict]) -> Path:
        """The file a client-supplied checkpoint name stands for.

        Resuming unpickles, so clients name files and the server decides
        where they live: ``path`` is one bare name under
        :attr:`checkpoint_dir`.  A separator, ``..``, an absolute path or
        a symlink leading out of the directory is refused before anything
        is opened.
        """
        name = (payload or {}).get("path")
        if not name or not isinstance(name, str):
            raise ApiError(400, "bad_request", "'path' must name a checkpoint file")
        path = self.checkpoint_dir / name
        if (
            "\0" in name
            or name == ".."
            or Path(name).name != name
            or path.resolve().parent != self.checkpoint_dir.resolve()
        ):
            raise ApiError(
                400, "bad_request",
                f"'path' must be a bare file name inside the server's "
                f"checkpoint directory: {name!r}",
            )
        return path

    def resume_session(self, payload: Optional[dict]) -> dict:
        """POST /sessions/resume -- restore a checkpoint file as a new id."""
        path = self._checkpoint_path(payload)
        try:
            session = SimulationSession.resume(path)
        except FileNotFoundError:
            raise ApiError(404, "not_found", f"no checkpoint named {path.name!r}")
        except CheckpointError as exc:
            raise ApiError(400, "bad_checkpoint", str(exc))
        return self._register(_SessionHandle(session))

    def delete_session(self, sid: str) -> dict:
        """DELETE /sessions/{id} -- drop a session and reclaim its graph.

        Checkpoint files the session wrote are left where they are.
        """
        handle = self._handle(sid)
        if handle.running_in_background:
            raise ApiError(409, "running", "pause the background run first")
        with self._locked(handle), self._registry_lock:
            self._handles.pop(sid, None)
        del handle  # the last reference, or the collection cannot free it
        _reclaim_dead_graphs()
        return {"id": sid, "deleted": True}

    # -- inspection -------------------------------------------------------

    def list_sessions(self) -> dict:
        with self._registry_lock:
            handles = list(self._handles.values())
        return {
            "sessions": [
                {
                    "id": h.id,
                    "state": h.session.state,
                    "background": h.running_in_background,
                }
                for h in handles
            ]
        }

    def describe(self, sid: str, telemetry: bool = False) -> dict:
        handle = self._handle(sid)
        with self._locked(handle):
            out = handle.session.snapshot(telemetry=telemetry)
        out["id"] = handle.id
        out["background"] = handle.running_in_background
        if handle.spec is not None:
            out["spec"] = handle.spec.canonical()
            out["spec_key"] = handle.spec.key()
        if handle.run_error is not None:
            out["run_error"] = handle.run_error
        return out

    # -- control ----------------------------------------------------------

    def start(self, sid: str) -> dict:
        handle = self._handle(sid)
        with self._locked(handle):
            self._session_call(handle.session.start)
        return self.describe(sid)

    def step(self, sid: str, payload: Optional[dict] = None) -> dict:
        payload = payload or {}
        handle = self._handle(sid)
        if handle.running_in_background:
            raise ApiError(
                409, "running", "session is running in the background; pause first"
            )
        n_ttis = _typed("n_ttis", payload.get("n_ttis"), int)
        until_us = _typed("until_us", payload.get("until_us"), int)
        with self._locked(handle):
            return self._session_call(
                handle.session.step, n_ttis=n_ttis, until_us=until_us
            )

    def run(self, sid: str, payload: Optional[dict] = None) -> dict:
        """Background run: step in chunks until done or paused."""
        handle = self._handle(sid)
        if handle.running_in_background:
            raise ApiError(409, "running", "session is already running")
        chunk = _typed("chunk_ttis", (payload or {}).get("chunk_ttis"), int)
        if chunk is None:
            chunk = self.chunk_ttis
        if chunk <= 0:
            raise ApiError(400, "bad_request", f"chunk_ttis must be positive: {chunk}")
        session = handle.session
        if session.state != "running":
            raise ApiError(
                409, "bad_state", f"session is {session.state!r}; start it first"
            )
        handle.pause_requested.clear()
        handle.run_error = None

        def _loop() -> None:
            try:
                while not handle.pause_requested.is_set():
                    with handle.turnstile:
                        pass
                    with handle.lock:
                        if session.done:
                            break
                        session.step(n_ttis=chunk)
            except Exception as exc:  # surfaced via describe()
                handle.run_error = repr(exc)

        handle.thread = threading.Thread(
            target=_loop, name=f"repro-serve-{sid}", daemon=True
        )
        handle.thread.start()
        return {"id": sid, "background": True, "chunk_ttis": chunk}

    def pause(self, sid: str) -> dict:
        """Stop the background runner at the next chunk boundary."""
        handle = self._handle(sid)
        handle.pause_requested.set()
        thread = handle.thread
        if thread is not None:
            thread.join(timeout=60.0)
            if thread.is_alive():
                raise ApiError(503, "busy", "background run did not pause in time")
            handle.thread = None
        return self.describe(sid)

    def finish(self, sid: str) -> dict:
        """Run to the end, tear down, and return the result summary."""
        handle = self._handle(sid)
        if handle.running_in_background:
            raise ApiError(409, "running", "pause the background run first")
        with self._locked(handle):
            result = self._session_call(handle.session.finish)
        return {
            "id": sid,
            "state": handle.session.state,
            "fingerprint": result_fingerprint(result),
            "result": result.summary(),
        }

    def checkpoint(self, sid: str, payload: Optional[dict] = None) -> dict:
        path = self._checkpoint_path(payload)
        handle = self._handle(sid)
        if handle.running_in_background:
            raise ApiError(409, "running", "pause the background run first")
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        with self._locked(handle):
            meta = self._session_call(handle.session.checkpoint, path)
        meta["id"] = sid
        return meta

    def reconfigure(self, sid: str, payload: Optional[dict] = None) -> dict:
        """Guardrail-checked tuning; rejection is HTTP 409 with detail."""
        payload = payload or {}
        handle = self._handle(sid)
        ric = payload.pop("ric", None) or {}
        ric_period_us = _ric_period_us(ric)
        kwargs = {
            "epsilon": payload.pop("epsilon", None),
            "thresholds": payload.pop("thresholds", None),
            "boost_period_us": payload.pop("boost_period_us", None),
        }
        if payload:
            raise ApiError(
                400, "unknown_field",
                f"unknown reconfigure fields: {sorted(payload)}",
            )
        if ric_period_us is not None:
            kwargs["ric_period_us"] = ric_period_us
        if "xapps" in ric:
            kwargs["ric_xapps"] = ric["xapps"]
        with self._locked(handle):
            try:
                applied = self._session_call(handle.session.reconfigure, **kwargs)
            except GuardrailRejection as exc:
                raise ApiError(409, "guardrail_rejected", exc.detail)
        return {"id": sid, "applied": applied}

    def ric_report(self, sid: str) -> dict:
        handle = self._handle(sid)
        with self._locked(handle):
            return self._session_call(handle.session.ric_report)

    @staticmethod
    def _session_call(fn, *args, **kwargs):
        """Map session-layer errors onto API errors."""
        try:
            return fn(*args, **kwargs)
        except SessionError as exc:
            raise ApiError(409, "bad_state", str(exc))
        except CheckpointError as exc:
            raise ApiError(500, "checkpoint_failed", str(exc))
        except (TypeError, ValueError) as exc:
            raise ApiError(400, "bad_request", str(exc))

    # -- observability ----------------------------------------------------

    def metrics(self) -> str:
        """Live Prometheus exposition across every hosted session.

        Each session's snapshot is harvested into a throwaway registry
        (see ``CellSimulation.live_telemetry_snapshot``), so scraping is
        repeatable and cannot disturb end-of-run accounting.  One
        ``repro_session{...}`` info gauge per session carries identity.
        """
        blocks: list[str] = []
        with self._registry_lock:
            handles = list(self._handles.values())
        for handle in handles:
            with self._locked(handle):
                snapshot = handle.session.sim.live_telemetry_snapshot()
                state = handle.session.state
                now_us = handle.session.now_us
            info = (
                f'repro_session{{id="{handle.id}",state="{state}",'
                f'scheduler="{handle.session.sim.scheduler.name}"}} 1\n'
                f'repro_session_now_us{{id="{handle.id}"}} {now_us}'
            )
            blocks.append(f"# session {handle.id}\n{info}\n"
                          + snapshot_to_prometheus(snapshot))
        return "\n".join(blocks) + ("\n" if blocks else "")

    def healthz(self) -> dict:
        """Liveness plus the most recent heartbeat line per session."""
        with self._registry_lock:
            handles = list(self._handles.values())
        return {
            "status": "ok",
            "sessions": len(handles),
            "heartbeats": {
                h.id: h.last_heartbeat[-1] if h.last_heartbeat else None
                for h in handles
            },
        }


class _Unlocker:
    """Context manager releasing an already-acquired lock on exit."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        self._lock.release()
