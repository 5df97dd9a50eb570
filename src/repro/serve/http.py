"""Asyncio HTTP/JSON front-end over :class:`~repro.serve.controller.
ServeController`.

Stdlib-only (``asyncio.start_server`` plus a hand-rolled HTTP/1.1
codec): the container must not need aiohttp to drive a simulation.  The
event loop never blocks on simulation work -- controller calls run in a
small thread pool -- so ``/metrics`` scrapes and inspects stay live
while a session steps in the background.

Routes (all bodies JSON):

====== ================================ =====================================
POST   /sessions                        create (RunSpec-shaped body)
POST   /sessions/resume                 {"path": NAME} restore a checkpoint
GET    /sessions                        list
GET    /sessions/{id}                   inspect (?telemetry=1 for a snapshot)
DELETE /sessions/{id}                   drop the session and reclaim its graph
POST   /sessions/{id}/start             schedule the workload
POST   /sessions/{id}/step              {"n_ttis": N} or {"until_us": T}
POST   /sessions/{id}/run               background run ({"chunk_ttis": N})
POST   /sessions/{id}/pause             stop at the next chunk boundary
POST   /sessions/{id}/finish            tear down -> result + fingerprint
POST   /sessions/{id}/checkpoint        {"path": NAME} (a bare file name in
                                        the server's checkpoint directory)
POST   /sessions/{id}/reconfigure       epsilon/thresholds/boost/ric tuning
GET    /sessions/{id}/ric               RIC control-loop report
GET    /metrics                         live Prometheus exposition
GET    /healthz                         liveness + last heartbeat lines
====== ================================ =====================================
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.serve.controller import ApiError, ServeController

MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ReproServer:
    """The serve endpoint: bind, accept, route, encode."""

    def __init__(
        self,
        controller: Optional[ServeController] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.controller = controller or ServeController()
        self.host = host
        self.port = port  # 0 -> ephemeral; real port filled in at bind
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._bound = threading.Event()
        # Controller calls block (locks, stepping); keep them off the loop.
        self._pool = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-serve-api"
        )

    # -- request handling -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                # readline() raises ValueError for a line above the
                # StreamReader limit (64 KiB): like a bad Content-Length,
                # what follows it cannot be framed.
                try:
                    request_line = await reader.readline()
                    if not request_line:
                        break
                    method, target, _version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400,
                        {"error": "bad_request",
                         "detail": "malformed or over-long request line"},
                        keep_alive=False,
                    )
                    break
                headers = {}
                try:
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        name, _, value = line.decode("latin-1").partition(":")
                        headers[name.strip().lower()] = value.strip()
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                if not 0 <= length <= MAX_BODY_BYTES:
                    # The body cannot be framed, so this connection ends
                    # here; the server keeps serving the others.
                    await self._respond(
                        writer, 400,
                        {"error": "bad_request",
                         "detail": "over-long header line, or Content-Length "
                         f"not an integer in [0, {MAX_BODY_BYTES}]"},
                        keep_alive=False,
                    )
                    break
                raw = await reader.readexactly(length) if length else b""
                status, payload, content_type = await self._dispatch(
                    method.upper(), target, raw
                )
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._respond(
                    writer, status, payload, content_type, keep_alive
                )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _dispatch(self, method: str, target: str, raw: bytes):
        """Route one request; returns (status, payload, content_type)."""
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:
                return 400, {"error": "bad_request", "detail": "body is not JSON"}, None
            if not isinstance(body, dict):
                return 400, {"error": "bad_request",
                             "detail": "body must be a JSON object"}, None
        else:
            body = None

        ctl = self.controller
        loop = asyncio.get_running_loop()

        def call(fn, *args):
            return loop.run_in_executor(self._pool, fn, *args)

        try:
            if path == "/healthz" and method == "GET":
                return 200, ctl.healthz(), None
            if path == "/metrics" and method == "GET":
                text = await call(ctl.metrics)
                return 200, text, "text/plain; version=0.0.4"
            if path == "/sessions":
                if method == "GET":
                    return 200, ctl.list_sessions(), None
                if method == "POST":
                    return 200, await call(ctl.create_session, body), None
                return 405, _method_not_allowed(method), None
            if path == "/sessions/resume" and method == "POST":
                return 200, await call(ctl.resume_session, body), None
            parts = path.split("/")
            # /sessions/{id}[/verb]
            if len(parts) >= 3 and parts[1] == "sessions":
                sid = parts[2]
                verb = parts[3] if len(parts) > 3 else None
                if verb is None:
                    if method == "DELETE":
                        return 200, await call(ctl.delete_session, sid), None
                    if method != "GET":
                        return 405, _method_not_allowed(method), None
                    telemetry = query.get("telemetry", ["0"])[0] not in ("0", "false", "")
                    return 200, await call(ctl.describe, sid, telemetry), None
                if verb == "ric" and method == "GET":
                    return 200, await call(ctl.ric_report, sid), None
                if method != "POST":
                    return 405, _method_not_allowed(method), None
                handlers = {
                    "start": lambda: call(ctl.start, sid),
                    "step": lambda: call(ctl.step, sid, body),
                    "run": lambda: call(ctl.run, sid, body),
                    "pause": lambda: call(ctl.pause, sid),
                    "finish": lambda: call(ctl.finish, sid),
                    "checkpoint": lambda: call(ctl.checkpoint, sid, body),
                    "reconfigure": lambda: call(ctl.reconfigure, sid, body),
                }
                handler = handlers.get(verb)
                if handler is None:
                    return 404, {"error": "not_found", "detail": f"no route {path}"}, None
                return 200, await handler(), None
            return 404, {"error": "not_found", "detail": f"no route {path}"}, None
        except ApiError as exc:
            return exc.status, exc.as_dict(), None
        except Exception as exc:  # never leak a traceback as a hung socket
            return 500, {"error": "internal", "detail": repr(exc)}, None

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        content_type: Optional[str] = None,
        keep_alive: bool = True,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode()
            ctype = content_type or "text/plain"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            ctype = content_type or "application/json"
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- lifecycle --------------------------------------------------------

    async def serve_forever(self, announce=None) -> None:
        """Bind and serve on the current event loop (foreground mode).

        ``announce(host, port)``, if given, is called once the socket is
        bound -- with ``port=0`` this is how callers learn the real port.
        """
        await self._bind()
        assert self._server is not None
        if announce is not None:
            announce(self.host, self.port)
        async with self._server:
            await self._server.serve_forever()

    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._bound.set()

    def start_background(self) -> int:
        """Run the server on a dedicated loop thread; returns the port.

        Test-friendly mode: the caller's thread stays free to drive the
        API (e.g. with urllib) while the loop thread serves.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.serve_forever())
            except asyncio.CancelledError:
                pass
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._bound.wait(timeout=10.0):
            raise RuntimeError("server failed to bind within 10s")
        return self.port

    def stop(self) -> None:
        """Stop a background server and join its loop thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        def _shutdown() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        loop.call_soon_threadsafe(_shutdown)
        thread.join(timeout=10.0)
        self._pool.shutdown(wait=False)
        self._loop = None
        self._thread = None


def _method_not_allowed(method: str) -> dict:
    return {"error": "method_not_allowed", "detail": f"{method} not supported here"}
