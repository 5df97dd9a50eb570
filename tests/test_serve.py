"""Tests for the serve control surface (repro.serve).

Most coverage drives :class:`ServeController` directly -- it is the
whole API minus the socket.  One end-to-end class exercises the asyncio
HTTP front-end over a real loopback socket with urllib, including the
serve-vs-offline fingerprint identity the CI serve-smoke job asserts.
"""

import gc
import json
import socket
import time
import urllib.error
import urllib.request
import weakref

import pytest

from repro.runner.spec import RunSpec
from repro.runner.worker import execute_spec
from repro.serve import ApiError, ReproServer, ServeController
from repro.sim.session import (
    SimulationSession,
    canonical_telemetry,
    result_fingerprint,
)

SPEC = {
    "scheduler": "outran",
    "load": 0.5,
    "num_ues": 3,
    "seed": 9,
    "duration_s": 0.4,
}

#: The serve options for identity tests: the offline baseline
#: (execute_spec) is uninstrumented, and the fingerprint deliberately
#: covers the telemetry snapshot, so identical bytes require identical
#: instrumentation on both sides.
BARE = dict(SPEC, telemetry=False)

#: Observers put events of their own on the engine; the fingerprint is
#: the outcome of the run, so they finish with the offline bytes too.
OBSERVERS = [
    pytest.param({"heartbeat_s": 0.05}, id="heartbeat"),
    pytest.param({"ric": {"xapps": ["noop"]}}, id="noop-ric"),
]


def offline_fingerprint() -> str:
    spec = RunSpec(rat="lte", **SPEC)
    return result_fingerprint(execute_spec(spec))


def api_error(fn, *args):
    with pytest.raises(ApiError) as exc:
        fn(*args)
    return exc.value


#: Well-formed JSON objects with a wrong-typed or refused field: (route,
#: body, error, the field the detail must name).  ``{sid}`` is a started session.
WRONG_TYPED = [
    ("/sessions/{sid}/step", {"n_ttis": "abc"}, "bad_request", "n_ttis"),
    ("/sessions/{sid}/step", {"n_ttis": [1]}, "bad_request", "n_ttis"),
    ("/sessions/{sid}/run", {"chunk_ttis": "x"}, "bad_request", "chunk_ttis"),
    ("/sessions/{sid}/reconfigure", {"ric": {"period_ms": "x"}}, "bad_ric",
     "period_ms"),
    ("/sessions/{sid}/reconfigure", {"ric": [1]}, "bad_ric", "ric"),
    ("/sessions", dict(SPEC, heartbeat_s="x"), "bad_request", "heartbeat_s"),
    ("/sessions", dict(SPEC, ric=[1]), "bad_ric", "ric"),
    # Refused after the session object exists: these used to leak it too.
    ("/sessions", dict(SPEC, ric={"period_ms": "x"}), "bad_ric", "period_ms"),
    ("/sessions", dict(SPEC, heartbeat_s=0), "bad_request", "heartbeat_s"),
    ("/sessions", dict(SPEC, ric={"period_ms": float("inf")}), "bad_ric",
     "period_ms"),
    # Refused by RunSpec / SimConfig at create: the first was a 500, the
    # next six registered a session that could never start, and the last
    # two name options that no longer exist.
    ("/sessions", dict(SPEC, scheduler=["pf"]), "bad_spec", "scheduler"),
    ("/sessions", dict(SPEC, load="x"), "bad_spec", "load"),
    ("/sessions", dict(SPEC, load=-1), "bad_spec", "load"),
    ("/sessions", dict(SPEC, load=float("inf")), "bad_spec", "load"),
    ("/sessions", dict(SPEC, load=float("nan")), "bad_spec", "load"),
    ("/sessions", dict(SPEC, distribution="nope"), "bad_spec", "distribution"),
    ("/sessions", dict(SPEC, distribution=["websearch"]), "bad_spec",
     "distribution"),
    ("/sessions", dict(SPEC, overrides={"cc": "bbr"}), "bad_spec", "cc"),
    ("/sessions", dict(SPEC, overrides={"rlc_mode": "tm"}), "bad_spec",
     "rlc_mode"),
    ("/sessions", dict(SPEC, overrides={"link_adaptation": "worst_rb"}),
     "bad_spec", "link_adaptation"),
    # 1e400 in a JSON body parses to inf: these two were a 500 (OverflowError),
    # the negative delay registered a session that could never start, and
    # the 10^8-UE cell never came back.
    ("/sessions", dict(SPEC, duration_s=float("inf")), "bad_spec", "duration_s"),
    ("/sessions", dict(SPEC, drain_s=float("inf")), "bad_spec", "drain_s"),
    ("/sessions", dict(SPEC, overrides={"server_delay_us": -5}), "bad_spec",
     "server_delay_us"),
    ("/sessions", dict(SPEC, num_ues=100_000_000), "bad_spec", "num_ues"),
]


class TestControllerLifecycle:
    def test_create_start_step_finish(self, observer={}):
        ctl = ServeController()
        created = ctl.create_session(dict(BARE, **observer))
        sid = created["id"]
        assert created["state"] == "new"
        assert created["spec"]["scheduler"] == "outran"
        ctl.start(sid)
        out = ctl.step(sid, {"n_ttis": 100})
        assert out["now_us"] == 100_000
        done = ctl.finish(sid)
        assert done["state"] == "finished"
        assert done["result"]["completed_flows"] > 0
        assert done["fingerprint"] == offline_fingerprint()

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_observed_session_finishes_with_the_offline_bytes(self, observer):
        self.test_create_start_step_finish(observer)

    def test_finish_is_idempotent_over_api(self):
        ctl = ServeController()
        sid = ctl.create_session(dict(SPEC))["id"]
        ctl.start(sid)
        first = ctl.finish(sid)
        assert ctl.finish(sid) == first

    def test_list_and_healthz(self):
        ctl = ServeController()
        a = ctl.create_session(dict(SPEC))["id"]
        b = ctl.create_session(dict(SPEC))["id"]
        listed = ctl.list_sessions()["sessions"]
        assert {s["id"] for s in listed} == {a, b}
        health = ctl.healthz()
        assert health["status"] == "ok"
        assert health["sessions"] == 2

    def test_ids_are_sequential(self):
        ctl = ServeController()
        assert ctl.create_session(dict(SPEC))["id"] == "s1"
        assert ctl.create_session(dict(SPEC))["id"] == "s2"


class TestControllerValidation:
    def test_unknown_session_404(self):
        err = api_error(ServeController().describe, "zzz")
        assert err.status == 404

    def test_unknown_field_400(self):
        err = api_error(ServeController().create_session, {"bogus": 1})
        assert err.status == 400
        assert "bogus" in err.detail

    def test_bad_spec_400(self):
        err = api_error(
            ServeController().create_session, dict(SPEC, scheduler="nope")
        )
        assert err.status == 400
        assert err.error == "bad_spec"

    def test_step_before_start_409(self):
        ctl = ServeController()
        sid = ctl.create_session(dict(SPEC))["id"]
        err = api_error(ctl.step, sid, {"n_ttis": 10})
        assert err.status == 409
        assert err.error == "bad_state"

    def test_guardrail_rejection_409(self):
        ctl = ServeController()
        sid = ctl.create_session(dict(SPEC))["id"]
        ctl.start(sid)
        with pytest.raises(ApiError) as exc:
            ctl.reconfigure(sid, {"thresholds": [100_000, 50_000, 20_000]})
        assert exc.value.status == 409
        assert exc.value.error == "guardrail_rejected"
        ctl.finish(sid)

    def test_resume_missing_file_404(self, tmp_path):
        ctl = ServeController(checkpoint_dir=tmp_path)
        err = api_error(ctl.resume_session, {"path": "nonexistent.ckpt"})
        assert err.status == 404

    def test_wrong_typed_field_is_a_400_and_leaves_nothing_behind(self):
        ctl = ServeController()
        sid = ctl.create_session(dict(SPEC))["id"]
        ctl.start(sid)
        listed = ctl.list_sessions()
        calls = {"step": ctl.step, "run": ctl.run, "reconfigure": ctl.reconfigure}
        for route, body, error, field in WRONG_TYPED:
            verb = route.rsplit("/", 1)[1]
            if verb == "sessions":
                err = api_error(ctl.create_session, dict(body))
            else:
                err = api_error(calls[verb], sid, dict(body))
            assert (err.status, err.error) == (400, error), (route, body)
            assert field in err.detail, (route, body, err.detail)
            # No refused create left a session, and the one there still works.
            assert ctl.list_sessions() == listed
            assert ctl.step(sid, {"n_ttis": 5})["state"] == "running"
        assert ctl.create_session(dict(SPEC))["id"] == "s2"  # no id burnt either


class TestDeleteSession:
    def test_delete_drops_the_session_and_reclaims_its_graph(self, tmp_path):
        ctl = ServeController(checkpoint_dir=tmp_path)
        kept = ctl.create_session(dict(SPEC))["id"]
        sid = ctl.create_session(dict(SPEC, heartbeat_s=0.1))["id"]
        ctl.start(sid)
        ctl.step(sid, {"n_ttis": 150})
        ctl.checkpoint(sid, {"path": "deleted.ckpt"})
        deleted = weakref.ref(ctl._handles[sid].session.sim)
        automatic = gc.isenabled()
        gc.disable()  # the graph is cyclic: only the route's collection frees it
        try:
            assert ctl.delete_session(sid) == {"id": sid, "deleted": True}
            assert deleted() is None
        finally:
            if automatic:
                gc.enable()
        assert api_error(ctl.describe, sid).status == 404
        assert ctl.healthz()["sessions"] == 1
        assert [s["id"] for s in ctl.list_sessions()["sessions"]] == [kept]
        err = api_error(ctl.delete_session, sid)
        assert (err.status, err.error) == (404, "unknown_session")
        # The checkpoint outlives the session it came from.
        resumed = ctl.resume_session({"path": "deleted.ckpt"})
        assert resumed["now_us"] == 150_000

    def test_delete_while_running_in_the_background_is_a_409(self):
        ctl = ServeController(chunk_ttis=10)
        # Long enough that the run cannot end before the DELETE arrives.
        sid = ctl.create_session(dict(SPEC, duration_s=5.0))["id"]
        ctl.start(sid)
        ctl.run(sid)
        err = api_error(ctl.delete_session, sid)
        assert (err.status, err.error) == (409, "running")
        ctl.pause(sid)
        assert ctl.describe(sid)["state"] == "running"
        ctl.delete_session(sid)
        assert ctl.healthz()["sessions"] == 0


class TestBackgroundRun:
    def test_run_pause_resume_finish(self):
        ctl = ServeController(chunk_ttis=100)
        sid = ctl.create_session(dict(BARE))["id"]
        ctl.start(sid)
        out = ctl.run(sid)
        assert out["background"] is True
        # stepping while a background run owns the session is refused
        err = api_error(ctl.step, sid, {"n_ttis": 10})
        assert err.status == 409
        paused = ctl.pause(sid)
        assert paused["background"] is False
        # a paused run continues to the same bytes as the offline path
        assert ctl.finish(sid)["fingerprint"] == offline_fingerprint()

    def test_run_to_completion(self):
        ctl = ServeController(chunk_ttis=100_000)  # one chunk covers the run
        sid = ctl.create_session(dict(BARE))["id"]
        ctl.start(sid)
        ctl.run(sid)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if not ctl.describe(sid)["background"]:
                break
            time.sleep(0.05)
        desc = ctl.describe(sid)
        assert desc["now_us"] == desc["end_us"]
        assert "run_error" not in desc
        assert ctl.finish(sid)["fingerprint"] == offline_fingerprint()

    def test_inspection_waits_out_at_most_the_chunk_in_progress(self):
        """The runner lets a waiting describe() in at the next chunk
        boundary.  With a plain lock it took the lock straight back, so
        a describe() waited many chunks or got a 503 ``busy``."""
        ctl = ServeController(chunk_ttis=1000)  # 0.1-0.3 s of host time
        sid = ctl.create_session(dict(BARE, duration_s=30.0))["id"]
        ctl.start(sid)
        ctl.run(sid)
        session = ctl._handle(sid).session
        try:
            for _ in range(6):
                time.sleep(0.02)  # the runner is mid-chunk
                before = session._steps  # one int: safe to read unlocked
                desc = ctl.describe(sid)
                assert desc["background"] is True
                assert desc["steps"] - before <= 1
            assert desc["steps"] >= 3
        finally:
            ctl.pause(sid)

    def test_checkpoint_mid_background_refused(self, tmp_path):
        ctl = ServeController(chunk_ttis=50, checkpoint_dir=tmp_path)
        sid = ctl.create_session(dict(SPEC))["id"]
        ctl.start(sid)
        ctl.run(sid)
        err = api_error(ctl.checkpoint, sid, {"path": "x.ckpt"})
        assert err.status == 409
        ctl.pause(sid)
        ctl.finish(sid)


class TestCheckpointOverApi:
    def test_checkpoint_and_resume_round_trip(self, tmp_path):
        ctl = ServeController(checkpoint_dir=tmp_path / "ckpts")
        sid = ctl.create_session(dict(BARE))["id"]
        ctl.start(sid)
        ctl.step(sid, {"n_ttis": 150})
        meta = ctl.checkpoint(sid, {"path": "api.ckpt"})
        assert meta["now_us"] == 150_000
        assert (tmp_path / "ckpts" / "api.ckpt").stat().st_size == meta["bytes"]
        resumed = ctl.resume_session({"path": "api.ckpt"})
        assert resumed["resumed"] is True
        assert resumed["now_us"] == 150_000
        fp_original = ctl.finish(sid)["fingerprint"]
        fp_resumed = ctl.finish(resumed["id"])["fingerprint"]
        assert fp_original == fp_resumed == offline_fingerprint()


class TestMetricsAndTelemetry:
    def test_live_metrics_exposition(self):
        ctl = ServeController()
        sid = ctl.create_session(dict(SPEC))["id"]
        ctl.start(sid)
        ctl.step(sid, {"n_ttis": 200})
        text = ctl.metrics()
        assert f'repro_session{{id="{sid}"' in text
        assert f'repro_session_now_us{{id="{sid}"}} 200000' in text
        assert "repro_engine_events_processed" in text
        # scraping twice mid-run is repeatable and non-destructive
        assert ctl.metrics() == text
        ctl.finish(sid)

    def test_describe_with_telemetry_snapshot(self):
        ctl = ServeController()
        sid = ctl.create_session(dict(SPEC))["id"]
        ctl.start(sid)
        ctl.step(sid, {"n_ttis": 100})
        desc = ctl.describe(sid, telemetry=True)
        assert desc["telemetry"]["counters"]
        ctl.finish(sid)

    @pytest.mark.parametrize("flow_trace", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize(
        "overrides", [{}, {"rlc_mode": "am", "radio_bler": 0.1}],
        ids=["um", "am-lossy"],
    )
    def test_one_snapshot_however_the_run_is_driven(
        self, overrides, flow_trace, tmp_path
    ):
        """One-shot, stepped, checkpointed + resumed and served runs of
        one spec end with the same snapshot outside ``engine.*``."""
        spec = RunSpec(rat="lte", **SPEC, overrides=overrides)

        def session():
            return spec.session(telemetry=True, flow_trace=flow_trace).start()

        one_shot = session().finish().telemetry
        assert set(one_shot) == {"counters", "gauges"}

        stepped = session()
        for n_ttis in (1, 137, 59, 700):
            stepped.step(n_ttis=n_ttis)
        stepped.checkpoint(tmp_path / "mid.ckpt")
        resumed = SimulationSession.resume(tmp_path / "mid.ckpt")
        resumed.step(until_us=1_500_000)
        assert stepped.finish().telemetry == one_shot
        assert resumed.finish().telemetry == one_shot

        ctl = ServeController(checkpoint_dir=tmp_path)
        body = dict(SPEC, overrides=overrides, flow_trace=flow_trace,
                    heartbeat_s=0.05)
        sid = ctl.create_session(body)["id"]
        ctl.start(sid)
        ctl.step(sid, {"n_ttis": 211})
        ctl.metrics()  # a scrape mid-run takes nothing from the final count
        ctl.finish(sid)
        served = ctl.describe(sid, telemetry=True)["telemetry"]
        assert served != one_shot  # the heartbeat's own events, in engine.*
        assert canonical_telemetry(served) == canonical_telemetry(one_shot)

    def test_heartbeat_lines_surface_in_healthz(self, tmp_path):
        ctl = ServeController(checkpoint_dir=tmp_path)
        sid = ctl.create_session(dict(SPEC, heartbeat_s=0.1))["id"]
        ctl.start(sid)
        ctl.step(sid, {"n_ttis": 300})
        first = ctl.healthz()["heartbeats"][sid]
        assert first
        # Only the latest line is kept (and a checkpoint carries no more).
        ctl.step(sid, {"n_ttis": 300})
        assert ctl.healthz()["heartbeats"][sid] != first
        assert len(ctl._handles[sid].last_heartbeat) == 1
        ctl.checkpoint(sid, {"path": "beating.ckpt"})
        assert ctl.resume_session({"path": "beating.ckpt"})["now_us"] == 600_000


class TestHttpEndToEnd:
    @pytest.fixture
    def server(self, tmp_path):
        server = ReproServer(
            ServeController(chunk_ttis=100, checkpoint_dir=tmp_path / "ckpts")
        )
        port = server.start_background()
        yield f"http://127.0.0.1:{port}"
        server.stop()

    @staticmethod
    def request(base, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(base + path, data=data, method=method)
        if data:
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                raw = resp.read()
                if "text/plain" in resp.headers.get("Content-Type", ""):
                    return resp.status, raw.decode()
                return resp.status, json.loads(raw)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_full_session_over_http(self, server, tmp_path, observer={}):
        st, created = self.request(
            server, "POST", "/sessions", dict(BARE, **observer)
        )
        assert st == 200
        sid = created["id"]
        assert self.request(server, "POST", f"/sessions/{sid}/start")[0] == 200
        st, out = self.request(
            server, "POST", f"/sessions/{sid}/step", {"n_ttis": 150}
        )
        assert st == 200 and out["now_us"] == 150_000
        st, meta = self.request(
            server, "POST", f"/sessions/{sid}/checkpoint",
            {"path": "serve-smoke.ckpt"},
        )
        assert st == 200 and meta["now_us"] == 150_000
        assert (tmp_path / "ckpts" / "serve-smoke.ckpt").is_file()
        st, metrics = self.request(server, "GET", "/metrics")
        assert st == 200 and "repro_session_now_us" in metrics
        st, done = self.request(server, "POST", f"/sessions/{sid}/finish")
        assert st == 200 and done["state"] == "finished"
        assert done["fingerprint"] == offline_fingerprint()
        # resume the checkpoint as a second session: same bytes again
        st, resumed = self.request(
            server, "POST", "/sessions/resume",
            {"path": "serve-smoke.ckpt"},
        )
        assert st == 200 and resumed["resumed"] is True
        st, done2 = self.request(
            server, "POST", f"/sessions/{resumed['id']}/finish"
        )
        assert st == 200 and done2["fingerprint"] == done["fingerprint"]

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_observed_session_over_http(self, server, tmp_path, observer):
        self.test_full_session_over_http(server, tmp_path, observer)

    def test_delete_over_http(self, server):
        sid = self.request(server, "POST", "/sessions", dict(SPEC))[1]["id"]
        self.request(server, "POST", f"/sessions/{sid}/start")
        assert self.request(server, "GET", "/healthz")[1]["sessions"] == 1
        st, body = self.request(server, "DELETE", f"/sessions/{sid}")
        assert (st, body) == (200, {"id": sid, "deleted": True})
        st, body = self.request(server, "GET", f"/sessions/{sid}")
        assert (st, body["error"]) == (404, "unknown_session")
        assert self.request(server, "GET", "/healthz")[1]["sessions"] == 0
        st, body = self.request(server, "DELETE", f"/sessions/{sid}")
        assert (st, body["error"]) == (404, "unknown_session")

    def test_scrapes_repeat_and_the_last_equals_the_offline_snapshot(self, server):
        sid = self.request(server, "POST", "/sessions", dict(SPEC))[1]["id"]
        self.request(server, "POST", f"/sessions/{sid}/start")
        self.request(server, "POST", f"/sessions/{sid}/step", {"n_ttis": 150})
        first = self.request(server, "GET", "/metrics")
        assert first[0] == 200 and "repro_mac_ttis_run 150" in first[1]
        assert self.request(server, "GET", "/metrics") == first
        self.request(server, "POST", f"/sessions/{sid}/finish")
        st, desc = self.request(server, "GET", f"/sessions/{sid}?telemetry=1")
        offline = RunSpec(rat="lte", **SPEC).session(telemetry=True)
        assert st == 200
        assert desc["telemetry"] == offline.start().finish().telemetry

    def test_http_error_mapping(self, server):
        assert self.request(server, "GET", "/sessions/zzz")[0] == 404
        assert self.request(server, "GET", "/nope")[0] == 404
        st, body = self.request(server, "POST", "/sessions", {"bogus": 1})
        assert st == 400 and body["error"] == "unknown_field"
        # An override that is no SimConfig field (the removed `backend`).
        st, body = self.request(
            server, "POST", "/sessions",
            dict(SPEC, overrides={"backend": "vectorized"}),
        )
        assert st == 400 and body["error"] == "bad_spec"
        assert "backend" in body["detail"]
        assert self.request(server, "DELETE", "/sessions")[0] == 405
        st, health = self.request(server, "GET", "/healthz")
        assert st == 200 and health["status"] == "ok"

    def test_checkpoint_names_cannot_leave_the_server_directory(
        self, server, tmp_path
    ):
        """resume unpickles: only bare names under the server's directory."""
        ckpts = tmp_path / "ckpts"
        sid = self.request(server, "POST", "/sessions", dict(BARE))[1]["id"]
        self.request(server, "POST", f"/sessions/{sid}/start")
        self.request(server, "POST", f"/sessions/{sid}/checkpoint", {"path": "ok.ckpt"})
        # A real checkpoint outside the directory, and a symlink to it inside.
        outside = tmp_path / "outside.ckpt"
        outside.write_bytes((ckpts / "ok.ckpt").read_bytes())
        (ckpts / "link.ckpt").symlink_to(outside)
        (ckpts / "dangling.ckpt").symlink_to(tmp_path / "written-through-link")
        before = sorted(p.name for p in tmp_path.rglob("*"))
        hostile = ["../outside.ckpt", "../x", "/etc/passwd", str(outside),
                   "sub/x.ckpt", "..", ".", "", "link.ckpt", "dangling.ckpt", 7]
        for name in hostile:
            for route in ("/sessions/resume", f"/sessions/{sid}/checkpoint"):
                st, body = self.request(server, "POST", route, {"path": name})
                assert (st, body["error"]) == (400, "bad_request"), (route, name)
        assert sorted(p.name for p in tmp_path.rglob("*")) == before
        assert outside.read_bytes() == (ckpts / "ok.ckpt").read_bytes()
        # ... and the server is still there: the good name still resumes.
        st, resumed = self.request(
            server, "POST", "/sessions/resume", {"path": "ok.ckpt"}
        )
        assert st == 200 and resumed["resumed"] is True
        st, listed = self.request(server, "GET", "/sessions")
        assert st == 200 and len(listed["sessions"]) == 2

    def test_damaged_checkpoint_is_a_400(self, server, tmp_path):
        """A file cut short (killed writer, full disk) is the client's bad
        checkpoint, not a server fault -- and the session list is unharmed."""
        sid = self.request(server, "POST", "/sessions", dict(BARE))[1]["id"]
        self.request(server, "POST", f"/sessions/{sid}/start")
        self.request(server, "POST", f"/sessions/{sid}/step", {"n_ttis": 100})
        self.request(server, "POST", f"/sessions/{sid}/checkpoint", {"path": "ok.ckpt"})
        raw = (tmp_path / "ckpts" / "ok.ckpt").read_bytes()
        (tmp_path / "ckpts" / "half.ckpt").write_bytes(raw[: len(raw) // 2])
        st, body = self.request(
            server, "POST", "/sessions/resume", {"path": "half.ckpt"}
        )
        assert (st, body["error"]) == (400, "bad_checkpoint")
        assert "damaged payload" in body["detail"]
        st, listed = self.request(server, "GET", "/sessions")
        assert st == 200 and len(listed["sessions"]) == 1
        st, resumed = self.request(
            server, "POST", "/sessions/resume", {"path": "ok.ckpt"}
        )
        assert st == 200 and resumed["resumed"] is True

    def assert_unframeable(self, server, head: bytes):
        """``head`` answers 400 and ends its connection, not the server."""
        host, port = server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(4096):  # server closes after replying
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == "bad_request"
        # ... and the server is still there for the next client.
        st, health = self.request(server, "GET", "/healthz")
        assert st == 200 and health["status"] == "ok"

    @pytest.mark.parametrize("length", ["abc", "-5", str(2**40)])
    def test_hostile_content_length_is_a_400(self, server, length):
        self.assert_unframeable(
            server,
            f"POST /sessions HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode(),
        )

    @pytest.mark.parametrize("head", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70_000 + b"\r\n\r\n",
    ], ids=["request-line", "header"])
    def test_over_long_line_is_a_400(self, server, head, caplog):
        """A line above asyncio's 64 KiB StreamReader limit."""
        self.assert_unframeable(server, head)
        assert not caplog.records  # no "Unhandled exception in client_connected_cb"

    def test_wrong_typed_field_is_a_400_over_http(self, server, caplog):
        sid = self.request(server, "POST", "/sessions", dict(BARE))[1]["id"]
        self.request(server, "POST", f"/sessions/{sid}/start")
        listed = self.request(server, "GET", "/sessions")
        assert [s["id"] for s in listed[1]["sessions"]] == [sid]
        for route, body, error, field in WRONG_TYPED:
            st, out = self.request(server, "POST", route.format(sid=sid), body)
            assert (st, out["error"]) == (400, error), (route, body, out)
            assert field in out["detail"] and "Traceback" not in out["detail"]
            assert self.request(server, "GET", "/sessions") == listed
            st, out = self.request(
                server, "POST", f"/sessions/{sid}/step", {"n_ttis": 5}
            )
            assert st == 200 and out["state"] == "running"
        assert self.request(server, "POST", "/sessions", dict(BARE))[0] == 200
        assert not caplog.records

    def test_non_object_body_is_a_400(self, server):
        sid = self.request(server, "POST", "/sessions", dict(BARE))[1]["id"]
        self.request(server, "POST", f"/sessions/{sid}/start")
        listed = self.request(server, "GET", "/sessions")
        for route, body in [
            ("/sessions", [1]), ("/sessions", 5), ("/sessions", "abc"),
            ("/sessions", []), (f"/sessions/{sid}/step", [1]),
            (f"/sessions/{sid}/step", 7), (f"/sessions/{sid}/reconfigure", [0.5]),
            (f"/sessions/{sid}/checkpoint", "x"), ("/sessions/resume", [1]),
        ]:
            st, out = self.request(server, "POST", route, body)
            assert (st, out["error"]) == (400, "bad_request"), (route, body)
            assert out["detail"] == "body must be a JSON object"
        assert self.request(server, "GET", "/sessions") == listed
