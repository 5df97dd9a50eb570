"""Tests for resumable simulation sessions (repro.sim.session).

The load-bearing guarantee: a run driven as start / step ... checkpoint /
resume ... finish is **byte-identical** to `CellSimulation.run()` -- same
FCT records, same telemetry counters, same flow breakdowns -- for every
scheduler family and RLC mode.  Identity is asserted
through `result_fingerprint`, the same canonical hash CI's serve-smoke
job uses.
"""

import copy
import functools
import json
import pickle
import pickletools
import types
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.spec import RunSpec
from repro.runner.worker import CKPT_TTIS_ENV, _checkpoint_path, execute_spec, run_spec
from repro.sim.cell import CellSimulation
from repro.sim.config import SimConfig
from repro.sim.session import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    SessionError,
    SimulationSession,
    canonical_telemetry,
    result_fingerprint,
    result_fingerprint_payload,
)
from repro.telemetry.registry import TelemetryRegistry
from tests.golden.regenerate import (
    SESSION_CASES,
    session_case_at_checkpoint,
    session_case_config,
)

DURATION_S = 0.4
GOLDEN_DIR = Path(__file__).parent / "golden"


def make_sim(scheduler="outran", rlc_mode="um", **kwargs):
    cfg = SimConfig.lte_default(
        num_ues=3, load=0.5, seed=5, rlc_mode=rlc_mode, **kwargs
    )
    return CellSimulation(cfg, scheduler=scheduler)


def one_shot(scheduler="outran", rlc_mode="um"):
    return make_sim(scheduler, rlc_mode).run(DURATION_S)


def pickled_instances(payload: bytes) -> Counter:
    """Class name -> objects of that class the pickle builds.

    A class is named once and memoized, so counting names cannot tell one
    instance from twenty; this follows the memo just far enough to see
    which class each ``<class> <args> NEWOBJ`` instantiates.
    """
    memo, tops, built = [], [], Counter()
    for op, arg, _ in pickletools.genops(payload):
        if op.name == "MEMOIZE":
            memo.append(tops[-1])
            continue
        if op.name == "NEWOBJ" and isinstance(tops[-2], tuple):
            built[tops[-2][1]] += 1
        if op.name == "STACK_GLOBAL":
            tops.append(("class", tops[-1]))
        elif op.name in ("BINGET", "LONG_BINGET"):
            tops.append(memo[arg])
        else:
            tops.append(arg if isinstance(arg, str) else None)
    return built


def pickled_layout(path) -> tuple[int, dict[str, dict[str, frozenset[str]]]]:
    """``(header version, class -> attribute -> value type names)`` of a
    checkpoint file, over every ``repro`` object its graph holds.

    Unpickling restores each object's ``__dict__`` and slots as they were
    written, without running ``__init__``, so the names are the file's.
    The type names (``deque``, ``list``, ``Generator``, ``int``, ...) are
    unioned over a class's instances: a container or a generator swapped
    for another type under an unchanged attribute name is a layout change
    too.
    """
    with open(path, "rb") as fh:
        version = int(fh.readline().split()[1])
        root = pickle.load(fh)
    layout: dict[str, dict[str, set[str]]] = {}
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack += obj
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif isinstance(obj, functools.partial):
            stack += [obj.func, obj.args, obj.keywords]
        elif type(obj).__module__.startswith("repro."):
            cls = type(obj)
            names = set(getattr(obj, "__dict__", ()))
            for klass in cls.__mro__:
                slots = vars(klass).get("__slots__", ())
                names.update(
                    name for name in ((slots,) if isinstance(slots, str) else slots)
                    if hasattr(obj, name)
                )
            attrs = layout.setdefault(f"{cls.__module__}.{cls.__qualname__}", {})
            for name in names:
                value = getattr(obj, name)
                attrs.setdefault(name, set()).add(type(value).__qualname__)
                stack.append(value)
    return version, {
        cls: {name: frozenset(kinds) for name, kinds in attrs.items()}
        for cls, attrs in layout.items()
    }


class TestStateMachine:
    def test_step_requires_start(self):
        session = SimulationSession(make_sim(), DURATION_S)
        with pytest.raises(SessionError, match="expected running"):
            session.step(n_ttis=10)

    def test_checkpoint_requires_start(self, tmp_path):
        session = SimulationSession(make_sim(), DURATION_S)
        with pytest.raises(SessionError):
            session.checkpoint(tmp_path / "x.ckpt")

    def test_double_start_rejected(self):
        session = SimulationSession(make_sim(), DURATION_S).start()
        with pytest.raises(SessionError, match="running"):
            session.start()

    def test_finish_is_idempotent(self):
        session = SimulationSession(make_sim(), DURATION_S).start()
        first = session.finish()
        assert session.finish() is first
        assert session.result is first
        assert session.state == "finished"

    def test_step_after_finish_rejected(self):
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.finish()
        with pytest.raises(SessionError):
            session.step(n_ttis=1)

    def test_bad_durations_rejected(self):
        with pytest.raises(ValueError):
            SimulationSession(make_sim(), 0.0)
        with pytest.raises(ValueError):
            SimulationSession(make_sim(), 1.0, drain_s=-1.0)
        # 1e400 in a JSON body: refused here, not an OverflowError later.
        with pytest.raises(ValueError, match="duration_s"):
            SimulationSession(make_sim(), float("inf"))
        with pytest.raises(ValueError, match="drain_s"):
            SimulationSession(make_sim(), 1.0, drain_s=float("inf"))

    def test_step_argument_validation(self):
        session = SimulationSession(make_sim(), DURATION_S).start()
        with pytest.raises(ValueError, match="not both"):
            session.step(n_ttis=5, until_us=100)
        with pytest.raises(ValueError, match="positive"):
            session.step(n_ttis=0)
        session.finish()

    def test_step_never_moves_backwards(self):
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.step(n_ttis=50)
        at = session.now_us
        session.step(until_us=at - 10_000)  # clamps to now, not backwards
        assert session.now_us == at
        session.finish()

    def test_progress_and_snapshot_shape(self):
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.step(n_ttis=100)
        progress = session.progress()
        assert progress["state"] == "running"
        assert progress["now_us"] == 100_000
        assert 0 < progress["progress"] < 1
        snap = session.snapshot()
        assert snap["scheduler"].startswith("outran")
        assert "backend" not in snap
        assert snap["mlfq_thresholds"]
        assert snap["resumed"] is False
        session.finish()


GRID = [
    ("outran", "um"),
    ("outran", "am"),
    ("pf", "um"),
    ("srjf", "am"),
    ("mlfq_strict", "um"),
]


class TestByteIdentity:
    @pytest.mark.parametrize("scheduler,rlc_mode", GRID)
    def test_stepped_equals_one_shot(self, scheduler, rlc_mode, tmp_path):
        """step / checkpoint / resume / finish == run(), to the byte."""
        baseline = result_fingerprint(one_shot(scheduler, rlc_mode))

        session = SimulationSession(
            make_sim(scheduler, rlc_mode), DURATION_S
        ).start()
        session.step(n_ttis=137)
        ckpt = tmp_path / "mid.ckpt"
        session.checkpoint(ckpt)
        resumed = SimulationSession.resume(ckpt)
        assert resumed._resumed is True
        resumed.step(until_us=900_000)
        result = resumed.finish()
        assert result_fingerprint(result) == baseline

    def test_identity_includes_telemetry_and_breakdowns(self, tmp_path):
        def instrumented():
            cfg = SimConfig.lte_default(num_ues=3, load=0.5, seed=5)
            return CellSimulation(
                cfg, scheduler="outran",
                telemetry=TelemetryRegistry(), flow_trace=True,
            )

        baseline = instrumented().run(DURATION_S)
        assert baseline.telemetry is not None
        assert baseline.flow_breakdowns

        session = SimulationSession(instrumented(), DURATION_S).start()
        session.step(n_ttis=211)
        ckpt = tmp_path / "mid.ckpt"
        session.checkpoint(ckpt)
        result = SimulationSession.resume(ckpt).finish()
        assert result_fingerprint_payload(result) == result_fingerprint_payload(
            baseline
        )

    def test_run_shim_still_works(self):
        """CellSimulation.run() (deprecated path) routes through a session."""
        result = one_shot()
        assert result.completed_flows > 0


class TestIdentityIsTheOutcome:
    """``result_fingerprint`` covers what a run simulated, not how many
    heap entries the host popped to simulate it (docs/ARCHITECTURE.md,
    "What identity covers")."""

    @pytest.fixture(scope="class")
    def result(self):
        cfg = SimConfig.lte_default(num_ues=3, load=0.5, seed=5)
        return CellSimulation(
            cfg, scheduler="outran", telemetry=TelemetryRegistry()
        ).run(DURATION_S)

    @pytest.mark.parametrize(
        "section,name,moves",
        [
            ("extra", "events", False),
            ("counters", "engine.events_processed", False),
            ("gauges", "engine.queue_depth", False),
            ("extra", "tbs_lost", True),
            ("counters", "tcp.retransmits", True),
        ],
    )
    def test_only_outcome_values_are_hashed(self, result, section, name, moves):
        changed = copy.deepcopy(result)
        values = changed.extra if section == "extra" else changed.telemetry[section]
        values[name] += 1
        assert (result_fingerprint(changed) != result_fingerprint(result)) == moves

    def test_every_name_outside_engine_moves_the_hash(self, result):
        """The rule is one prefix: ``engine.*`` is mechanism, every other
        name a real snapshot carries is outcome."""
        assert set(result.telemetry) == {"counters", "gauges"}
        baseline = result_fingerprint(result)
        names = [(s, n) for s, values in result.telemetry.items() for n in values]
        assert len(names) > 30
        for section, name in names:
            changed = copy.deepcopy(result)
            changed.telemetry[section][name] += 1
            moved = result_fingerprint(changed) != baseline
            assert moved == (not name.startswith("engine.")), name

    def test_canonical_telemetry_drops_engine_names_and_nothing_else(self, result):
        canonical = canonical_telemetry(result.telemetry)
        for section, values in result.telemetry.items():
            kept = {n: v for n, v in values.items() if not n.startswith("engine.")}
            assert canonical.pop(section) == kept and len(kept) < len(values)
        # What is left is the empty section pinned fingerprints were cut with.
        assert canonical == {"histograms": {}}

    def test_one_fct_record_moves_the_hash(self, result):
        changed = copy.deepcopy(result)
        changed._c._records[4] += 1  # row 0's end_us
        assert result_fingerprint(changed) != result_fingerprint(result)

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_observers_are_invisible_to_identity(self, telemetry):
        """A heartbeat and a no-op RIC put events of their own on the
        engine and change nothing the run computes."""

        def run(observe):
            cfg = SimConfig.lte_default(num_ues=3, load=0.5, seed=5)
            session = SimulationSession.from_config(
                cfg, "outran", duration_s=DURATION_S,
                telemetry=TelemetryRegistry() if telemetry else None,
            )
            observe(session)
            return session.start().finish()

        results = [
            run(lambda session: None),
            run(lambda session: session.sim.attach_heartbeat(
                period_s=0.05, emit=[].append
            )),
            run(lambda session: session.attach_ric(xapps=["noop"])),
        ]
        assert len({result_fingerprint(r) for r in results}) == 1
        assert len({r.extra["events"] for r in results}) == 3


class TestHypothesisStepBoundaries:
    BASELINE = None

    @classmethod
    def baseline_fp(cls):
        if cls.BASELINE is None:
            cls.BASELINE = result_fingerprint(one_shot())
        return cls.BASELINE

    @settings(max_examples=8, deadline=None)
    @given(steps=st.lists(st.integers(min_value=1, max_value=800), min_size=1,
                          max_size=5))
    def test_any_step_split_is_identical(self, steps):
        session = SimulationSession(make_sim(), DURATION_S).start()
        for n in steps:
            session.step(n_ttis=n)
        result = session.finish()
        assert result_fingerprint(result) == self.baseline_fp()


class TestCheckpointFormat:
    def test_header_magic_and_version(self, tmp_path):
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.step(n_ttis=10)
        meta = session.checkpoint(tmp_path / "s.ckpt")
        raw = (tmp_path / "s.ckpt").read_bytes()
        assert raw.startswith(
            CHECKPOINT_MAGIC + b" %d\n" % CHECKPOINT_VERSION
        )
        assert meta["bytes"] == len(raw)
        assert meta["now_us"] == session.now_us
        session.finish()

    def test_not_a_checkpoint_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"PNG\x89 nonsense\n" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            SimulationSession.resume(bad)

    def test_future_version_rejected(self, tmp_path):
        bad = tmp_path / "v99.ckpt"
        bad.write_bytes(CHECKPOINT_MAGIC + b" 99\n" + pickle.dumps(object()))
        with pytest.raises(CheckpointError, match="v99 not supported"):
            SimulationSession.resume(bad)

    def test_previous_version_rejected(self, tmp_path):
        # v1 graphs predate the single execution path (SimConfig, XNodeB,
        # TcpFlow and UmReceiver layouts differ), v2 graphs the single
        # scheduler feed (XNodeB, SchedArrays), v3 graphs flow retirement
        # and the typed columns (CellSimulation, MetricsCollector,
        # AmReceiver, FlowTracer), v4 graphs the list-cell Event and the
        # crossing stamps on Packet, v5 graphs the one MAC row per UE
        # (CellSimulation, XNodeB, UeContext), v6 graphs the one fader and
        # the one copy of the radio state (ChannelModel, UeChannel,
        # UeContext, FlowRuntime), v7 graphs the registry that is None when
        # off and has no third section (CellSimulation, XNodeB,
        # EventEngine, TelemetryRegistry), v8 graphs the AM entity that
        # wrapped a UM one (AmTransmitter), v9 graphs the per-UE deques and
        # eager generators (MlfqQueue, HarqEntity, AmTransmitter,
        # EcnMarker), v10 graphs the per-flow record objects
        # (MetricsCollector, FlowTracer), v11 graphs the SACK interval
        # lists and the receiver's segment dict (TcpFlow, TcpReceiver):
        # refuse, never half-load.
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
            old = tmp_path / f"v{version}.ckpt"
            old.write_bytes(
                CHECKPOINT_MAGIC + b" %d\n" % version + pickle.dumps(object())
            )
            with pytest.raises(CheckpointError, match=f"v{version} not supported"):
                SimulationSession.resume(old)

    def test_running_cell_pickles_one_mac_row_per_ue(self, tmp_path):
        """The xNodeB's table is the only per-UE MAC state in the graph."""
        session = SimulationSession(
            make_sim("srjf", "am", radio_bler=0.1), DURATION_S
        ).start()
        table = session.sim.enb._table
        while not (table.active.any() or session.done):
            session.step(n_ttis=1)
        assert table.active.any()
        session.checkpoint(tmp_path / "s.ckpt")
        raw = (tmp_path / "s.ckpt").read_bytes()
        names = {
            arg for _, arg, _ in pickletools.genops(raw[raw.index(b"\n") + 1:])
            if isinstance(arg, str)
        }
        assert "SchedArrays" in names and "AmTransmitter" in names
        assert not {"UeSchedState", "BufferStatusReport"} & names
        assert not [name for name in names if "profiler" in name.lower()]

    def test_running_cell_pickles_one_fader_and_one_radio_state(self, tmp_path):
        """The cell's fader and SINR/CQI matrices are in the graph once;
        a UeChannel brings no array, generator or fader of its own."""
        import numpy as np

        cfg = SimConfig.lte_default(num_ues=20, load=0.5, seed=5)
        session = SimulationSession(
            CellSimulation(cfg, scheduler="outran"), DURATION_S
        ).start()
        session.step(n_ttis=50)
        session.checkpoint(tmp_path / "s.ckpt")
        raw = (tmp_path / "s.ckpt").read_bytes()
        built = pickled_instances(raw[raw.index(b"\n") + 1:])
        assert built["_Ar1Fader"] == 1
        assert built["ChannelModel"] == 1 and built["UeChannel"] == 20

        resumed = SimulationSession.resume(tmp_path / "s.ckpt")
        model = resumed.sim.channel
        assert model._fader.shape == model._cqi.shape == model._sinr_db.shape
        for i, ue in enumerate(resumed.sim.ues):
            assert not [
                name for name, value in vars(ue.channel).items()
                if isinstance(value, (np.ndarray, np.random.Generator))
            ]
            assert np.shares_memory(ue.channel.reported_cqi, model._cqi)
            assert np.array_equal(ue.channel.reported_cqi, model._cqi[i])
        assert result_fingerprint(resumed.finish()) == result_fingerprint(
            session.finish()
        )

    def test_damaged_payload_rejected(self, tmp_path):
        """Half a file, a header with nothing behind it, a header followed
        by something else: a structured error, never pickle's own."""
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.step(n_ttis=100)
        good = tmp_path / "s.ckpt"
        session.checkpoint(good)
        raw = good.read_bytes()
        header = raw[: raw.index(b"\n") + 1]
        damaged = {
            "half": raw[: len(raw) // 2],
            "header-only": header,
            "garbage": header + b"\x00not a pickle" * 40,
        }
        for name, data in damaged.items():
            bad = tmp_path / f"{name}.ckpt"
            bad.write_bytes(data)
            with pytest.raises(CheckpointError, match="damaged payload"):
                SimulationSession.resume(bad)
        assert result_fingerprint(
            SimulationSession.resume(good).finish()
        ) == result_fingerprint(session.finish())

    def test_wrong_payload_type_rejected(self, tmp_path):
        bad = tmp_path / "dict.ckpt"
        bad.write_bytes(
            CHECKPOINT_MAGIC + b" %d\n" % CHECKPOINT_VERSION
            + pickle.dumps({"not": "a session"})
        )
        with pytest.raises(CheckpointError, match="holds dict"):
            SimulationSession.resume(bad)

    def test_unpicklable_hook_raises_checkpoint_error(self, tmp_path):
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.sim._unpicklable = lambda: None
        with pytest.raises(CheckpointError, match="does not pickle"):
            session.checkpoint(tmp_path / "x.ckpt")

    def test_failed_checkpoint_keeps_the_previous_one(self, tmp_path):
        """The graph streams into a sibling that only replaces ``path``
        when complete: a failure half-way costs nothing already saved."""
        baseline = result_fingerprint(one_shot())
        path = tmp_path / "s.ckpt"
        session = SimulationSession(make_sim(), DURATION_S).start()
        session.step(n_ttis=137)
        session.checkpoint(path)
        saved = path.read_bytes()
        session.step(n_ttis=50)
        # An unpicklable completion hook, reached after the engine, the
        # UEs and the xNodeB are already in the stream.
        session.sim._completion_hooks[-1] = lambda now_us: None
        with pytest.raises(CheckpointError, match="does not pickle"):
            session.checkpoint(path)
        assert path.read_bytes() == saved
        assert list(tmp_path.iterdir()) == [path]  # no temp file behind
        resumed = SimulationSession.resume(path)
        assert resumed.now_us == 137 * session.sim.config.tti_us
        assert result_fingerprint(resumed.finish()) == baseline


class TestGoldenCheckpoint:
    """The committed checkpoint files must keep resuming bit-identically.

    Regenerated by ``tests/golden/regenerate.py`` after an *intentional*
    format or behaviour change; see that module's docstring.
    """

    def resume_to_pinned_fingerprint(self, name):
        expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        session = SimulationSession.resume(GOLDEN_DIR / f"{name}.ckpt")
        assert session.now_us == expected["checkpoint_now_us"]
        # Written with 32-bit logs; no value of the case needs 64.
        assert session.sim.metrics._queue_delay_us.typecode == "i"
        result = session.finish()
        assert session.sim.metrics._queue_delay_us.typecode == "i"
        assert result_fingerprint(result) == expected["fingerprint"]
        assert result.completed_flows == expected["completed_flows"]
        # ...which is also what the same case gives in one go today.
        fresh = CellSimulation(
            session_case_config(name), scheduler=expected["scheduler"]
        ).run(expected["duration_s"])
        assert result_fingerprint(fresh) == expected["fingerprint"]

    def test_golden_checkpoint_resumes_to_pinned_fingerprint(self):
        self.resume_to_pinned_fingerprint("session-outran-um")

    def test_am_lossy_checkpoint_resumes_to_pinned_fingerprint(self):
        self.resume_to_pinned_fingerprint("session-outran-am-lossy")

    @pytest.mark.parametrize("name", sorted(SESSION_CASES))
    def test_layout_change_bumps_checkpoint_version(self, name, tmp_path):
        """A pickled layout that differs from the frozen file's must come
        with a new ``CHECKPOINT_VERSION``: the resume tests above only
        notice a layout change that breaks this one case's outcome."""
        session_case_at_checkpoint(name).checkpoint(tmp_path / "now.ckpt")
        frozen_version, frozen = pickled_layout(GOLDEN_DIR / f"{name}.ckpt")
        _, current = pickled_layout(tmp_path / "now.ckpt")
        changed = sorted(
            cls for cls in frozen.keys() | current.keys()
            if frozen.get(cls) != current.get(cls)
        )
        assert frozen_version != CHECKPOINT_VERSION or not changed, (
            f"pickled layout of {changed} differs from {name}.ckpt at "
            f"v{CHECKPOINT_VERSION}: bump CHECKPOINT_VERSION and re-freeze "
            "with tests/golden/regenerate.py"
        )


class TestRicOnSessions:
    def test_attach_ric_and_reconfigure(self):
        session = SimulationSession(make_sim(), DURATION_S)
        session.attach_ric(xapps=["noop"], period_us=50_000)
        session.start()
        session.step(n_ttis=100)
        out = session.reconfigure(epsilon=0.25)
        assert out["control"]["accepted"] is True
        session.step(n_ttis=2)  # controls apply at the next TTI boundary
        assert session.snapshot()["epsilon"] == 0.25
        report = session.ric_report()
        assert report["indications"]
        session.finish()

    def test_reconfigure_rejection_is_structured(self):
        from repro.ric.guardrails import GuardrailRejection

        session = SimulationSession(make_sim(), DURATION_S).start()
        with pytest.raises(GuardrailRejection) as exc:
            session.reconfigure(thresholds=[100_000, 50_000, 20_000])
        body = exc.value.as_dict()
        assert body["error"] == "guardrail_rejected"
        assert body["request"]["thresholds"] == [100_000, 50_000, 20_000]
        session.finish()

    def test_ric_hot_swap_and_period(self):
        session = SimulationSession(make_sim(), DURATION_S)
        session.attach_ric(xapps=["noop"], period_us=100_000)
        session.start()
        out = session.reconfigure(ric_period_us=50_000, ric_xapps=["hillclimb"])
        assert out["ric_period_us"] == 50_000
        assert out["ric_xapps"] == ["hillclimb"]
        assert session.ric.describe()["xapps"] == ["hillclimb"]
        session.finish()

    def test_double_attach_rejected(self):
        session = SimulationSession(make_sim(), DURATION_S)
        session.attach_ric(xapps=["noop"])
        with pytest.raises(SessionError, match="already attached"):
            session.attach_ric(xapps=["noop"])

    def test_checkpoint_carries_the_ric(self, tmp_path):
        session = SimulationSession(make_sim(), DURATION_S)
        session.attach_ric(xapps=["hillclimb"], period_us=50_000)
        session.start()
        session.step(n_ttis=120)
        session.checkpoint(tmp_path / "ric.ckpt")
        resumed = SimulationSession.resume(tmp_path / "ric.ckpt")
        assert resumed.ric is not None
        assert resumed.ric.describe()["xapps"] == ["hillclimb"]
        resumed.finish()
        assert resumed.ric_report()["indications"]


class TestWorkerCheckpointing:
    SPEC = RunSpec(
        rat="lte", scheduler="outran", load=0.5, seed=7, num_ues=3,
        duration_s=DURATION_S,
    )

    def test_env_gated_checkpoint_run_is_identical(self, tmp_path, monkeypatch):
        baseline = result_fingerprint(execute_spec(self.SPEC))
        monkeypatch.setenv(CKPT_TTIS_ENV, "400")
        key, result = run_spec(self.SPEC, store_root=str(tmp_path))
        assert result_fingerprint(result) == baseline
        # the checkpoint is transient: cleaned up after a completed run
        assert not _checkpoint_path(str(tmp_path), self.SPEC.key()).exists()

    def test_preempted_worker_resumes_from_checkpoint(self, tmp_path, monkeypatch):
        baseline = result_fingerprint(execute_spec(self.SPEC))
        monkeypatch.setenv(CKPT_TTIS_ENV, "400")
        ckpt = _checkpoint_path(str(tmp_path), self.SPEC.key())
        ckpt.parent.mkdir(parents=True)
        # simulate the preempted first attempt: partial run, checkpoint, die
        session = SimulationSession(
            CellSimulation(self.SPEC.to_config(), scheduler=self.SPEC.scheduler),
            duration_s=self.SPEC.duration_s,
        ).start()
        session.step(n_ttis=600)
        session.checkpoint(ckpt)
        # the retry picks the checkpoint up and must land on the same bytes
        result = execute_spec(self.SPEC, checkpoint_path=ckpt)
        assert result_fingerprint(result) == baseline
        assert not ckpt.exists()

    def test_torn_checkpoint_falls_back_to_fresh_run(self, tmp_path, monkeypatch):
        baseline = result_fingerprint(execute_spec(self.SPEC))
        monkeypatch.setenv(CKPT_TTIS_ENV, "400")
        ckpt = _checkpoint_path(str(tmp_path), self.SPEC.key())
        ckpt.parent.mkdir(parents=True)
        for header in (b"REPROCKPT 1\n", b"REPROCKPT %d\n" % CHECKPOINT_VERSION):
            ckpt.write_bytes(header + b"truncated-mid-write")
            result = execute_spec(self.SPEC, checkpoint_path=ckpt)
            assert result_fingerprint(result) == baseline
