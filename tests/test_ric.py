"""Tests for the Near-RT RIC subsystem (repro.ric).

Covers the guardrails (rejections and clamping), the E2 node's control
application on a live cell, xApp registry/lifecycle, the byte-identity
guarantee (a no-op xApp must not perturb the simulation), and the
hill-climbing xApp's closed-loop behaviour under non-stationary load.
"""

import json

import pytest

from repro.cli import main
from repro.core.mlfq import MlfqConfig
from repro.ric import (
    CellE2Node,
    E2ControlRequest,
    Guardrails,
    HillClimbXApp,
    NearRTRIC,
    NoOpXApp,
    TunableParams,
    make_xapp,
    register_xapp,
)
from repro.ric.xapp import XAPP_FACTORIES
from repro.sim.cell import CellSimulation
from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession
from repro.traffic.nonstationary import NonStationaryLoad

#: The tunable state of a default OutRAN cell (epsilon 0.2, the paper's
#: MLFQ ladder, periodic boost disabled).
DEFAULT_PARAMS = TunableParams(
    epsilon=0.2,
    thresholds=MlfqConfig().thresholds,
    boost_period_us=None,
)


def _request(**kwargs) -> E2ControlRequest:
    return E2ControlRequest(xapp="test", **kwargs)


class TestGuardrails:
    def setup_method(self):
        self.guard = Guardrails()

    def test_empty_request_rejected(self):
        decision = self.guard.validate(DEFAULT_PARAMS, _request())
        assert not decision.accepted
        assert "changes nothing" in decision.detail

    def test_decreasing_thresholds_rejected(self):
        decision = self.guard.validate(
            DEFAULT_PARAMS, _request(thresholds=(100_000, 50_000, 400_000))
        )
        assert not decision.accepted

    def test_equal_thresholds_rejected(self):
        # MlfqConfig's start-time check tolerates equal adjacent
        # thresholds; the runtime guardrail must not.
        decision = self.guard.validate(
            DEFAULT_PARAMS, _request(thresholds=(50_000, 50_000, 400_000))
        )
        assert not decision.accepted
        assert "strictly increasing" in decision.detail

    def test_queue_count_immutable(self):
        decision = self.guard.validate(
            DEFAULT_PARAMS, _request(thresholds=(10_000, 100_000))
        )
        assert not decision.accepted
        assert "immutable" in decision.detail

    def test_negative_boost_rejected(self):
        decision = self.guard.validate(
            DEFAULT_PARAMS, _request(boost_period_us=-1)
        )
        assert not decision.accepted

    def test_epsilon_untunable_when_not_outran(self):
        params = TunableParams(
            epsilon=None, thresholds=DEFAULT_PARAMS.thresholds,
            boost_period_us=None,
        )
        decision = self.guard.validate(params, _request(epsilon=0.3))
        assert not decision.accepted
        assert "not tunable" in decision.detail

    def test_thresholds_untunable_without_mlfq(self):
        params = TunableParams(epsilon=0.2, thresholds=(), boost_period_us=None)
        decision = self.guard.validate(params, _request(thresholds=(1, 2, 3)))
        assert not decision.accepted

    def test_epsilon_step_clamped(self):
        decision = self.guard.validate(DEFAULT_PARAMS, _request(epsilon=0.9))
        assert decision.accepted
        assert decision.epsilon == pytest.approx(0.2 + 0.25)
        assert "clamped" in decision.detail

    def test_epsilon_bounds_clamped(self):
        decision = self.guard.validate(DEFAULT_PARAMS, _request(epsilon=-1.0))
        assert decision.accepted
        assert decision.epsilon == 0.0

    def test_threshold_factor_clamped(self):
        thresholds = (1_000, 10_000, 100_000)
        params = TunableParams(
            epsilon=0.2, thresholds=thresholds, boost_period_us=None
        )
        decision = self.guard.validate(
            params, _request(thresholds=(10_000, 100_000, 1_000_000))
        )
        assert decision.accepted
        # Each threshold moved by at most max_threshold_factor (4x).
        assert decision.thresholds == (4_000, 40_000, 400_000)

    def test_clamp_collapse_rejected(self):
        # Shrinking a tight ladder into the absolute floor would produce
        # equal thresholds; the guardrail must reject, not collapse.
        params = TunableParams(
            epsilon=0.2, thresholds=(300, 400, 500), boost_period_us=None
        )
        decision = self.guard.validate(
            params, _request(thresholds=(150, 200, 250))
        )
        assert not decision.accepted
        assert "strictly increasing" in decision.detail

    def test_boost_clamped_to_band(self):
        decision = self.guard.validate(
            DEFAULT_PARAMS, _request(boost_period_us=1)
        )
        assert decision.accepted
        assert decision.boost_period_us == Guardrails().min_boost_period_us

    def test_boost_zero_disables(self):
        decision = self.guard.validate(
            DEFAULT_PARAMS, _request(boost_period_us=0)
        )
        assert decision.accepted
        assert decision.boost_period_us == 0

    def test_valid_request_passes_unclamped(self):
        decision = self.guard.validate(
            DEFAULT_PARAMS,
            _request(epsilon=0.3, thresholds=(10_000, 50_000, 500_000)),
        )
        assert decision.accepted
        assert decision.detail == "ok"
        assert decision.epsilon == pytest.approx(0.3)
        assert decision.thresholds == (10_000, 50_000, 500_000)


def _small_sim(scheduler="outran", **overrides):
    cfg = SimConfig.lte_default(num_ues=3, seed=5, **overrides)
    return CellSimulation(cfg, scheduler=scheduler)


class TestE2Node:
    def test_current_params_outran(self):
        node = CellE2Node(_small_sim())
        params = node.current_params()
        assert params.epsilon == pytest.approx(0.2)
        assert params.thresholds == MlfqConfig().thresholds
        assert params.boost_period_us is None

    def test_current_params_pf(self):
        node = CellE2Node(_small_sim("pf"))
        params = node.current_params()
        assert params.epsilon is None
        assert params.thresholds is None or params.thresholds == ()

    def test_indication_carries_kpis_and_params(self):
        sim = _small_sim()
        node = CellE2Node(sim)
        sim.run(0.2)
        ind = node.indication()
        assert ind.seq == 1
        assert node.indication().seq == 2
        assert ind.kpi.flows_completed >= 0
        assert ind.params.epsilon == pytest.approx(0.2)

    def test_control_applied_at_tti_boundary(self):
        sim = _small_sim()
        node = CellE2Node(sim)
        ack = node.control(
            _request(
                epsilon=0.4,
                thresholds=(10_000, 50_000, 500_000),
                boost_period_us=200_000,
            )
        )
        assert ack.accepted
        # Deferred: nothing changes until the next TTI boundary runs.
        assert sim.scheduler.epsilon == pytest.approx(0.2)
        sim.run(0.05)
        assert sim.scheduler.epsilon == pytest.approx(0.4)
        assert sim.priority_boost_period_us == 200_000
        for ue in sim.ues:
            assert ue.flow_table.config.thresholds == (10_000, 50_000, 500_000)
            assert ue.rlc.queue.config.thresholds == (10_000, 50_000, 500_000)
        assert node.controls_accepted == 1

    def test_am_reports_per_level_backlog_and_takes_controls(self):
        """The AM entity's Tx queue goes by the UM name: one `queue`."""
        sim = _small_sim(rlc_mode="am", load=2.0)
        node = CellE2Node(sim)
        session = SimulationSession(sim, 0.3).start()
        session.step(n_ttis=150)
        kpi = node.indication().kpi
        assert kpi.queued_bytes > 0
        assert len(kpi.mlfq_level_bytes) == MlfqConfig().num_queues
        assert sum(kpi.mlfq_level_bytes) == kpi.queued_bytes
        assert node.control(_request(thresholds=(10_000, 50_000, 500_000))).accepted
        session.step(n_ttis=1)
        for ue in sim.ues:
            assert ue.flow_table.config.thresholds == (10_000, 50_000, 500_000)
            assert ue.rlc.queue.config.thresholds == (10_000, 50_000, 500_000)
        session.finish()

    def test_rejected_control_changes_nothing(self):
        sim = _small_sim()
        node = CellE2Node(sim)
        before = node.current_params()
        ack = node.control(_request(thresholds=(10_000, 100_000)))
        assert not ack.accepted
        sim.run(0.05)
        assert node.current_params() == before
        assert node.controls_rejected == 1

    def test_boost_disable_roundtrip(self):
        sim = _small_sim(priority_reset_period_us=500_000)
        node = CellE2Node(sim)
        assert node.current_params().boost_period_us == 500_000
        ack = node.control(_request(boost_period_us=0))
        assert ack.accepted
        sim.run(0.05)
        assert sim.priority_boost_period_us is None


class TestXAppRegistry:
    def test_make_by_name(self):
        assert isinstance(make_xapp("noop"), NoOpXApp)
        assert isinstance(make_xapp("hillclimb"), HillClimbXApp)

    def test_instance_passthrough(self):
        xapp = NoOpXApp()
        assert make_xapp(xapp) is xapp

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="noop"):
            make_xapp("nonsense")

    def test_register_custom(self):
        class Custom(NoOpXApp):
            name = "custom-test"

        register_xapp("custom-test", Custom)
        try:
            assert isinstance(make_xapp("custom-test"), Custom)
        finally:
            XAPP_FACTORIES.pop("custom-test", None)


def _cli_json(tmp_path, name, extra):
    path = tmp_path / f"{name}.json"
    args = [
        "run", "--scheduler", "outran", "--ues", "3", "--load", "0.5",
        "--duration", "1", "--seed", "9", "--json", str(path),
    ] + extra
    assert main(args) == 0
    return path.read_text()


class TestByteIdentity:
    def test_noop_xapp_is_invisible(self, tmp_path, capsys):
        plain = _cli_json(tmp_path, "plain", [])
        ric = _cli_json(tmp_path, "ric", ["--ric", "--ric-xapp", "noop"])
        assert plain == ric

    def test_ric_report_written(self, tmp_path, capsys):
        report = tmp_path / "ric.json"
        _cli_json(
            tmp_path, "reported",
            ["--ric", "--ric-xapp", "noop", "--ric-report", str(report)],
        )
        doc = json.loads(report.read_text())
        assert doc["xapps"] == ["noop"]
        assert doc["indications"] >= 1
        assert doc["controls_accepted"] == 0


#: The non-stationary scale at which static tuning demonstrably loses:
#: 12 UEs through a calm -> burst -> settle schedule.  Deterministic
#: (fixed sim + schedule seeds), ~5 s wall per run.
CONVERGENCE_UES = 12
CONVERGENCE_SEED = 3
BAD_THRESHOLDS = (500, 1_000, 2_000)


def _burst_run(xapp=None, thresholds=None):
    overrides = {}
    if thresholds is not None:
        overrides["mlfq"] = MlfqConfig(
            num_queues=len(thresholds) + 1, thresholds=thresholds
        )
    cfg = SimConfig.lte_default(
        num_ues=CONVERGENCE_UES, seed=CONVERGENCE_SEED, **overrides
    )
    sim = CellSimulation(cfg, scheduler="outran:0.2")
    schedule = NonStationaryLoad.burst(
        low=0.55, high=1.4, settle=0.8, phase_s=3.0, seed=11
    )
    schedule.provide_to(sim)
    ric = None
    if xapp is not None:
        ric = NearRTRIC(CellE2Node(sim), period_us=250_000)
        ric.load_xapps([xapp])
        ric.start()
    result = sim.run(schedule.total_duration_s)
    return result.pctl_fct_ms(95), (ric.report() if ric else None)


class TestHillClimbConvergence:
    def test_recovers_from_bad_thresholds(self):
        """Closed loop climbs out of a pathological MLFQ ladder.

        Static (500, 1000, 2000) demotes every flow to the lowest level
        almost immediately, destroying the short-flow win.  The
        hill-climbing xApp (thresholds dimension only, so the test
        isolates the mechanism) must recover a large part of the gap to
        a sane ladder.
        """
        static_p95, _ = _burst_run(thresholds=BAD_THRESHOLDS)
        adaptive_p95, report = _burst_run(
            xapp=HillClimbXApp(dimensions=("thresholds",), min_window_flows=8),
            thresholds=BAD_THRESHOLDS,
        )
        assert report["controls_accepted"] > 0
        assert adaptive_p95 < 0.9 * static_p95, (
            f"hill climb failed to escape bad thresholds: "
            f"adaptive p95 {adaptive_p95:.1f} ms vs static {static_p95:.1f} ms"
        )

    def test_beats_static_default(self):
        """Adaptive tuning beats the static paper defaults under burst."""
        static_p95, _ = _burst_run()
        adaptive_p95, report = _burst_run(
            xapp=HillClimbXApp(
                dimensions=("epsilon", "thresholds"), min_window_flows=8
            )
        )
        assert report["controls_accepted"] > 0
        assert report["controls_rejected"] == 0
        assert adaptive_p95 < static_p95, (
            f"adaptive p95 {adaptive_p95:.1f} ms not better than "
            f"static default {static_p95:.1f} ms"
        )
