"""Tests for repro.cc: pluggable congestion control and ECN/AQM.

The load-bearing guarantee of the refactor: with ``cc="cubic"`` and AQM
disabled (or enabled but never marking), simulation output is
byte-identical to the pre-refactor inline-Cubic sender -- asserted
through ``result_fingerprint`` and, independently, by
the unchanged golden corpus.  On top of that sit behavioural tests for
the marker, DCTCP's EWMA cut, checkpoint round-tripping of
CC state, and the fail-fast sweep validation.
"""

import math

import pytest

from repro.cc import AQM_NAMES, CC_NAMES, make_aqm, make_cc
from repro.cc.aqm import EcnMarker
from repro.cc.cubic import CubicCC
from repro.cc.dctcp import DctcpCC
from repro.net.tcp import DEFAULT_MSS, TcpFlow
from repro.runner.spec import RunSpec, SweepSpec
from repro.sim.cell import CellSimulation
from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession, result_fingerprint
from repro.telemetry.registry import TelemetryRegistry

DURATION_S = 0.4


def make_sim(telemetry=None, **overrides):
    cfg = SimConfig.lte_default(num_ues=3, load=0.5, seed=5, **overrides)
    return CellSimulation(cfg, scheduler="outran", telemetry=telemetry)


# ---------------------------------------------------------------------------
# Factory


class TestFactory:
    def test_known_names(self):
        assert CC_NAMES == ("cubic", "dctcp")
        assert isinstance(make_cc("cubic"), CubicCC)
        assert isinstance(make_cc("dctcp"), DctcpCC)

    def test_unknown_name_rejected(self):
        for name in ("reno", "bbr"):
            with pytest.raises(ValueError, match="unknown congestion control"):
                make_cc(name)

    def test_initial_cwnd(self):
        cc = make_cc("dctcp", initial_cwnd_segments=4)
        assert cc.cwnd_bytes == 4 * DEFAULT_MSS

    def test_config_validates_names(self):
        with pytest.raises(ValueError, match="congestion control"):
            SimConfig.lte_default(cc="reno")
        with pytest.raises(ValueError, match="aqm"):
            SimConfig.lte_default(aqm="codel")
        with pytest.raises(ValueError):
            SimConfig.lte_default(aqm="red", ecn_min_sdus=40, ecn_max_sdus=10)


# ---------------------------------------------------------------------------
# ECN marker


class TestEcnMarker:
    def test_validation(self):
        with pytest.raises(ValueError):
            EcnMarker(min_sdus=0, max_sdus=5)
        with pytest.raises(ValueError):
            EcnMarker(min_sdus=10, max_sdus=5)
        with pytest.raises(ValueError):
            EcnMarker(min_sdus=5, max_sdus=10, mark_prob=0.0)
        with pytest.raises(ValueError):
            EcnMarker(min_sdus=5, max_sdus=10, mark_prob=1.5)

    def test_step_threshold_is_deterministic(self):
        """min == max is a DCTCP-style step: no randomness involved."""
        marker = EcnMarker(min_sdus=30, max_sdus=30)
        assert not any(marker.should_mark(q) for q in range(30))
        assert all(marker.should_mark(q) for q in range(30, 100))

    def test_ramp_is_monotonic_in_occupancy(self):
        """Marking frequency grows with queue depth across the ramp."""
        marker = EcnMarker(min_sdus=10, max_sdus=50, seed=3)
        trials = 400
        freq = {
            q: sum(marker.should_mark(q) for _ in range(trials)) / trials
            for q in (5, 20, 40, 60)
        }
        assert freq[5] == 0.0
        assert freq[60] == 1.0
        assert freq[5] < freq[20] < freq[40] <= freq[60]

    def test_seeded_and_reproducible(self):
        a = EcnMarker(10, 50, seed=1)
        b = EcnMarker(10, 50, seed=1)
        draws_a = [a.should_mark(30) for _ in range(50)]
        draws_b = [b.should_mark(30) for _ in range(50)]
        assert draws_a == draws_b

    def test_make_aqm(self):
        assert make_aqm(SimConfig.lte_default(), ue_index=0) is None
        cfg = SimConfig.lte_default(aqm="red", ecn_min_sdus=10, ecn_max_sdus=30)
        marker = make_aqm(cfg, ue_index=2)
        assert isinstance(marker, EcnMarker)
        # Per-UE seeds differ so queues do not mark in lockstep.
        draws = [
            [m.should_mark(20) for _ in range(64)]
            for m in (make_aqm(cfg, 0), make_aqm(cfg, 1))
        ]
        assert draws[0] != draws[1]

    def test_names(self):
        assert AQM_NAMES == ("droptail", "red")


# ---------------------------------------------------------------------------
# DCTCP unit behaviour


class TestDctcp:
    def test_alpha_converges_up_under_full_marking(self):
        cc = DctcpCC(mss=1460)
        seq = 0
        for _ in range(40):  # 40 fully-marked windows
            win = int(cc.cwnd_bytes)
            seq += win
            cc.on_ecn(win, seq, seq + win, now_us=1000)
        assert cc.alpha > 0.9
        assert cc.ecn_cuts > 10

    def test_alpha_decays_without_marks(self):
        cc = DctcpCC(mss=1460)
        assert cc.alpha == 1.0  # conservative start per RFC 8257
        seq = 0
        for _ in range(80):
            win = int(cc.cwnd_bytes)
            seq += win
            cc.on_ack(win, seq, seq + win, now_us=1000)
        assert cc.alpha < 0.01
        assert cc.ecn_cuts == 0

    def test_cut_at_most_once_per_window(self):
        cc = DctcpCC(mss=1460)
        before = cc.cwnd_bytes
        # Several marked ACKs inside ONE window: a single multiplicative cut.
        cc.on_ecn(1460, 1460, before * 4, now_us=0)
        after_first = cc.cwnd_bytes
        cc.on_ecn(1460, 2920, before * 4, now_us=0)
        assert cc.cwnd_bytes == after_first
        assert cc.ecn_cuts == 1

    def test_cut_proportional_to_alpha(self):
        """cwnd *= (1 - alpha/2); alpha=1 halves, small alpha trims."""
        cc = DctcpCC(mss=1460)
        cc.cwnd_bytes = 100 * 1460.0
        cc.alpha = 1.0
        cc.on_ecn(1460, 1460, 200 * 1460, now_us=0)
        assert cc.cwnd_bytes == pytest.approx(50 * 1460.0)

    def test_floor_at_two_segments(self):
        cc = DctcpCC(mss=1460)
        cc.cwnd_bytes = 2 * 1460.0
        cc.alpha = 1.0
        cc.on_ecn(1460, 1460, 4 * 1460, now_us=0)
        assert cc.cwnd_bytes >= 2 * 1460.0


# ---------------------------------------------------------------------------
# Sender integration


def run_keeping_senders(sim, duration_s):
    """Run ``sim``; return every sender it created.

    A flow retires together with its sender, so the finished ones are
    caught as they finish and the rest read off the live flows.
    """
    senders = []
    retire = sim._on_sender_done

    def keep(sender, now_us):
        senders.append(sender)
        retire(sender, now_us)

    sim._on_sender_done = keep
    sim.run(duration_s)
    senders += [rt.sender for rt in sim._runtimes.values()]
    assert len(senders) == sim.metrics.flows_started
    return senders


class TestSenderIntegration:
    def test_senders_carry_configured_cc(self):
        senders = run_keeping_senders(make_sim(cc="dctcp"), 0.1)
        assert senders
        assert all(isinstance(s.cc, DctcpCC) for s in senders)

    def test_ece_routes_to_on_ecn(self):
        sim = make_sim(cc="dctcp", aqm="red", ecn_min_sdus=1, ecn_max_sdus=1)
        senders = run_keeping_senders(sim, DURATION_S)
        marked = sum(getattr(ue.rlc, "sdus_marked", 0) for ue in sim.ues)
        assert marked > 0
        cuts = sum(s.cc.ecn_cuts for s in senders if isinstance(s.cc, DctcpCC))
        assert cuts > 0

    def test_ecn_telemetry_counters(self):
        reg = TelemetryRegistry()
        sim = make_sim(
            cc="dctcp", aqm="red", ecn_min_sdus=1, ecn_max_sdus=1, telemetry=reg
        )
        sim.run(DURATION_S)
        counters = reg.snapshot()["counters"]
        assert counters["rlc.tx.sdus_marked"] > 0
        assert counters["tcp.ecn_ce_acks"] > 0

    def test_droptail_run_has_no_marks(self):
        reg = TelemetryRegistry()
        sim = make_sim(cc="dctcp", telemetry=reg)
        sim.run(DURATION_S)
        counters = reg.snapshot()["counters"]
        assert counters["rlc.tx.sdus_marked"] == 0
        assert counters["tcp.ecn_ce_acks"] == 0


# ---------------------------------------------------------------------------
# Byte identity: the refactor must not change ECN-off output


class TestByteIdentity:
    def test_explicit_cubic_matches_default(self):
        """cc="cubic" spelled out == the config default, to the byte."""
        baseline = result_fingerprint(make_sim().run(DURATION_S))
        explicit = result_fingerprint(make_sim(cc="cubic").run(DURATION_S))
        assert explicit == baseline

    def test_never_marking_red_matches_droptail(self):
        """RED with an unreachable step threshold == droptail, to the byte.

        The marker draws no randomness below min_sdus, so the whole AQM
        path being plumbed in must be output-invariant until it marks.
        """
        baseline = result_fingerprint(make_sim().run(DURATION_S))
        idle_red = result_fingerprint(
            make_sim(
                aqm="red", ecn_min_sdus=10_000, ecn_max_sdus=10_000
            ).run(DURATION_S)
        )
        assert idle_red == baseline

    def test_ecn_changes_output(self):
        """Sanity: an aggressive marker actually alters the run."""
        baseline = result_fingerprint(make_sim().run(DURATION_S))
        marked = result_fingerprint(
            make_sim(
                cc="dctcp", aqm="red", ecn_min_sdus=1, ecn_max_sdus=1
            ).run(DURATION_S)
        )
        assert marked != baseline


# ---------------------------------------------------------------------------
# Checkpoint / resume round-trips CC state  (satellite c)


class TestCheckpointRoundTrip:
    def test_stepped_resumed_equals_one_shot_dctcp_ecn(self, tmp_path):
        """--cc dctcp --ecn-k 30: step/checkpoint/resume == run()."""
        kwargs = dict(
            cc="dctcp", aqm="red", ecn_min_sdus=30, ecn_max_sdus=30
        )
        baseline = result_fingerprint(make_sim(**kwargs).run(DURATION_S))
        session = SimulationSession(make_sim(**kwargs), DURATION_S).start()
        session.step(n_ttis=137)
        ckpt = tmp_path / "cc.ckpt"
        session.checkpoint(ckpt)
        resumed = SimulationSession.resume(ckpt)
        resumed.step(n_ttis=59)
        result = resumed.finish()
        assert result_fingerprint(result) == baseline


# ---------------------------------------------------------------------------
# Sweep fail-fast  (satellite b)


class TestSweepValidation:
    def test_good_spec_passes(self):
        SweepSpec(
            schedulers=("pf", "outran:0.5"),
            workloads=("poisson", "incast"),
            variants=({"cc": "dctcp", "aqm": "red", "radio_bler": 0.05},),
        ).validate()

    def test_bad_scheduler_named(self):
        with pytest.raises(ValueError, match="schedulers.*'nope'"):
            SweepSpec(schedulers=("nope",)).validate()

    def test_bad_workload_named(self):
        with pytest.raises(ValueError, match="workloads.*'zzz'"):
            SweepSpec(workloads=("zzz",)).validate()

    def test_bad_variant_cc_named(self):
        for name in ("reno", "bbr"):
            with pytest.raises(ValueError, match=f"cc.*'{name}'"):
                SweepSpec(variants=({"cc": name},)).validate()

    def test_bad_variant_backend_named(self):
        # `backend` is no SimConfig field any more: a stale spec is
        # rejected up front, not once per grid point inside the pool.
        with pytest.raises(ValueError, match="variant.*'backend'"):
            SweepSpec(variants=({"backend": "vectorized"},)).validate()

    def test_misspelt_variant_key_named(self):
        with pytest.raises(ValueError, match="variant.*'rlc_mod'"):
            SweepSpec(variants=({"rlc_mod": "am"},)).validate()

    def test_bad_variant_aqm_named(self):
        with pytest.raises(ValueError, match="aqm.*'codel'"):
            SweepSpec(variants=({"aqm": "codel"},)).validate()

    def test_unchecked_overrides_pass_through(self):
        # validate() vets keys and the names it knows; numeric values are
        # the config layer's to reject at run time.
        SweepSpec(variants=({"radio_bler": 0.1},)).validate()


# ---------------------------------------------------------------------------
# RunSpec workload plumbing


class TestRunSpecWorkload:
    def test_default_workload_keeps_store_keys(self):
        """A poisson spec's canonical form must not mention 'workload'."""
        spec = RunSpec(rat="lte", scheduler="outran")
        assert "workload" not in spec.canonical()

    def test_non_default_workload_changes_key(self):
        a = RunSpec(rat="lte", scheduler="outran")
        b = RunSpec(rat="lte", scheduler="outran", workload="incast")
        assert a.key() != b.key()
        assert b.canonical()["workload"] == "incast"

    def test_workload_maps_to_traffic_kind(self):
        spec = RunSpec(rat="lte", scheduler="outran", workload="video")
        assert spec.to_config().traffic.kind == "video"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            RunSpec(rat="lte", scheduler="outran", workload="zzz")
