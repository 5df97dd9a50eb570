"""Tests for the repro.cc workload matrix (incast / rpc / video).

Generators must be deterministic per seed, keep their flow ids inside
the reserved ranges, and run end-to-end through ``CellSimulation``, the
sweep runner, and a checkpointed/resumed session.  The post-hoc metric
helpers (RPC latency, video rebuffer ratio) are exercised both on
synthetic records (exact expected values) and on real runs.
"""

import pytest

from repro.runner.spec import RunSpec
from repro.sim.cell import CellSimulation
from repro.sim.config import SimConfig
from repro.sim.metrics import FctRecord, MetricsCollector, SimResult
from repro.sim.session import SimulationSession, result_fingerprint
from repro.traffic.distributions import distribution_by_name
from repro.traffic.nonstationary import PHASE_FLOW_ID_STRIDE
from repro.traffic.workloads import (
    INCAST_FLOW_ID_BASE,
    RPC_FLOW_ID_BASE,
    VIDEO_FLOW_ID_BASE,
    IncastFanInGenerator,
    RpcWorkloadGenerator,
    VideoWorkloadGenerator,
    is_rpc_flow,
    is_video_flow,
    rpc_latencies_ms,
    video_rebuffer_ratio,
)

CAPACITY = 50e6
DIST = distribution_by_name("lte_cellular")


def sim_for(workload_kind, duration_s=1.0, **traffic_kw):
    from dataclasses import replace

    cfg = SimConfig.lte_default(num_ues=4, load=0.4, seed=7)
    cfg = cfg.with_overrides(
        traffic=replace(cfg.traffic, kind=workload_kind, **traffic_kw)
    )
    return CellSimulation(cfg, scheduler="outran")


def _result(*records):
    """A run's result whose completed flows are ``records``, in order."""
    collector = MetricsCollector(num_ues=2, bandwidth_hz=1e7, tti_us=1000)
    for r in records:
        collector.on_flow_complete(
            r.flow_id, r.ue_index, r.size_bytes, r.start_us, r.end_us
        )
    return SimResult(collector, duration_s=1.0, scheduler_name="pf")


class TestIncastFanIn:
    def test_bursts_converge_on_one_ue(self):
        gen = IncastFanInGenerator(
            DIST, num_ues=8, load=0.5, capacity_bps=CAPACITY, seed=3,
            fanin_flows=12,
        )
        flows = gen.generate(4.0)
        bursts = {}
        for f in flows:
            if f.flow_id >= INCAST_FLOW_ID_BASE:
                bursts.setdefault(f.start_us, []).append(f)
        assert bursts
        for members in bursts.values():
            assert len(members) == 12
            assert len({f.ue_index for f in members}) == 1  # one victim
            assert len({f.flow_id for f in members}) == 12  # distinct senders

    def test_background_plus_burst_mix(self):
        gen = IncastFanInGenerator(
            DIST, num_ues=4, load=0.5, capacity_bps=CAPACITY, seed=3
        )
        flows = gen.generate(4.0)
        burst = [f for f in flows if f.flow_id >= INCAST_FLOW_ID_BASE]
        background = [f for f in flows if f.flow_id < INCAST_FLOW_ID_BASE]
        assert burst and background
        assert flows == sorted(flows, key=lambda f: f.start_us)

    def test_deterministic_per_seed(self):
        mk = lambda s: IncastFanInGenerator(
            DIST, 4, 0.5, CAPACITY, seed=s
        ).generate(3.0)
        assert mk(3) == mk(3)
        assert mk(3) != mk(4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IncastFanInGenerator(DIST, 4, 0.5, CAPACITY, fanin_flows=0)
        with pytest.raises(ValueError):
            IncastFanInGenerator(DIST, 4, 0.5, CAPACITY, fanin_fraction=1.5)

    def test_a_window_past_the_id_range_is_refused(self):
        # 1-byte flows, 1 000 a burst, every ~8 us: ~1.24 M flows in 10 ms,
        # refused before any is built (the next range is the RPC one).
        gen = IncastFanInGenerator(
            DIST, 4, 1.0, 1e9, seed=1,
            fanin_flows=1_000, fanin_bytes=1, fanin_fraction=0.99,
        )
        with pytest.raises(ValueError, match="exceed its 1000000 flow ids"):
            gen.generate(0.01)


class TestRpcWorkload:
    def test_flow_ids_and_think_time(self):
        gen = RpcWorkloadGenerator(
            num_ues=4, load=0.3, capacity_bps=CAPACITY, seed=1,
            request_delay_us=2_000,
        )
        flows = gen.generate(2.0)
        assert flows
        for f in flows:
            assert is_rpc_flow(f.flow_id)
            assert f.start_us >= 2_000  # think time precedes every response
            assert f.size_bytes >= 64

    def test_deterministic_per_seed(self):
        mk = lambda s: RpcWorkloadGenerator(4, 0.3, CAPACITY, seed=s).generate(2.0)
        assert mk(1) == mk(1)
        assert mk(1) != mk(2)

    def test_a_window_past_the_id_range_is_refused(self):
        # 64-byte responses at 1 Gbit/s: ~1.2 M requests in 0.62 s.
        gen = RpcWorkloadGenerator(1, 1.0, 1e9, seed=1, response_bytes=64)
        with pytest.raises(ValueError, match="exceed its 1000000 flow ids"):
            gen.generate(0.62)

    def test_latency_helper_on_synthetic_records(self):
        result = _result(
            FctRecord(RPC_FLOW_ID_BASE + 0, 0, 1000, 12_000, 20_000),
            FctRecord(RPC_FLOW_ID_BASE + 1, 1, 1000, 52_000, 95_000),
            FctRecord(123, 0, 1000, 0, 50_000),  # non-RPC: ignored
        )

        lat = rpc_latencies_ms(result, request_delay_us=2_000)
        # Latency spans the request's server arrival (start - think time)
        # to response completion: (20000 - 10000), (95000 - 50000).
        assert lat == [10.0, 45.0]


class TestVideoWorkload:
    def test_session_segment_encoding(self):
        gen = VideoWorkloadGenerator(
            num_ues=4, load=0.4, capacity_bps=CAPACITY, seed=2,
            bitrate_bps=2_500_000, segment_s=1.0,
        )
        flows = gen.generate(3.0)
        assert flows
        stride = VideoWorkloadGenerator.SESSION_ID_STRIDE
        per_session = {}
        for f in flows:
            assert is_video_flow(f.flow_id)
            assert f.size_bytes == gen.segment_bytes
            offset = f.flow_id - VIDEO_FLOW_ID_BASE
            per_session.setdefault(offset // stride, []).append(offset % stride)
        assert len(per_session) == gen.num_sessions
        for ks in per_session.values():
            assert sorted(ks) == list(range(len(ks)))  # contiguous segments

    def test_deterministic_per_seed(self):
        mk = lambda s: VideoWorkloadGenerator(4, 0.4, CAPACITY, seed=s).generate(2.0)
        assert mk(2) == mk(2)

    def test_a_session_past_its_id_stride_is_refused(self):
        """12 000 segments of 1 ms per session would give session 0's
        last 2 000 segments session 1's ids."""
        gen = VideoWorkloadGenerator(
            1, 1.0, 2e6, seed=1, bitrate_bps=1_000_000, segment_s=0.001
        )
        assert gen.num_sessions == 2
        with pytest.raises(ValueError, match="more than 10000 segments"):
            gen.generate(12.0)
        # A stride's worth of segments per session still fits.
        flows = VideoWorkloadGenerator(
            1, 1.0, 2e6, seed=1, bitrate_bps=1_000_000, segment_s=0.001
        ).generate(10.0)
        stride = VideoWorkloadGenerator.SESSION_ID_STRIDE
        assert len(flows) == len({f.flow_id for f in flows}) == 2 * stride

    def test_sessions_past_the_id_range_are_refused(self):
        """Session 300 would start at VIDEO_FLOW_ID_BASE + 3 000 000, the
        first id of a nonstationary phase."""
        with pytest.raises(ValueError, match="301 sessions exceed the 300"):
            VideoWorkloadGenerator(1, 1.0, 301_000.0, bitrate_bps=1_000)
        # The last session that fits keeps all its ids in the range.
        gen = VideoWorkloadGenerator(1, 1.0, 300_000.0, bitrate_bps=1_000)
        assert gen.num_sessions == 300
        flows = gen.generate(3.0)
        stride = gen.SESSION_ID_STRIDE
        assert len({f.flow_id // stride for f in flows}) == 300
        assert all(is_video_flow(f.flow_id) for f in flows)
        assert max(f.flow_id for f in flows) < PHASE_FLOW_ID_STRIDE

    def test_rebuffer_ratio_on_synthetic_records(self):
        base = VIDEO_FLOW_ID_BASE

        # One session, 1 s segments, startup buffer of 2.  Play starts
        # at t=1.5s when segment 1 lands; segments 0-2 play back-to-back
        # until 4.5s, but segment 3 only arrives at t=5.0s: a 0.5s stall
        # against 4s of playback.
        result = _result(
            FctRecord(base + 0, 0, 1, 0, 1_000_000),
            FctRecord(base + 1, 0, 1, 0, 1_500_000),
            FctRecord(base + 2, 0, 1, 0, 2_000_000),
            FctRecord(base + 3, 0, 1, 0, 5_000_000),
        )

        ratio = video_rebuffer_ratio(result, segment_s=1.0, startup_segments=2)
        assert ratio == pytest.approx(0.5 / (0.5 + 4.0))

    def test_rebuffer_ratio_none_without_sessions(self):
        assert video_rebuffer_ratio(_result()) is None

    def test_smooth_session_has_zero_rebuffer(self):
        base = VIDEO_FLOW_ID_BASE

        result = _result(
            *(FctRecord(base + k, 0, 1, 0, int((k + 0.5) * 1e6)) for k in range(6))
        )

        assert video_rebuffer_ratio(result) == 0.0


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ["incast_fanin", "rpc", "video"])
    def test_workload_runs_and_completes_flows(self, kind):
        result = sim_for(kind).run(1.0)
        assert result.completed_flows > 0

    def test_rpc_metrics_from_real_run(self):
        result = sim_for("rpc").run(1.0)
        lat = rpc_latencies_ms(result)
        assert lat and all(l > 2.0 for l in lat)  # >= think time

    def test_video_metrics_from_real_run(self):
        result = sim_for("video", video_bitrate_bps=2_500_000).run(3.0)
        ratio = video_rebuffer_ratio(result)
        assert ratio is not None
        assert 0.0 <= ratio < 1.0

    def test_workload_survives_checkpoint_resume(self, tmp_path):
        """An incast run resumed mid-burst finishes byte-identically."""
        baseline = result_fingerprint(sim_for("incast_fanin").run(1.0))
        session = SimulationSession(sim_for("incast_fanin"), 1.0).start()
        session.step(n_ttis=333)
        ckpt = tmp_path / "incast.ckpt"
        session.checkpoint(ckpt)
        result = SimulationSession.resume(ckpt).finish()
        assert result_fingerprint(result) == baseline

    def test_workload_through_sweep_runner(self, tmp_path):
        from repro.runner.pool import SweepRunner
        from repro.runner.spec import SweepSpec

        sweep = SweepSpec(
            schedulers=("pf",), loads=(0.4,), seeds=(7,), num_ues=4,
            duration_s=0.5, workloads=("poisson", "rpc"),
        )
        sweep.validate()
        specs = sweep.expand()
        assert [s.workload for s in specs] == ["poisson", "rpc"]
        outcome = SweepRunner(jobs=1, store=str(tmp_path)).execute(specs)
        outcome.raise_on_failure()
        for spec in specs:
            assert outcome.get(spec).completed_flows > 0
