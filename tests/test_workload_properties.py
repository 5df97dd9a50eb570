"""Properties of the incast / RPC / video flow generators.

For any seed and any parameters in range, each generator replays exactly
from its seed, starts its flows in time order inside the generated
window, keeps its flow ids unique and inside the range its workload
reserves, and produces the shape its docstring promises: one victim per
fan-in burst, RPC responses of at least 64 bytes, video segments one
``segment_s`` apart per session.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import US_PER_SEC
from repro.traffic.distributions import distribution_by_name
from repro.traffic.workloads import (
    _ID_RANGE,
    INCAST_FLOW_ID_BASE,
    RPC_FLOW_ID_BASE,
    VIDEO_FLOW_ID_BASE,
    IncastFanInGenerator,
    RpcWorkloadGenerator,
    VideoWorkloadGenerator,
    is_rpc_flow,
    is_video_flow,
)

DIST = distribution_by_name("lte_cellular")

#: ``(num_ues, load, capacity_bps, seed, duration_s)`` every generator shares.
COMMON = st.tuples(
    st.integers(1, 30),
    st.floats(0.05, 1.5),
    st.floats(1e6, 1e7),
    st.integers(0, 2**31),
    st.floats(0.05, 1.0),
)


def replayed(make, duration_s):
    """One generator's flows, after checking a second one replays them."""
    flows = make().generate(duration_s)
    assert make().generate(duration_s) == flows
    return flows


def assert_ordered_and_unique(flows, num_ues, lo_us, hi_us):
    starts = [f.start_us for f in flows]
    assert starts == sorted(starts)
    assert all(lo_us <= s < hi_us for s in starts)
    ids = [f.flow_id for f in flows]
    assert len(set(ids)) == len(ids)
    assert all(0 <= f.ue_index < num_ues for f in flows)


@settings(max_examples=40, deadline=None)
@given(
    common=COMMON,
    fanin_flows=st.integers(1, 32),
    fanin_bytes=st.integers(1_000, 50_000),
    fanin_fraction=st.floats(0.05, 0.95),
)
def test_property_incast_bursts_land_on_one_victim_at_one_instant(
    common, fanin_flows, fanin_bytes, fanin_fraction
):
    num_ues, load, capacity_bps, seed, duration_s = common
    flows = replayed(
        lambda: IncastFanInGenerator(
            DIST, num_ues, load, capacity_bps, seed=seed,
            fanin_flows=fanin_flows, fanin_bytes=fanin_bytes,
            fanin_fraction=fanin_fraction,
        ),
        duration_s,
    )
    assert_ordered_and_unique(flows, num_ues, 0, duration_s * US_PER_SEC)
    bursts = defaultdict(list)
    for f in flows:
        if f.flow_id >= INCAST_FLOW_ID_BASE:
            assert f.flow_id < INCAST_FLOW_ID_BASE + _ID_RANGE
            bursts[(f.flow_id - INCAST_FLOW_ID_BASE) // fanin_flows].append(f)
    assert sorted(bursts) == list(range(len(bursts)))
    for burst in bursts.values():
        assert len(burst) == fanin_flows
        assert {f.size_bytes for f in burst} == {fanin_bytes}
        assert len({f.ue_index for f in burst}) == 1
        assert len({f.start_us for f in burst}) == 1
    starts = [burst[0].start_us for _, burst in sorted(bursts.items())]
    assert starts == sorted(set(starts))


@settings(max_examples=40, deadline=None)
@given(
    common=COMMON,
    response_bytes=st.integers(64, 20_000),
    request_delay_us=st.integers(0, 10_000),
)
def test_property_rpc_responses_follow_their_requests(
    common, response_bytes, request_delay_us
):
    num_ues, load, capacity_bps, seed, duration_s = common
    flows = replayed(
        lambda: RpcWorkloadGenerator(
            num_ues, load, capacity_bps, seed=seed,
            response_bytes=response_bytes, request_delay_us=request_delay_us,
        ),
        duration_s,
    )
    assert_ordered_and_unique(
        flows, num_ues, request_delay_us,
        duration_s * US_PER_SEC + request_delay_us,
    )
    assert all(is_rpc_flow(f.flow_id) for f in flows)
    assert [f.flow_id for f in flows] == [
        RPC_FLOW_ID_BASE + i for i in range(len(flows))
    ]
    assert all(f.size_bytes >= 64 for f in flows)


@settings(max_examples=40, deadline=None)
@given(
    common=COMMON,
    bitrate_bps=st.integers(100_000, 5_000_000),
    segment_s=st.floats(0.1, 4.0),
)
def test_property_video_ids_decode_to_consecutive_segments(
    common, bitrate_bps, segment_s
):
    num_ues, load, capacity_bps, seed, duration_s = common
    make = lambda: VideoWorkloadGenerator(  # noqa: E731
        num_ues, load, capacity_bps, seed=seed,
        bitrate_bps=bitrate_bps, segment_s=segment_s,
    )
    flows = replayed(make, duration_s)
    assert_ordered_and_unique(flows, num_ues, 0, duration_s * US_PER_SEC)
    gen = make()
    stride = gen.SESSION_ID_STRIDE
    sessions = defaultdict(list)
    for f in flows:
        assert is_video_flow(f.flow_id)
        assert f.size_bytes == gen.segment_bytes
        session, k = divmod(f.flow_id - VIDEO_FLOW_ID_BASE, stride)
        sessions[session].append((k, f))
    assert set(sessions) <= set(range(gen.num_sessions))
    segment_us = segment_s * US_PER_SEC
    for segments in sessions.values():
        segments.sort(key=lambda kf: kf[0])
        assert [k for k, _ in segments] == list(range(len(segments)))
        assert len({f.ue_index for _, f in segments}) == 1
        assert segments[0][1].start_us < segment_us
        for (_, a), (_, b) in zip(segments, segments[1:]):
            assert abs(b.start_us - a.start_us - segment_us) <= 1
