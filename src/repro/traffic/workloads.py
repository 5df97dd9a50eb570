"""Congestion-control workload matrix: incast, RPC, and video traffic.

These are the three traffic shapes the ``repro.cc`` study sweeps against
the ECN-threshold axis (the fct-vs-K recipe in ``docs/CONGESTION.md``),
each stressing a different part of the sender/AQM loop:

* **incast** -- N synchronized senders burst into one victim UE's RLC
  buffer: the drop-tail worst case ECN marking is supposed to defuse.
* **rpc** -- open-loop request/response traffic where the per-RPC
  latency (request leg + server think time + response FCT) is the
  metric, not throughput.
* **video** -- DASH-style segment fetches per streaming UE; the metric
  is the rebuffer ratio of the playback model in
  :func:`video_rebuffer_ratio`.

All generators pre-generate deterministically from the seed, like every
other generator in ``repro.traffic``, so schedulers/CC algorithms under
comparison see identical arrivals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.engine import US_PER_SEC
from repro.traffic.distributions import EmpiricalDistribution, distribution_by_name
from repro.traffic.generator import (
    SHORT_FLOW_BYTES,
    FlowSpec,
    IncastGenerator,
    PoissonTrafficGenerator,
)

if TYPE_CHECKING:
    from repro.sim.metrics import SimResult

#: Flow-id bases keep each workload's flows identifiable (and clear of
#: background/page/bulk/phase id ranges used elsewhere).  A generator
#: refuses a window whose ids would leave its ``_ID_RANGE``.
INCAST_FLOW_ID_BASE = 5_000_000
RPC_FLOW_ID_BASE = 6_000_000
VIDEO_FLOW_ID_BASE = 7_000_000
_ID_RANGE = 1_000_000
#: Video reserves ids up to the first nonstationary phase's
#: (``PHASE_FLOW_ID_STRIDE``, 10 000 000): 300 sessions of 10 000 segments.
_VIDEO_ID_RANGE = 3_000_000


def _out_of_ids(workload: str, flows: int, duration_s: float) -> ValueError:
    return ValueError(
        f"{workload} workload: {flows} flows in {duration_s} s exceed its "
        f"{_ID_RANGE} flow ids"
    )


class IncastFanInGenerator:
    """Synchronized fan-in: N senders burst into one victim UE at once.

    Unlike the legacy section 6.3 ``IncastGenerator`` (which spreads its
    synchronized shorts across distinct UEs), every flow of a burst here
    lands on the *same* UE -- N servers answering one client, the classic
    datacenter incast translated to the RAN: the burst converges on a
    single RLC buffer and overflows it in one TTI unless an AQM
    intervenes early.  Bursts carry ``fanin_fraction`` of the offered
    load; the rest is Poisson background over all UEs.
    """

    def __init__(
        self,
        base: EmpiricalDistribution,
        num_ues: int,
        load: float,
        capacity_bps: float,
        seed: int = 0,
        fanin_flows: int = 16,
        fanin_bytes: int = 20_000,
        fanin_fraction: float = 0.3,
    ) -> None:
        if fanin_flows < 1:
            raise ValueError(f"fanin_flows must be >= 1: {fanin_flows}")
        if fanin_bytes < 1:
            raise ValueError(f"fanin_bytes must be >= 1: {fanin_bytes}")
        if not 0.0 < fanin_fraction < 1.0:
            raise ValueError(f"fanin_fraction in (0,1): {fanin_fraction}")
        self.base_gen = PoissonTrafficGenerator(
            base,
            num_ues,
            load * (1.0 - fanin_fraction),
            capacity_bps,
            seed=seed,
        )
        self.num_ues = num_ues
        self.fanin_flows = fanin_flows
        self.fanin_bytes = fanin_bytes
        self.fanin_rate_bps = load * fanin_fraction * capacity_bps
        self._rng = np.random.default_rng(seed + 1)

    def generate(self, duration_s: float) -> list[FlowSpec]:
        """Background arrivals interleaved with fan-in bursts."""
        flows = self.base_gen.generate(duration_s)
        burst_bytes = self.fanin_bytes * self.fanin_flows
        burst_period_s = burst_bytes * 8.0 / self.fanin_rate_bps
        burst_starts = []
        t = burst_period_s
        while t < duration_s:
            burst_starts.append(t)
            t += burst_period_s
        if len(burst_starts) * self.fanin_flows > _ID_RANGE:
            raise _out_of_ids(
                "incast", len(burst_starts) * self.fanin_flows, duration_s
            )
        next_id = INCAST_FLOW_ID_BASE
        for t in burst_starts:
            victim = int(self._rng.integers(0, self.num_ues))
            for _ in range(self.fanin_flows):
                # Distinct flow ids -> distinct five-tuples: N independent
                # senders, each with its own cwnd, into one UE buffer.
                flows.append(
                    FlowSpec(
                        flow_id=next_id,
                        ue_index=victim,
                        size_bytes=self.fanin_bytes,
                        start_us=int(t * US_PER_SEC),
                        qos_short=self.fanin_bytes < SHORT_FLOW_BYTES,
                    )
                )
                next_id += 1
        flows.sort(key=lambda f: f.start_us)
        return flows


class RpcWorkloadGenerator:
    """Open-loop RPC request/response traffic.

    Requests arrive Poisson; the uplink request leg is not simulated
    (uplink is a fixed delay in this simulator), so a response flow
    simply starts ``request_delay_us`` after its request's arrival --
    the server think time.  Response sizes are exponential around
    ``response_bytes`` (RPC fan-out responses are small and variable),
    floored at 64 bytes.
    """

    def __init__(
        self,
        num_ues: int,
        load: float,
        capacity_bps: float,
        seed: int = 0,
        response_bytes: int = 4_000,
        request_delay_us: int = 2_000,
    ) -> None:
        if num_ues < 1:
            raise ValueError(f"need at least one UE: {num_ues}")
        if response_bytes < 64:
            raise ValueError(f"response_bytes must be >= 64: {response_bytes}")
        if request_delay_us < 0:
            raise ValueError(f"negative request delay: {request_delay_us}")
        self.num_ues = num_ues
        self.response_bytes = response_bytes
        self.request_delay_us = request_delay_us
        self.arrival_rate_per_s = (
            load * capacity_bps / (response_bytes * 8.0)
        )
        self._rng = np.random.default_rng(seed)

    def generate(self, duration_s: float) -> list[FlowSpec]:
        """Responses to every request arriving within ``[0, duration_s)``."""
        rate = self.arrival_rate_per_s
        expected = max(int(rate * duration_s * 1.5) + 20, 50)
        gaps = self._rng.exponential(1.0 / rate, size=expected)
        times = np.cumsum(gaps)
        while times[-1] < duration_s:
            more = self._rng.exponential(1.0 / rate, size=expected)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times < duration_s]
        n = len(times)
        if n > _ID_RANGE:
            raise _out_of_ids("rpc", n, duration_s)
        sizes = np.maximum(
            self._rng.exponential(self.response_bytes, size=n), 64.0
        )
        ues = self._rng.integers(0, self.num_ues, size=n)
        return [
            FlowSpec(
                flow_id=RPC_FLOW_ID_BASE + i,
                ue_index=int(ues[i]),
                size_bytes=int(sizes[i]),
                start_us=int(times[i] * US_PER_SEC) + self.request_delay_us,
                qos_short=bool(sizes[i] < SHORT_FLOW_BYTES),
            )
            for i in range(n)
        ]


class VideoWorkloadGenerator:
    """DASH-style video: per-UE streaming sessions fetching segments.

    ``load * capacity / bitrate`` concurrent sessions (at least one) are
    placed on random UEs; each fetches one ``segment_s``-second segment
    of ``bitrate_bps * segment_s / 8`` bytes every ``segment_s``, with a
    random per-session phase offset.  Flow ids encode (session, segment)
    so :func:`video_rebuffer_ratio` can rebuild each session's arrival
    sequence from the FCT records alone.
    """

    #: Segment k of session s gets id VIDEO_FLOW_ID_BASE + s*stride + k.
    SESSION_ID_STRIDE = 10_000

    def __init__(
        self,
        num_ues: int,
        load: float,
        capacity_bps: float,
        seed: int = 0,
        bitrate_bps: int = 2_500_000,
        segment_s: float = 1.0,
    ) -> None:
        if num_ues < 1:
            raise ValueError(f"need at least one UE: {num_ues}")
        if bitrate_bps < 8:
            raise ValueError(f"bitrate_bps must be >= 8: {bitrate_bps}")
        if segment_s <= 0:
            raise ValueError(f"segment_s must be positive: {segment_s}")
        self.num_ues = num_ues
        self.bitrate_bps = bitrate_bps
        self.segment_s = segment_s
        self.num_sessions = max(
            1, int(round(load * capacity_bps / bitrate_bps))
        )
        max_sessions = _VIDEO_ID_RANGE // self.SESSION_ID_STRIDE
        if self.num_sessions > max_sessions:
            raise ValueError(
                f"video workload: {self.num_sessions} sessions exceed the "
                f"{max_sessions} its flow-id range holds"
            )
        self._rng = np.random.default_rng(seed)

    @property
    def segment_bytes(self) -> int:
        return max(int(self.bitrate_bps * self.segment_s / 8.0), 1)

    def generate(self, duration_s: float) -> list[FlowSpec]:
        """Segment fetches of every session over ``[0, duration_s)``."""
        flows: list[FlowSpec] = []
        seg_bytes = self.segment_bytes
        ues = self._rng.integers(0, self.num_ues, size=self.num_sessions)
        offsets = self._rng.uniform(0.0, self.segment_s, size=self.num_sessions)
        for s in range(self.num_sessions):
            base = VIDEO_FLOW_ID_BASE + s * self.SESSION_ID_STRIDE
            k = 0
            t = float(offsets[s])
            while t < duration_s:
                if k == self.SESSION_ID_STRIDE:
                    raise ValueError(
                        f"video workload: a session of {duration_s} s needs "
                        f"more than {self.SESSION_ID_STRIDE} segments of "
                        f"{self.segment_s} s, its flow-id stride"
                    )
                flows.append(
                    FlowSpec(
                        flow_id=base + k,
                        ue_index=int(ues[s]),
                        size_bytes=seg_bytes,
                        start_us=int(t * US_PER_SEC),
                        qos_short=seg_bytes < SHORT_FLOW_BYTES,
                    )
                )
                k += 1
                t += self.segment_s
        flows.sort(key=lambda f: f.start_us)
        return flows


# -- the kind table -----------------------------------------------------------

#: ``TrafficSpec.kind`` -> (``--workload`` name or None, generator factory).
#: A factory takes the TrafficSpec ``t``, its resolved size distribution,
#: and the ``num_ues, load, capacity_bps, seed`` every generator shares.
#: The section 6.3 "incast" mix (synchronized shorts spread over distinct
#: UEs) is reachable from a config only: on the command line "incast"
#: names the single-victim fan-in.
_KINDS = {
    "poisson": ("poisson", lambda t, dist, *common: PoissonTrafficGenerator(
        dist, *common)),
    "incast": (None, lambda t, dist, *common: IncastGenerator(
        dist, *common, short_bytes=t.incast_short_bytes,
        short_fraction=t.incast_short_fraction,
        burst_flows=t.incast_burst_flows)),
    "incast_fanin": ("incast", lambda t, dist, *common: IncastFanInGenerator(
        dist, *common, fanin_flows=t.fanin_flows, fanin_bytes=t.fanin_bytes,
        fanin_fraction=t.fanin_fraction)),
    "rpc": ("rpc", lambda t, dist, *common: RpcWorkloadGenerator(
        *common, response_bytes=t.rpc_response_bytes,
        request_delay_us=t.rpc_request_delay_us)),
    "video": ("video", lambda t, dist, *common: VideoWorkloadGenerator(
        *common, bitrate_bps=t.video_bitrate_bps,
        segment_s=t.video_segment_s)),
}
#: Every value ``TrafficSpec.kind`` may take.
TRAFFIC_KINDS = tuple(_KINDS)
#: CLI-facing workload name (``repro run --workload``) -> TrafficSpec.kind.
WORKLOAD_KINDS = {name: kind for kind, (name, _) in _KINDS.items() if name}
WORKLOADS = tuple(WORKLOAD_KINDS)


def make_generator(traffic, num_ues: int, capacity_bps: float, seed: int):
    """The flow generator a :class:`~repro.sim.config.TrafficSpec` names."""
    _, factory = _KINDS[traffic.kind]
    dist = distribution_by_name(traffic.distribution)
    return factory(traffic, dist, num_ues, traffic.load, capacity_bps, seed)


# -- post-hoc workload metrics ------------------------------------------------


def is_rpc_flow(flow_id: int) -> bool:
    return RPC_FLOW_ID_BASE <= flow_id < RPC_FLOW_ID_BASE + _ID_RANGE


def is_video_flow(flow_id: int) -> bool:
    return VIDEO_FLOW_ID_BASE <= flow_id < VIDEO_FLOW_ID_BASE + _VIDEO_ID_RANGE


def rpc_latencies_ms(
    result: "SimResult", request_delay_us: int = 2_000
) -> list[float]:
    """Per-RPC latency: request leg (the think time) + response FCT.

    The response flow's ``start_us`` already includes the think time, so
    client-observed latency spans ``start_us - request_delay_us`` (the
    request's arrival at the server) to the response's completion.
    """
    flow_ids, _, _, starts, ends = result.fct_columns()
    return sorted(
        (end - (start - request_delay_us)) / 1e3
        for flow_id, start, end in zip(flow_ids, starts, ends)
        if is_rpc_flow(flow_id)
    )


def video_rebuffer_ratio(
    result: "SimResult",
    segment_s: float = 1.0,
    startup_segments: int = 2,
) -> Optional[float]:
    """Stalled share of playback time across all video sessions.

    Playback model per session: the client buffers ``startup_segments``
    segments, starts the play clock when the last of them arrives
    (startup delay is not a rebuffer), then consumes one segment per
    ``segment_s``.  When the next segment in order has not arrived by
    the time the buffer runs dry, the clock stalls until it does.
    Returns ``stalled / (stalled + played)`` over all sessions, or None
    when no session delivered enough segments to start playing.
    """
    stride = VideoWorkloadGenerator.SESSION_ID_STRIDE
    sessions: dict[int, dict[int, int]] = {}
    flow_ids, _, _, _, ends = result.fct_columns()
    for flow_id, end_us in zip(flow_ids, ends):
        if not is_video_flow(flow_id):
            continue
        offset = flow_id - VIDEO_FLOW_ID_BASE
        sessions.setdefault(offset // stride, {})[offset % stride] = end_us
    segment_us = segment_s * 1e6
    stalled_us = 0.0
    played_us = 0.0
    for arrivals_by_k in sessions.values():
        n = len(arrivals_by_k)
        if n < startup_segments:
            continue
        # Consumption is in segment order; a censored (never-completed)
        # segment truncates the session's playable tail.
        arrivals: list[int] = []
        for k in range(n):
            if k not in arrivals_by_k:
                break
            arrivals.append(arrivals_by_k[k])
        if len(arrivals) < startup_segments:
            continue
        # In-order availability: segment k is playable once every
        # segment <= k has arrived.
        avail = list(np.maximum.accumulate(arrivals))
        clock = float(avail[startup_segments - 1])
        for k in range(len(avail)):
            if avail[k] > clock:
                stalled_us += avail[k] - clock
                clock = float(avail[k])
            clock += segment_us
            played_us += segment_us
    if played_us <= 0.0:
        return None
    return stalled_us / (stalled_us + played_us)
