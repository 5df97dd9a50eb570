"""Simulation configuration: LTE and 5G presets matching the paper.

``SimConfig`` bundles everything except the scheduler choice (which the
benchmarks sweep): radio grid, channel scenario, protocol-stack options,
end-to-end delays, and the traffic specification.  The two presets map to
the paper's section 6.2 setups:

* :meth:`SimConfig.lte_default` -- 20 MHz LTE, 1 ms TTI, 100 UEs,
  pedestrian channel, LTE-cellular traffic, 10 ms server link.
* :meth:`SimConfig.nr_default` -- 100 MHz 5G NR with selectable
  numerology, 40 UEs, urban channel, MIRAGE traffic, MEC or remote
  server placement (Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.mlfq import MlfqConfig
from repro.phy.numerology import RadioGrid
from repro.phy.scenarios import PEDESTRIAN, URBAN_5G, ChannelScenario


@dataclass(frozen=True)
class TrafficSpec:
    """What downlink traffic the cell carries."""

    distribution: str = "lte_cellular"
    load: float = 0.6
    kind: str = "poisson"  # one of repro.traffic.TRAFFIC_KINDS
    #: Incast-only knobs (section 6.3 worst case).
    incast_short_bytes: int = 8_000
    incast_short_fraction: float = 0.1
    incast_burst_flows: int = 8
    #: incast_fanin knobs: N synchronized senders into one victim UE.
    fanin_flows: int = 16
    fanin_bytes: int = 20_000
    fanin_fraction: float = 0.3
    #: rpc knobs: request/response with a server-side think time.
    rpc_response_bytes: int = 4_000
    rpc_request_delay_us: int = 2_000
    #: video knobs: DASH-style segment fetches per streaming UE.
    video_bitrate_bps: int = 2_500_000
    video_segment_s: float = 1.0


@dataclass(frozen=True)
class SimConfig:
    """Full description of one cell simulation (scheduler excluded)."""

    grid: RadioGrid
    scenario: ChannelScenario
    num_ues: int
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    seed: int = 0

    # -- OutRAN / RLC options ------------------------------------------------
    mlfq: MlfqConfig = field(default_factory=MlfqConfig)
    #: None = infer (MLFQ when the scheduler is OutRAN, FIFO otherwise).
    use_mlfq: Optional[bool] = None
    rlc_mode: str = "um"  # "um" or "am"
    rlc_capacity_sdus: int = 128  # srsENB default
    #: "drop_incoming" (srsENB behaviour), "drop_lowest" (shed the
    #: lowest-priority queued SDU for a higher-priority arrival), or None
    #: to follow the queue discipline: FIFO buffers drop the incoming SDU,
    #: MLFQ buffers drop from the lowest priority queue.  A strict-priority
    #: queue with priority-blind drops starves its own high-priority
    #: arrivals whenever a heavy hitter keeps the buffer full.
    rlc_overflow_policy: Optional[str] = None
    promote_segments: bool = True
    delayed_sn: bool = True
    pdcp_reorder_window: int = 16
    reassembly_window_us: int = 50_000
    priority_reset_period_us: Optional[int] = None

    # -- end-to-end path -------------------------------------------------------
    #: One-way wired delay xNodeB <-> server (10 ms remote, 5 ms MEC).
    server_delay_us: int = 10_000
    #: Downlink air+processing delay, in slots.
    air_delay_slots: int = 4
    #: Uplink ACK path (grant + HARQ + processing), in slots.
    ul_delay_slots: int = 8
    #: Transport-block error probability (AM case study uses > 0).
    radio_bler: float = 0.0
    #: MAC-layer HARQ (fast retransmission of failed transport blocks).
    harq_enabled: bool = True
    harq_rtt_ttis: int = 8
    harq_max_retx: int = 3

    # -- scheduler-adjacent knobs ---------------------------------------------
    fairness_window_s: float = 1.0
    #: Give PSS/CQA their oracle: short flows are known and QoS-marked.
    qos_oracle: bool = False
    tcp_min_rto_us: int = 200_000
    #: Fraction of the mean-SINR capacity estimate a realized PF cell
    #: actually sustains (protocol overheads, TCP window dynamics,
    #: fairness spreading onto weak channels).  Calibrated once against a
    #: saturated closed-loop PF run so that nominal load -> 1 means "the
    #: cell can just barely carry it"; offered load is scaled against
    #: this, exactly like the paper's cell-load axis.
    capacity_scale: float = 0.8
    #: TCP initial window in segments.  The paper's NS-3 simulations use
    #: the era's small initial windows, making short flows span several
    #: RTTs; 4 reproduces that regime (10 models modern servers).
    tcp_initial_cwnd: int = 4

    # -- congestion control / AQM ---------------------------------------------
    #: Sender congestion control: "cubic" (default) or "dctcp".
    cc: str = "cubic"
    #: RLC-buffer AQM: "droptail" (srsENB behaviour) or "red" (ECN marking).
    aqm: str = "droptail"
    #: RED thresholds in queued SDUs; min == max is DCTCP-style step
    #: marking at K (the --ecn-k shorthand, cloud-dcn-ecn's k sweep).
    ecn_min_sdus: int = 30
    ecn_max_sdus: int = 30
    ecn_mark_prob: float = 1.0

    def __post_init__(self) -> None:
        if self.num_ues < 1:
            raise ValueError(f"need at least one UE: {self.num_ues}")
        if self.rlc_mode not in ("um", "am"):
            raise ValueError(f"rlc_mode must be 'um' or 'am': {self.rlc_mode}")
        if not 0.0 <= self.radio_bler < 1.0:
            raise ValueError(f"radio_bler in [0, 1): {self.radio_bler}")
        if self.rlc_capacity_sdus < 1:
            raise ValueError(f"rlc capacity >= 1: {self.rlc_capacity_sdus}")
        if self.rlc_overflow_policy not in (None, "drop_incoming", "drop_lowest"):
            raise ValueError(
                f"unknown rlc_overflow_policy: {self.rlc_overflow_policy!r}"
            )
        for name in ("server_delay_us", "air_delay_slots", "ul_delay_slots"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0: {getattr(self, name)}")
        from repro.cc import AQM_NAMES, CC_NAMES
        from repro.traffic.workloads import TRAFFIC_KINDS

        if self.traffic.kind not in TRAFFIC_KINDS:
            raise ValueError(f"unknown traffic kind: {self.traffic.kind!r}")
        if self.cc not in CC_NAMES:
            raise ValueError(
                f"unknown congestion control: cc={self.cc!r} (choices: {CC_NAMES})"
            )
        if self.aqm not in AQM_NAMES:
            raise ValueError(
                f"unknown aqm: {self.aqm!r} (choices: {AQM_NAMES})"
            )
        if not 1 <= self.ecn_min_sdus <= self.ecn_max_sdus:
            raise ValueError(
                f"need 1 <= ecn_min_sdus <= ecn_max_sdus: "
                f"{self.ecn_min_sdus}, {self.ecn_max_sdus}"
            )

    @property
    def tti_us(self) -> int:
        return self.grid.tti_us

    @property
    def air_delay_us(self) -> int:
        return self.air_delay_slots * self.tti_us

    @property
    def ul_delay_us(self) -> int:
        return self.ul_delay_slots * self.tti_us

    def with_overrides(self, **kwargs) -> "SimConfig":
        """Copy with fields replaced (sweeps use this heavily)."""
        return replace(self, **kwargs)

    @classmethod
    def lte_default(
        cls,
        num_ues: int = 100,
        load: float = 0.6,
        seed: int = 0,
        bandwidth_mhz: float = 20.0,
        scenario: Optional[ChannelScenario] = None,
        **kwargs,
    ) -> "SimConfig":
        """The paper's LTE cell-scale setup (section 6.2)."""
        return cls(
            grid=RadioGrid.lte(bandwidth_mhz),
            scenario=scenario or PEDESTRIAN,
            num_ues=num_ues,
            traffic=TrafficSpec(distribution="lte_cellular", load=load),
            seed=seed,
            **kwargs,
        )

    @classmethod
    def nr_default(
        cls,
        mu: int = 1,
        num_ues: int = 40,
        load: float = 0.6,
        seed: int = 0,
        bandwidth_mhz: int = 100,
        mec: bool = False,
        scenario: Optional[ChannelScenario] = None,
        **kwargs,
    ) -> "SimConfig":
        """The paper's 5G setup (sections 6.2, Figure 17).

        ``mec=True`` places the server at the edge (5 ms one-way wired
        delay in the paper's Figure 17); otherwise remote (20 ms).
        """
        return cls(
            grid=RadioGrid.nr(bandwidth_mhz, mu),
            scenario=scenario or URBAN_5G,
            num_ues=num_ues,
            traffic=TrafficSpec(distribution="mirage_mobile_app", load=load),
            server_delay_us=5_000 if mec else 20_000,
            seed=seed,
            **kwargs,
        )
