"""Workload generation: flow-size distributions, arrivals, webpages."""

from repro.traffic.distributions import (
    EmpiricalDistribution,
    LTE_CELLULAR,
    MIRAGE_MOBILE_APP,
    WEBSEARCH,
    distribution_by_name,
)
from repro.traffic.generator import FlowSpec, PoissonTrafficGenerator, IncastGenerator
from repro.traffic.nonstationary import (
    PHASE_FLOW_ID_STRIDE,
    LoadPhase,
    NonStationaryLoad,
)
from repro.traffic.webpage import Webpage, ALEXA_TOP20, page_flow_sizes
from repro.traffic.workloads import (
    TRAFFIC_KINDS,
    WORKLOAD_KINDS,
    WORKLOADS,
    IncastFanInGenerator,
    RpcWorkloadGenerator,
    VideoWorkloadGenerator,
    rpc_latencies_ms,
    video_rebuffer_ratio,
)

__all__ = [
    "EmpiricalDistribution",
    "LTE_CELLULAR",
    "MIRAGE_MOBILE_APP",
    "WEBSEARCH",
    "distribution_by_name",
    "FlowSpec",
    "PoissonTrafficGenerator",
    "IncastGenerator",
    "IncastFanInGenerator",
    "RpcWorkloadGenerator",
    "VideoWorkloadGenerator",
    "rpc_latencies_ms",
    "video_rebuffer_ratio",
    "WORKLOADS",
    "WORKLOAD_KINDS",
    "TRAFFIC_KINDS",
    "LoadPhase",
    "NonStationaryLoad",
    "PHASE_FLOW_ID_STRIDE",
    "Webpage",
    "ALEXA_TOP20",
    "page_flow_sizes",
]
