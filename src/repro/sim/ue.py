"""Per-UE composition: PDCP + RLC + channel.

One :class:`UeContext` bundles everything the simulator keeps per user:
the downlink protocol entities at the xNodeB side (flow table, PDCP
entity, RLC transmitter), the UE-side receivers (RLC receiver, PDCP
receiver, per-flow TCP receivers) and the channel state.  The MAC's
per-UE state is not here: it is row ``index`` of the xNodeB's
:class:`~repro.mac.kernels.SchedArrays` table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.cc import make_aqm
from repro.core.flow_table import FlowTable
from repro.core.mlfq import MlfqConfig
from repro.pdcp.entity import PdcpEntity, PdcpReceiver
from repro.phy.channel import UeChannel
from repro.rlc.pdu import RlcSdu
from repro.sim.config import SimConfig

if TYPE_CHECKING:
    from repro.net.tcp import TcpFlow, TcpReceiver
    from repro.rlc.am import AmReceiver, AmTransmitter
    from repro.rlc.um import UmReceiver, UmTransmitter
    from repro.traffic.generator import FlowSpec

#: Idle five-tuples are treated as new flows after this long (section 4.2).
FLOW_IDLE_TIMEOUT_US = 10_000_000


class FlowRuntime:
    """Live endpoints of one flow."""

    __slots__ = ("spec", "sender", "receiver", "start_us")

    def __init__(self, spec: "FlowSpec", sender: "TcpFlow", receiver: "TcpReceiver"):
        self.spec = spec
        self.sender = sender
        self.receiver = receiver
        self.start_us = spec.start_us


class UeContext:
    """All per-UE state, xNodeB side and UE side."""

    def __init__(
        self,
        index: int,
        config: SimConfig,
        channel: UeChannel,
        use_mlfq: bool,
        deliver_sdu: Callable[["UeContext", RlcSdu, int], None],
        on_sdu_dequeued: Callable[[RlcSdu, int], None],
    ) -> None:
        self.index = index
        self.config = config
        self.channel = channel
        # Stored (not captured in closures) so a checkpoint can pickle the
        # whole UE graph: every callback handed to the RLC entities below is
        # a bound method of this object.
        self._deliver_cb = deliver_sdu
        mlfq_config = config.mlfq if use_mlfq else MlfqConfig.single_queue()
        self.flow_table = FlowTable(mlfq_config, idle_timeout_us=FLOW_IDLE_TIMEOUT_US)
        self.pdcp = PdcpEntity(self.flow_table, delayed_sn=config.delayed_sn)
        self.pdcp_rx = PdcpReceiver(reorder_window=config.pdcp_reorder_window)

        overflow_policy = config.rlc_overflow_policy
        if overflow_policy is None:
            overflow_policy = "drop_lowest" if use_mlfq else "drop_incoming"
        rlc_kwargs = dict(
            mlfq_config=mlfq_config,
            capacity_sdus=config.rlc_capacity_sdus,
            overflow_policy=overflow_policy,
            promote_segments=config.promote_segments,
            on_sdu_dequeued=on_sdu_dequeued,
            on_sdu_first_tx=self._number_sdu if config.delayed_sn else None,
            aqm=make_aqm(config, index),
        )
        self.rlc: Union[UmTransmitter, AmTransmitter]
        self.rlc_rx: Union[UmReceiver, AmReceiver]
        if config.rlc_mode == "am":
            from repro.rlc.am import AmReceiver, AmTransmitter

            self.rlc = AmTransmitter(index, **rlc_kwargs)
            self.rlc_rx = AmReceiver(deliver=self._deliver)
        else:
            from repro.rlc.um import UmReceiver, UmTransmitter

            self.rlc = UmTransmitter(index, **rlc_kwargs)
            self.rlc_rx = UmReceiver(
                deliver=self._deliver,
                reassembly_window_us=config.reassembly_window_us,
            )
        #: This UE's flows until the FCT instant; the endpoints themselves
        #: live in ``CellSimulation._runtimes`` until the sender retires.
        self.active_runtimes: dict[int, FlowRuntime] = {}

    def _deliver(self, sdu: RlcSdu, now_us: int) -> None:
        self._deliver_cb(self, sdu, now_us)

    def _number_sdu(self, sdu: RlcSdu) -> None:
        if sdu.pdcp_sn is None:  # delayed numbering at first transmission
            sdu.pdcp_sn = self.pdcp.egress(sdu.packet, None).sn

    def attach_flow_tracer(self, tracer) -> None:
        """Route this UE's PDCP/RLC flow-lifecycle events to ``tracer``."""
        self.pdcp.tracer = tracer
        self.rlc.tracer = tracer

    def refresh_oracle(
        self, now_us: int, qos_oracle: bool
    ) -> tuple[Optional[int], int, int]:
        """The clairvoyant ``(remaining, qos_flows, qos_hol_us)`` for SRJF /
        PSS / CQA: bytes left of the shortest active flow (None without
        one), flows under a QoS delay budget, delay of the oldest one."""
        remaining: Optional[int] = None
        qos_count = 0
        qos_hol = 0
        for runtime in self.active_runtimes.values():
            left = runtime.sender.remaining_bytes
            if left > 0 and (remaining is None or left < remaining):
                remaining = left
            if qos_oracle and runtime.spec.qos_short:
                qos_count += 1
                qos_hol = max(qos_hol, now_us - runtime.start_us)
        return remaining, qos_count, qos_hol

    def boost_priorities(self) -> None:
        """Priority reset (section 6.3): flow table + queued SDUs."""
        self.flow_table.reset_all()
        self.rlc.boost_priorities()
