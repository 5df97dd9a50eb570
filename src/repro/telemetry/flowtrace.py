"""Per-flow FCT provenance tracing: span events and latency breakdown.

OutRAN's whole argument is about *where* flow completion time is spent.
The aggregate counters and gauges of :mod:`repro.telemetry.registry`
answer "how slow is the p99" but not "why is *this* flow's p99 high".
The :class:`FlowTracer` answers that question: it records timestamped
events as each flow's bytes cross TCP -> core transport -> PDCP -> RLC ->
MAC/HARQ -> PHY -> delivery, and on flow completion decomposes the flow's
FCT into additive per-layer components.

Span model
----------

Every TCP transmission creates a fresh :class:`~repro.net.packet.Packet`,
so one *leg* (one copy of one segment crossing the stack) is that packet,
and the crossing timestamps ride on it -- the tracer keeps nothing per
packet::

    sent_us       the sender put the copy on the wire (TCP layer done)
    ingress_us    the copy reached the xNodeB (core transport done)
    enqueued_us   PDCP inspection finished, SDU entered the RLC queue
    first_tx_us   the SDU's first byte entered an RLC PDU (MAC grant won)
    last_tx_us    the SDU's final byte entered an RLC PDU

A flow completes when the receiver's ``rcv_nxt`` passes the flow size;
the delivery that triggers completion identifies the *completing leg*
(its stamps are copied into the flow's record at every delivery), and the
breakdown is that leg's journey (all integer microseconds, so the
components sum to the FCT **exactly**):

==============  ====================================================
``tcp_us``      flow start -> final TCP transmission of the
                completing segment (slow-start ramp, cwnd stalls,
                dupack/RTO recovery of earlier lost copies)
``core_us``     wired server -> xNodeB transport
``pdcp_us``     xNodeB ingress -> RLC enqueue (header inspection,
                flow-table update, SN handling)
``mac_wait_us`` RLC enqueue -> first byte granted (the MAC
                scheduling wait under MLFQ / epsilon-relaxation)
``rlc_us``      first byte granted -> last byte granted (RLC
                buffering / segmentation spread across grants)
``harq_us``     residual air-interface recovery: HARQ retransmission
                rounds plus RLC AM status/retx recovery
``air_us``      the final successful transport block's flight time
==============  ====================================================

Determinism contract (the registry's): the tracer only
*reads* simulator state -- it never touches an RNG, never mutates
protocol state, and every instrumented hot path guards the emit with an
``is not None`` check, so a run without a tracer executes the identical
instruction stream and same-seed ``--json`` output stays byte-identical.

The event stream also exports as Chrome trace-event JSON
(:meth:`FlowTracer.to_chrome_trace`), loadable directly in Perfetto or
``chrome://tracing`` with one process per UE and one track per layer.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.sim.metrics import append_row, size_bucket

if TYPE_CHECKING:  # circular-import-free type hints only
    from repro.net.packet import Packet
    from repro.rlc.pdu import RlcSdu
    from repro.traffic.generator import FlowSpec

#: Breakdown components, in stack order.  Values are integer
#: microseconds and sum exactly to the flow's FCT.
COMPONENTS = ("tcp", "core", "pdcp", "mac_wait", "rlc", "harq", "air")

#: Layer track names for the Chrome trace export, in display order.
LAYER_TRACKS = ("tcp", "core", "pdcp", "mac", "rlc", "harq", "air")

_COMPONENT_TRACK = {
    "tcp": "tcp",
    "core": "core",
    "pdcp": "pdcp",
    "mac_wait": "mac",
    "rlc": "rlc",
    "harq": "harq",
    "air": "air",
}

#: An event is a row of five integers ``(ts_us, ue, kind, a, b)``.  For
#: an instant, ``kind`` indexes this table of (track, name over a and b);
#: names and tracks are only built by :meth:`FlowTracer.to_chrome_trace`.
_INSTANTS = (
    ("tcp", "retx seq={0}"),
    ("tcp", "RTO"),
    ("tcp", "fast-retransmit"),
    ("rlc", "drop seq={0}"),
    ("rlc", "AM retx sn={0}"),
    ("mac", "grant {0}b wait={1}us"),
    ("harq", "TB lost ({0}B)"),
    ("harq", "retx failed"),
    ("harq", "retx ok"),
    ("pdcp", "decipher failure"),
)
(
    _TCP_RETX,
    _TCP_RTO,
    _TCP_FAST_RETRANSMIT,
    _RLC_DROP,
    _RLC_AM_RETX,
    _MAC_GRANT,
    _HARQ_TB_LOST,
    _HARQ_RETX_FAILED,
    _HARQ_RETX_OK,
    _PDCP_DECIPHER_FAILURE,
) = range(len(_INSTANTS))
#: A span's kind is ``_SPAN`` plus its index in :data:`COMPONENTS`; ``a``
#: is the flow's row in the breakdown log and ``b`` the duration.
_SPAN = len(_INSTANTS)
_ROW = 5
#: Integers in a breakdown row (``FlowBreakdown``'s fields); the
#: components are ``row[_COMPONENTS_AT:_COMPONENTS_AT + len(COMPONENTS)]``.
_BREAKDOWN_ROW = 15
_COMPONENTS_AT = 5


def breakdown_list(log: array) -> list[FlowBreakdown]:
    """A fresh ``FlowBreakdown`` per row of a breakdown log, in log order."""
    return [
        FlowBreakdown(*log[i : i + _BREAKDOWN_ROW])
        for i in range(0, len(log), _BREAKDOWN_ROW)
    ]


@dataclass(frozen=True)
class FlowBreakdown:
    """Additive per-layer decomposition of one completed flow's FCT (a
    row of ``FlowTracer._breakdowns``, built when read)."""

    flow_id: int
    ue_index: int
    size_bytes: int
    start_us: int
    end_us: int
    tcp_us: int
    core_us: int
    pdcp_us: int
    mac_wait_us: int
    rlc_us: int
    harq_us: int
    air_us: int
    #: Diagnostic counts along the flow's lifetime (not FCT components).
    tcp_retx: int = 0
    rlc_drops: int = 0
    harq_retx: int = 0

    @property
    def fct_us(self) -> int:
        return self.end_us - self.start_us

    @property
    def bucket(self) -> str:
        return size_bucket(self.size_bytes)

    def components(self) -> dict[str, int]:
        """Component name -> microseconds, in stack order."""
        return {
            "tcp": self.tcp_us,
            "core": self.core_us,
            "pdcp": self.pdcp_us,
            "mac_wait": self.mac_wait_us,
            "rlc": self.rlc_us,
            "harq": self.harq_us,
            "air": self.air_us,
        }

    def as_dict(self) -> dict:
        """JSON-ready view (used by ``repro explain --json``)."""
        return {
            "flow_id": self.flow_id,
            "ue_index": self.ue_index,
            "size_bytes": self.size_bytes,
            "bucket": self.bucket,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "fct_us": self.fct_us,
            "components_us": self.components(),
            "tcp_retx": self.tcp_retx,
            "rlc_drops": self.rlc_drops,
            "harq_retx": self.harq_retx,
        }


class _FlowTrace:
    """Mutable per-flow tracing state."""

    __slots__ = (
        "flow_id",
        "ue_index",
        "size_bytes",
        "start_us",
        "last_delivered",
        "tcp_retx",
        "rlc_drops",
        "harq_retx",
        "completed",
    )

    def __init__(self, flow_id: int, ue_index: int, size_bytes: int, start_us: int):
        self.flow_id = flow_id
        self.ue_index = ue_index
        self.size_bytes = size_bytes
        self.start_us = start_us
        #: Crossing stamps of the packet delivered last, in stack order.
        self.last_delivered: Optional[tuple] = None
        self.tcp_retx = 0
        self.rlc_drops = 0
        self.harq_retx = 0
        self.completed = False


class FlowTracer:
    """Span-based flow-lifecycle tracer (attach one per simulation).

    ``air_delay_us`` is the configured one-way air-interface delay, used
    to split the post-grant residual into ``air`` (the final successful
    flight) and ``harq`` (HARQ rounds / AM recovery on top of it).
    """

    enabled = True

    def __init__(self, air_delay_us: int = 0) -> None:
        self.air_delay_us = air_delay_us
        self._flows: dict[int, _FlowTrace] = {}
        #: One ``_BREAKDOWN_ROW``-int row per decomposed flow, in
        #: ``FlowBreakdown`` field order (60 B a flow).
        self._breakdowns = array("i")
        #: Instant/span rows feeding the Chrome trace export, ``_ROW``
        #: integers each (20 B an event, 40 B once ``append_row`` widens it).
        self._events = array("i")
        #: Completions whose completing packet was missing a crossing stamp
        #: (should be zero; a non-zero count flags an instrumentation gap).
        self.incomplete_flows = 0

    # -- TCP layer (remote server) --------------------------------------

    def on_flow_start(self, spec: "FlowSpec", now_us: int) -> None:
        self._flows[spec.flow_id] = _FlowTrace(
            spec.flow_id, spec.ue_index, spec.size_bytes, now_us
        )

    def on_tcp_tx(self, flow_id: int, packet: "Packet", now_us: int) -> None:
        flow = self._flows.get(flow_id)
        if flow is None or flow.completed:
            return
        if packet.is_retx:
            flow.tcp_retx += 1
            self._emit(now_us, flow.ue_index, _TCP_RETX, packet.seq)

    def on_tcp_rto(self, flow_id: int, now_us: int) -> None:
        flow = self._flows.get(flow_id)
        if flow is not None and not flow.completed:
            self._emit(now_us, flow.ue_index, _TCP_RTO)

    def on_tcp_recovery(self, flow_id: int, now_us: int) -> None:
        flow = self._flows.get(flow_id)
        if flow is not None and not flow.completed:
            self._emit(now_us, flow.ue_index, _TCP_FAST_RETRANSMIT)

    # -- xNodeB ingress / PDCP ------------------------------------------

    def on_enb_ingress(self, packet: "Packet", now_us: int) -> None:
        packet.ingress_us = now_us

    def on_pdcp_ingress(self, packet: "Packet", level: int, now_us: int) -> None:
        """PDCP header inspection done; ``level`` is the MLFQ verdict."""
        # The timestamp of record is the RLC enqueue; this hook exists so
        # the PDCP entity is a first-class emit point (and so a future
        # non-zero PDCP processing model is captured automatically).

    # -- RLC -------------------------------------------------------------

    def on_rlc_enqueue(self, sdu: "RlcSdu", now_us: int) -> None:
        sdu.packet.enqueued_us = now_us

    def on_rlc_drop(self, packet: "Packet", now_us: int) -> None:
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            return
        flow.rlc_drops += 1
        self._emit(now_us, flow.ue_index, _RLC_DROP, packet.seq)

    def on_rlc_first_tx(self, sdu: "RlcSdu", now_us: int) -> None:
        packet = sdu.packet
        if packet.first_tx_us is None:
            packet.first_tx_us = now_us

    def on_rlc_last_tx(self, sdu: "RlcSdu", now_us: int) -> None:
        sdu.packet.last_tx_us = now_us

    def on_rlc_am_retx(self, ue_id: int, sn: int, now_us: int) -> None:
        self._emit(now_us, ue_id, _RLC_AM_RETX, sn)

    # -- MAC / HARQ ------------------------------------------------------

    def on_mac_grant(
        self, ue_index: int, grant_bits: int, wait_us: int, now_us: int
    ) -> None:
        self._emit(now_us, ue_index, _MAC_GRANT, grant_bits, wait_us)

    def on_harq_failure(self, ue_id: int, tb_bytes: int, now_us: int) -> None:
        self._emit(now_us, ue_id, _HARQ_TB_LOST, tb_bytes)

    def on_harq_attempt(
        self, ue_id: int, flow_ids: Iterable[int], ok: bool, now_us: int
    ) -> None:
        for flow_id in flow_ids:
            flow = self._flows.get(flow_id)
            if flow is not None and not flow.completed:
                flow.harq_retx += 1
        self._emit(now_us, ue_id, _HARQ_RETX_OK if ok else _HARQ_RETX_FAILED)

    # -- delivery / completion ------------------------------------------

    def on_pdcp_decipher_failure(self, ue_index: int, now_us: int) -> None:
        self._emit(now_us, ue_index, _PDCP_DECIPHER_FAILURE)

    def on_delivery(self, packet: "Packet", now_us: int) -> None:
        """A deciphered packet reached the UE's TCP receiver."""
        flow = self._flows.get(packet.flow_id)
        if flow is not None and not flow.completed:
            flow.last_delivered = (
                packet.sent_us,
                packet.ingress_us,
                packet.enqueued_us,
                packet.first_tx_us,
                packet.last_tx_us,
            )

    def on_flow_complete(self, flow_id: int, now_us: int) -> None:
        """The flow's last byte arrived: freeze the breakdown."""
        flow = self._flows.get(flow_id)
        if flow is None or flow.completed:
            return
        flow.completed = True
        row = self._decompose(flow, now_us)
        if row is None:
            self.incomplete_flows += 1
        else:
            self._record_breakdown(row)
        flow.last_delivered = None

    def _decompose(self, flow: _FlowTrace, end_us: int) -> Optional[tuple]:
        """The flow's breakdown row, in ``FlowBreakdown`` field order."""
        stamps = flow.last_delivered
        if stamps is None or None in stamps:
            return None
        sent_us, ingress_us, enqueued_us, first_tx_us, last_tx_us = stamps
        residual = end_us - last_tx_us
        air_us = min(self.air_delay_us, residual)
        return (
            flow.flow_id,
            flow.ue_index,
            flow.size_bytes,
            flow.start_us,
            end_us,
            sent_us - flow.start_us,  # tcp
            ingress_us - sent_us,  # core
            enqueued_us - ingress_us,  # pdcp
            first_tx_us - enqueued_us,  # mac_wait
            last_tx_us - first_tx_us,  # rlc
            residual - air_us,  # harq
            air_us,
            flow.tcp_retx,
            flow.rlc_drops,
            flow.harq_retx,
        )

    def _record_breakdown(self, row: tuple) -> None:
        """Append a breakdown row and the span events of its components."""
        self._breakdowns = append_row(self._breakdowns, row)
        index = self.completed_flows - 1
        cursor = row[3]  # start_us
        components = row[_COMPONENTS_AT : _COMPONENTS_AT + len(COMPONENTS)]
        for kind, dur in enumerate(components, start=_SPAN):
            if dur > 0:
                self._emit(cursor, row[1], kind, index, dur)
            cursor += dur

    def _breakdown(self, index: int) -> FlowBreakdown:
        start = index * _BREAKDOWN_ROW
        return FlowBreakdown(*self._breakdowns[start : start + _BREAKDOWN_ROW])

    # -- results ---------------------------------------------------------

    def breakdowns(self) -> list[FlowBreakdown]:
        """Per-flow FCT breakdowns of every completed flow, in completion
        order (a fresh list, built from the breakdown log)."""
        return breakdown_list(self._breakdowns)

    @property
    def completed_flows(self) -> int:
        return len(self._breakdowns) // _BREAKDOWN_ROW

    @property
    def event_count(self) -> int:
        return len(self._events) // _ROW

    # -- Chrome trace-event export ---------------------------------------

    def _emit(
        self, ts_us: int, ue_index: int, kind: int, a: int = 0, b: int = 0
    ) -> None:
        self._events = append_row(self._events, (ts_us, ue_index, kind, a, b))

    def to_chrome_trace(self) -> dict:
        """Render the event stream in Chrome trace-event JSON format.

        One *process* per UE, one *thread* (track) per layer; completed
        flows appear as complete ("X") spans of their breakdown
        components, layer incidents (drops, HARQ losses, RTOs) as
        instant ("i") events.  The document loads directly in Perfetto
        or ``chrome://tracing``.
        """
        track_index = {name: i for i, name in enumerate(LAYER_TRACKS)}
        events: list[dict] = []
        columns = [self._events[i::_ROW] for i in range(_ROW)]
        for ue in sorted(set(columns[1])):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": ue,
                    "tid": 0,
                    "args": {"name": f"UE {ue}"},
                }
            )
            for track, tid in track_index.items():
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": ue,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
        for ts_us, ue, kind, a, b in zip(*columns):
            instant = kind < _SPAN
            if instant:
                track, name = _INSTANTS[kind]
                name = name.format(a, b)
            else:
                component = COMPONENTS[kind - _SPAN]
                track = _COMPONENT_TRACK[component]
                flow = self._breakdown(a)
                name = (
                    f"flow {flow.flow_id} {flow.bucket} {flow.size_bytes}B "
                    f"{component}"
                )
            event = {
                "name": name,
                "cat": track,
                "ph": "i" if instant else "X",
                "ts": ts_us,
                "pid": ue,
                "tid": track_index[track],
            }
            if instant:
                event["s"] = "t"  # thread-scoped instant
            else:
                event["dur"] = b
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_chrome_trace` as JSON to ``path``."""
        Path(path).write_text(json.dumps(self.to_chrome_trace()) + "\n")


def coerce_flow_tracer(flow_trace, air_delay_us: int = 0) -> Optional[FlowTracer]:
    """Normalize a constructor argument into a tracer or None.

    ``None``/``False`` -> None (tracing off: hot paths skip the emit via
    an ``is not None`` guard, so the off path costs nothing), ``True`` ->
    a fresh :class:`FlowTracer`, a tracer -> itself.
    """
    if flow_trace is None or flow_trace is False:
        return None
    if flow_trace is True:
        return FlowTracer(air_delay_us=air_delay_us)
    if isinstance(flow_trace, FlowTracer):
        return flow_trace
    raise TypeError(
        f"flow_trace must be a FlowTracer or bool: {flow_trace!r}"
    )
