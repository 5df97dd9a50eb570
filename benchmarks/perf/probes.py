"""Micro-probes: one layer's hot call in isolation, fixed input.

They give the per-layer table a unit cost that does not depend on the
workload: the bare event-loop cost (what ``trace.unattributed_s`` is
measured against), the flow-table lookup at two table sizes (paper
Fig. 13a), and one OutRAN allocation on a 100 UE x 100 RB grid (Fig. 14).
Each probe repeats its loop and keeps the fastest pass, because a probe
is short enough for one scheduling hiccup to double it.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter

import numpy as np

PASSES = 2
ENGINE_EVENTS = 200_000
OBSERVE_CALLS = 200_000
ALLOCATE_CALLS = 300


def _noop() -> None:
    pass


def _best(fn) -> float:
    return min(fn() for _ in range(PASSES))


def engine_bare_us_per_event() -> float:
    """Schedule + dispatch cost of one no-op event."""
    from repro.sim.engine import EventEngine

    def once() -> float:
        engine = EventEngine()
        schedule_in = engine.schedule_in
        t0 = perf_counter()
        for i in range(ENGINE_EVENTS):
            schedule_in(i % 1000, _noop)
        engine.run_until(1000)
        return perf_counter() - t0

    return _best(once) / ENGINE_EVENTS * 1e6


def _five_tuples(num_flows: int) -> list:
    from repro.net.packet import FiveTuple

    return [FiveTuple(0x0A000001, 0x0B000000, 443, 10_000 + i) for i in range(num_flows)]


def flow_table_ns_per_observe(num_flows: int) -> float:
    """``FlowTable.observe`` round-robin over ``num_flows`` live flows."""
    from repro.core.flow_table import FlowTable
    from repro.core.mlfq import MlfqConfig

    tuples = _five_tuples(num_flows)
    rounds = OBSERVE_CALLS // num_flows

    def once() -> float:
        table = FlowTable(MlfqConfig())
        observe = table.observe
        t0 = perf_counter()
        for r in range(rounds):
            for five_tuple in tuples:
                observe(five_tuple, 1400, r)
        return perf_counter() - t0

    return _best(once) / (rounds * num_flows) * 1e9


def flow_table_bytes_per_flow(num_flows: int = 8_000) -> float:
    """Host memory one tracked flow costs (tracemalloc, not the paper's 37 B)."""
    from repro.core.flow_table import FlowTable
    from repro.core.mlfq import MlfqConfig

    tuples = _five_tuples(num_flows)
    table = FlowTable(MlfqConfig())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for five_tuple in tuples:
            table.observe(five_tuple, 1400, 0)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / num_flows


def mac_allocate_us(num_ues: int = 100, num_rbs: int = 100) -> float:
    """One ``outran`` allocation, every UE backlogged."""
    from repro.mac.bsr import BufferStatusReport
    from repro.mac.scheduler import UeSchedState
    from repro.sim.cell import make_scheduler
    from repro.sim.config import SimConfig

    scheduler = make_scheduler("outran", SimConfig.lte_default(num_ues=num_ues))
    rng = np.random.default_rng(0)
    ues = []
    for i in range(num_ues):
        ue = UeSchedState(i, i)
        ue.ewma_bps = float(rng.uniform(1e5, 1e7))
        ue.bsr = BufferStatusReport(
            ue_id=i, total_bytes=10_000, head_level=int(rng.integers(0, 4))
        )
        ues.append(ue)
    rates = rng.uniform(100, 1000, size=(num_ues, num_rbs))

    def once() -> float:
        t0 = perf_counter()
        for t in range(ALLOCATE_CALLS):
            scheduler.allocate(rates, ues, t * 1000)
        return perf_counter() - t0

    return _best(once) / ALLOCATE_CALLS * 1e6


def run_all() -> dict[str, float]:
    return {
        "engine.bare_us_per_event": engine_bare_us_per_event(),
        "core.ns_per_observe_1k": flow_table_ns_per_observe(1_000),
        "core.ns_per_observe_8k": flow_table_ns_per_observe(8_000),
        "core.bytes_per_flow": flow_table_bytes_per_flow(),
        "mac.allocate_us_100x100": mac_allocate_us(),
    }
