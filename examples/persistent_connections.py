#!/usr/bin/env python3
"""The QUIC / persistent-connection limitation (paper section 4.2).

Applications that reuse one five-tuple for many short exchanges (QUIC
stream multiplexing, HTTP keep-alive, chunked video) accumulate
sent-bytes in OutRAN's flow table, so later exchanges start in a
low-priority queue even though each is short.

Three scenarios on a UE that also carries a bulk download:

  fresh connections  -- every chunk is its own flow: full MLFQ benefit.
  shared connection  -- all chunks reuse one five-tuple: the counter
                        demotes them to the bulk's level (the limitation).
  shared, long idle  -- chunks arrive slower than the idle timeout, so
                        the reused five-tuple is treated as a new flow
                        (the built-in mitigation; section 6.3's periodic
                        priority boost plays the same role for busier
                        connections).

Run:  python examples/persistent_connections.py
"""

import numpy as np

from repro import SimConfig, SimulationSession
from repro.net.packet import FiveTuple
from repro.sim.ue import FLOW_IDLE_TIMEOUT_US
from repro.traffic.generator import FlowSpec

NUM_CHUNKS = 8
CHUNK_BYTES = 200_000  # a chunked-video segment


def run(connection, gap_us):
    cfg = SimConfig.lte_default(num_ues=3, seed=3, bandwidth_mhz=5)
    flows = [
        # The competing bulk download on the same UE.
        FlowSpec(flow_id=999, ue_index=0, size_bytes=60_000_000, start_us=0),
    ]
    for i in range(NUM_CHUNKS):
        flows.append(
            FlowSpec(
                flow_id=i,
                ue_index=0,
                size_bytes=CHUNK_BYTES,
                start_us=500_000 + i * gap_us,
                connection=connection,
            )
        )
    duration = (500_000 + NUM_CHUNKS * gap_us) / 1e6 + 1
    res = SimulationSession.from_config(
        cfg, "outran", duration_s=duration, flows=flows
    ).start().finish()
    fcts = [r.fct_ms for r in sorted(res.records, key=lambda r: r.flow_id)
            if r.flow_id < NUM_CHUNKS]
    return fcts


def main() -> None:
    scenarios = [
        ("fresh connections", None, 700_000),
        ("shared connection", 7, 700_000),
        ("shared, long idle", 7, FLOW_IDLE_TIMEOUT_US + 500_000),
    ]
    print(f"{'scenario':<20} {'first chunk':>12} {'last chunk':>12}  (FCT, ms)")
    for label, connection, gap in scenarios:
        fcts = run(connection, gap)
        print(f"{label:<20} {fcts[0]:>12.1f} {fcts[-1]:>12.1f}")
    print(
        "\nWith a shared five-tuple the later chunks inherit the connection's\n"
        "accumulated sent-bytes and queue at the bulk flow's priority; fresh\n"
        "or long-idle connections keep the top queue (sections 4.2, 6.3)."
    )


if __name__ == "__main__":
    main()
