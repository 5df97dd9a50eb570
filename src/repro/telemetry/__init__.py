"""Unified telemetry: counters/gauges, heartbeats, flow traces.

The subsystem has five pieces, all dependency-free:

* :mod:`repro.telemetry.registry` -- a :class:`TelemetryRegistry` of named
  counters and gauges, filled by harvesting the plain integers the layers
  keep; ``None`` is "off".
* :mod:`repro.telemetry.exporters` -- snapshot serialization to JSON and
  Prometheus-style text exposition.
* :mod:`repro.telemetry.heartbeat` -- a periodic run-health line (sim
  time, events/s, active flows, trace memory) for long runs; the one
  place in the package that reads a host clock.
* :mod:`repro.telemetry.kpi` -- windowed per-cell KPI snapshots (FCT
  percentiles, queue occupancy, per-MLFQ-level backlog): the indication
  payload of the Near-RT RIC loop (:mod:`repro.ric`).
* :mod:`repro.telemetry.flowtrace` -- a span-based per-flow lifecycle
  tracer decomposing each completed flow's FCT into additive per-layer
  components (TCP / core / PDCP / MAC wait / RLC / HARQ / air), with a
  Chrome trace-event exporter for Perfetto.

Observability must never perturb the simulation: nothing in this package
touches an RNG or mutates simulator state, so same-seed runs with and
without telemetry produce identical results (asserted by the test suite).
"""
