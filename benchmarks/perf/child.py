"""One cell of one workload, in a fresh process.

``run.py`` starts this script once per (workload, cell, repetition) so
that imports, flow generation and the garbage collector start from the
same state every time; nothing is warmed up, because imports and flow
generation are what a user pays and are reported as ``setup_s``.

The timed path uses only the public session API (``SimConfig`` ->
``SimulationSession.from_config(...).start().finish()``) on the default
execution path.  With ``--traced`` the layers' public methods are wrapped
first (``spans.py`` / ``layers.py``) and the per-layer metrics are added.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter, process_time

HERE = Path(__file__).resolve().parent
# The package is not installed; the checkout's src/ is the only copy.
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.sim.session import SimulationSession, result_fingerprint  # noqa: E402
from repro.telemetry.registry import TelemetryRegistry  # noqa: E402

OUT_DIR = HERE / "out"


def build_session(workload, config, scale, traced) -> SimulationSession:
    kwargs = {}
    if workload.served:
        kwargs = {"telemetry": TelemetryRegistry(), "flow_trace": True}
    elif traced:
        # Attached only to read the layers' counters; stripped again
        # before fingerprinting (see sim_fingerprint).
        kwargs = {"telemetry": TelemetryRegistry()}
    return SimulationSession.from_config(
        config,
        workloads.SCHEDULER,
        duration_s=workload.duration_s * scale,
        drain_s=workloads.DRAIN_S,
        **kwargs,
    )


def drive_oneshot(session):
    return session.finish(), None


def drive_served(session):
    """Step / snapshot / checkpoint+resume, the way `repro serve` does."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"served.{os.getpid()}.ckpt"
    snapshot_ms, roundtrip_s = [], []
    checkpoint_bytes = steps = 0
    try:
        while not session.done:
            session.step(n_ttis=workloads.SERVED_STEP_TTIS)
            steps += 1
            t0 = perf_counter()
            session.snapshot(telemetry=True)
            snapshot_ms.append((perf_counter() - t0) * 1e3)
            if steps % workloads.SERVED_CHECKPOINT_EVERY == 0:
                t0 = perf_counter()
                checkpoint_bytes = session.checkpoint(path)["bytes"]
                session = SimulationSession.resume(path)
                roundtrip_s.append(perf_counter() - t0)
    finally:
        path.unlink(missing_ok=True)
    served = {
        "session.checkpoint_roundtrip_s": (
            statistics.median(roundtrip_s) if roundtrip_s else 0.0
        ),
        "session.checkpoint_mb": checkpoint_bytes / 1e6,
        "session.snapshot_p50_ms": statistics.median(snapshot_ms),
    }
    return session.finish(), served


def simulated_metrics(result, total_s) -> dict:
    started = result.completed_flows + result.censored_flows
    return {
        "short_avg_fct_ms": result.avg_fct_ms("S"),
        "sim.short_p95_fct_ms": result.pctl_fct_ms(95, "S"),
        "overall_avg_fct_ms": result.avg_fct_ms(),
        # Goodput of completed flows over the whole simulated time.
        "sim.cell_tput_mbps": sum(r.size_bytes for r in result.records) * 8 / total_s / 1e6,
        "sim.mean_se_bps_hz": result.mean_se(),
        "sim.jain_fairness": result.longterm_fairness(),
        "completed_share": result.completed_flows / started if started else 0.0,
    }


def sim_fingerprint(result, served) -> str:
    """``result_fingerprint`` of what the *workload* computed.

    A traced run of a workload that attaches no registry carries a
    telemetry snapshot the untraced run does not have; it is not part of
    the workload's output, so it is dropped before hashing.
    """
    if not served:
        result.telemetry = None
    return result_fingerprint(result)


def by_group(totals: dict) -> dict[str, tuple[int, float]]:
    """Span totals per target -> (calls, self seconds) per layer group."""
    out: dict[str, tuple[int, float]] = {}
    for group, path in layers.TARGETS:
        calls, self_ns = totals.get(path, (0, 0))
        seen = out.get(group, (0, 0.0))
        out[group] = (seen[0] + calls, seen[1] + self_ns / 1e9)
    return out


def per_layer_metrics(setup, run, counters, probes, wall_s, num_ues) -> dict:
    """Fold span totals, registry counters and probes into metric names."""
    groups = by_group(run)
    out: dict[str, float] = {
        name: sum(groups[g][1] for g in members)
        for name, members in layers.SELF_TIME.items()
    }
    out.update(
        {name: sum(groups[g][0] for g in members) for name, members in layers.CALLS.items()}
    )
    out.update(
        {name: run.get(path, (0, 0))[0] for name, path in layers.TARGET_CALLS.items()}
    )
    out.update({name: counters.get(c, 0) for name, c in layers.COUNTERS.items()})
    out.update(probes)
    out["traffic.generate_s"] = by_group(setup)["traffic"][1]
    events, ttis = out["engine.events"], out["enb.ttis"]
    out["engine.self_us_per_event"] = out["engine.self_s"] * 1e6 / events
    out["enb.self_us_per_ue_tti"] = out["enb.on_tti_self_s"] * 1e6 / (num_ues * ttis)
    bare_s = out["engine.bare_us_per_event"] * events / 1e6
    out["trace.wall_s"] = wall_s
    out["trace.root_self_s"] = run[layers.ROOT][1] / 1e9
    out["trace.unattributed_s"] = out["engine.self_s"] - bare_s
    out["trace.unattributed_share"] = out["trace.unattributed_s"] / wall_s
    return out


def traced_report(recorder, setup_totals, counters, wall_s, num_ues, name) -> tuple[dict, list]:
    """Per-layer part of the report and the checks that belong to it."""
    import probes

    run_totals = {
        key: (calls - setup_totals.get(key, (0, 0))[0], ns - setup_totals.get(key, (0, 0))[1])
        for key, (calls, ns) in recorder.totals().items()
    }
    recorder.uninstall()  # probes time the bare calls
    metrics = per_layer_metrics(
        setup_totals, run_totals, counters, probes.run_all(), wall_s, num_ues
    )
    metrics["trace.spans"] = recorder.spans
    metrics["trace.missing_targets"] = len(recorder.missing)
    failed = []
    # Self times partition the root span, so they must add up to the
    # independently measured wall time.
    attributed_s = sum(ns for _, ns in run_totals.values()) / 1e9
    if abs(attributed_s - wall_s) > 0.01 * wall_s:
        failed.append(f"self times sum to {attributed_s:.4f}s, trace.wall_s is {wall_s:.4f}s")
    OUT_DIR.mkdir(exist_ok=True)
    recorder.save_chrome_trace(OUT_DIR / f"{name}.trace.json")
    return metrics, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="SimConfig.seed of the cell")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--oneshot", action="store_true",
                        help="run a served workload's config as start().finish()")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install(path for _, path in layers.TARGETS)

    config = workload.config(args.seed)
    session = build_session(workload, config, args.scale, args.traced)
    session.start()
    setup_s = monotonic() - args.spawned_at
    setup_totals = recorder.totals() if recorder else {}

    drive = drive_served if workload.served and not args.oneshot else drive_oneshot
    if recorder:
        drive = recorder.wrap(layers.ROOT, drive)
    cpu0 = process_time()
    t0 = perf_counter()
    result, served = drive(session)
    wall_s = perf_counter() - t0
    cpu_s = process_time() - cpu0
    # ru_maxrss is the high-water mark: read it before probes allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    num_ues = config.num_ues
    total_s = session.duration_s + session.drain_s
    counters = (result.telemetry or {}).get("counters", {})
    fcts = result.fcts_ms()
    failed_checks = []
    if result.censored_flows < 0:
        failed_checks.append("flows_completed > flows_started")
    if fcts.size and not (fcts > 0).all():
        failed_checks.append("an FCT is not positive")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "fingerprint": sim_fingerprint(result, workload.served),
        "host": {
            "setup_s": setup_s,
            "session.wall_s": wall_s,
            "session.cpu_s": cpu_s,
            "session.us_per_ue_tti": wall_s * 1e6 / (num_ues * result.extra["ttis"]),
            "peak_rss_mb": peak_rss_mb,
        },
        "sim": simulated_metrics(result, total_s),
        "facts": {
            "events": result.extra["events"],
            "ttis": result.extra["ttis"],
            "num_ues": num_ues,
            "flows_started": result.completed_flows + result.censored_flows,
            "flows_completed": result.completed_flows,
        },
        "served": served,
    }

    if recorder:
        report["per_layer"], failed = traced_report(
            recorder, setup_totals, counters, wall_s, num_ues, workload.name
        )
        report["missing_targets"] = recorder.missing
        failed_checks += failed

    report["failed_checks"] = failed_checks
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
