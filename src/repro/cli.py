"""Command-line interface: ``repro run | sweep | explain | serve``.

Examples::

    python -m repro run --scheduler outran --load 0.9 --ues 40 --duration 8
    python -m repro run --rat nr --mu 3 --mec --scheduler pf --json out.json
    python -m repro run --cc dctcp --ecn-k 30 --workload incast
    python -m repro run --compare pf outran srjf --load 0.9 --jobs 3
    python -m repro run --scheduler outran --telemetry out.json --heartbeat 1
    python -m repro run --scheduler outran --ric --ric-xapp hillclimb \\
        --ric-period 100 --ric-report ric.json
    python -m repro explain --scheduler pf outran --load 0.9 --duration 4
    python -m repro sweep sweep.json --jobs 4 --out results.json
    python -m repro serve --port 8711

``run`` executes one simulation (or ``--compare`` several on the
identical workload) and prints the FCT summary.

``sweep`` expands a declarative JSON grid (see ``docs/RUNNER.md``) and
executes it through the crash-tolerant parallel runner with a persistent
result store, so interrupted sweeps resume from the last checkpoint when
re-invoked.

``explain`` takes ``run``'s scenario flags, runs with flow tracing
enabled and prints the per-layer FCT breakdown report (see
``docs/OBSERVABILITY.md``): where each size bucket's completion time is
spent -- TCP dynamics, core transport, PDCP, MAC scheduling wait, RLC
buffering, HARQ recovery, air time -- plus the slowest individual flows
with their dominant layer.

``serve`` hosts resumable :class:`~repro.sim.session.SimulationSession`
objects behind a local HTTP/JSON control API with a live Prometheus
``/metrics`` endpoint (see ``docs/API.md``).

Every command reaches a simulation the same way: flags ->
:class:`~repro.runner.spec.RunSpec` -> ``spec.session(...)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.compare import comparison_table
from repro.analysis.tables import format_table
from repro.cc import CC_NAMES
from repro.runner.spec import RunSpec, SweepSpec
from repro.sim.cell import SCHEDULER_NAMES
from repro.sim.metrics import SimResult
from repro.telemetry.exporters import snapshot_to_json, snapshot_to_prometheus
from repro.traffic.workloads import WORKLOADS


RUN_DESCRIPTION = (
    "Run one single-cell LTE/5G downlink scheduling simulation (or "
    "--compare several schedulers on the identical workload) and print "
    "the FCT summary."
)


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The scenario flags ``run`` and ``explain`` share (see
    :func:`_spec_from_args` for what they select)."""
    parser.add_argument("--rat", choices=("lte", "nr"), default="lte")
    parser.add_argument("--mu", type=int, default=1, help="NR numerology (nr only)")
    parser.add_argument("--mec", action="store_true", help="edge server (nr only)")
    parser.add_argument("--ues", type=int, default=40)
    parser.add_argument("--load", type=float, default=0.8)
    parser.add_argument(
        "--distribution",
        default=None,
        help="flow-size distribution (default: per-RAT paper workload)",
    )
    parser.add_argument("--duration", type=float, default=8.0, help="seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rlc-mode", choices=("um", "am"), default="um")
    parser.add_argument("--bler", type=float, default=0.0)
    parser.add_argument(
        "--cc",
        choices=CC_NAMES,
        default="cubic",
        help="sender congestion control (default: %(default)s; see "
        "docs/CONGESTION.md)",
    )
    parser.add_argument(
        "--ecn-k",
        type=_positive_int,
        default=None,
        metavar="K",
        dest="ecn_k",
        help="enable ECN marking at the RLC buffer with a step threshold "
        "of K queued SDUs (default: drop-tail, no marking)",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOADS,
        default="poisson",
        help="traffic matrix: Poisson flow arrivals (default), "
        "synchronized incast fan-in bursts, RPC request/response, or "
        "DASH-style video segments (see docs/CONGESTION.md)",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        default="outran",
        help=f"scheduler name: {', '.join(SCHEDULER_NAMES)}, outran:<eps> "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--compare",
        nargs="+",
        metavar="SCHED",
        help="run several schedulers on the identical workload and print "
        "a comparison table (overrides --scheduler)",
    )
    _add_scenario_arguments(parser)
    parser.add_argument(
        "--json", metavar="PATH", help="also write a JSON summary to PATH"
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run --compare schedulers on N worker processes via the sweep "
        "runner (1 = serial, today's behaviour; results are identical "
        "either way)",
    )
    telemetry = parser.add_argument_group("observability")
    telemetry.add_argument(
        "--telemetry",
        nargs="?",
        const="-",
        metavar="PATH",
        help="collect per-layer telemetry; write the snapshot as JSON to "
        "PATH (or stdout when PATH is omitted)",
    )
    telemetry.add_argument(
        "--prometheus",
        metavar="PATH",
        help="also export the telemetry snapshot in Prometheus text "
        "format to PATH (implies telemetry collection)",
    )
    telemetry.add_argument(
        "--trace",
        metavar="PATH",
        help="record the per-TTI scheduling trace and save it as .npz",
    )
    telemetry.add_argument(
        "--heartbeat",
        type=_positive_float,
        metavar="SECS",
        help="print a run-health line to stderr every SECS of sim time",
    )
    telemetry.add_argument(
        "--flow-trace",
        metavar="PATH",
        help="trace every flow's lifecycle across the stack and save a "
        "Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    ric = parser.add_argument_group("near-RT RIC")
    ric.add_argument(
        "--ric",
        action="store_true",
        help="attach the Near-RT RIC control loop: periodic KPI "
        "indications drive the loaded xApp, which may retune epsilon, "
        "the MLFQ thresholds, and the priority-boost period within "
        "guardrails (see docs/RIC.md)",
    )
    ric.add_argument(
        "--ric-xapp",
        default="hillclimb",
        metavar="NAME",
        help="xApp to load: 'hillclimb' (probe-and-revert p95-FCT "
        "optimizer) or 'noop' (observe only; output is byte-identical "
        "to a run without --ric) (default: %(default)s)",
    )
    ric.add_argument(
        "--ric-period",
        type=_positive_float,
        default=100.0,
        metavar="MS",
        help="E2 reporting period in milliseconds (default: %(default)s)",
    )
    ric.add_argument(
        "--ric-report",
        metavar="PATH",
        help="write the control-loop report (per-window KPIs, every "
        "control with its ack, final parameters) as JSON to PATH",
    )


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _per_scheduler_path(base: str, scheduler: str, multi: bool) -> str:
    """Insert the scheduler name before the suffix for --compare runs."""
    if not multi:
        return base
    path = Path(base)
    safe = scheduler.replace(":", "_").replace("/", "_")
    return str(path.with_name(f"{path.stem}.{safe}{path.suffix}"))


def _print_workload_metrics(result: SimResult, workload: str) -> None:
    """Per-workload quality metrics below the FCT summary."""
    if workload == "rpc":
        from repro.traffic.workloads import rpc_latencies_ms

        latencies = rpc_latencies_ms(result)
        if latencies:
            median = latencies[len(latencies) // 2]
            p95 = latencies[min(len(latencies) - 1, int(0.95 * (len(latencies) - 1)))]
            print(
                f"rpc: {len(latencies)} responses, median {median:.1f} ms, "
                f"p95 {p95:.1f} ms"
            )
    elif workload == "video":
        from repro.traffic.workloads import video_rebuffer_ratio

        ratio = video_rebuffer_ratio(result)
        if ratio is not None:
            print(f"video: rebuffer ratio {ratio:.4f}")


def _spec_from_args(args: argparse.Namespace, scheduler: str) -> RunSpec:
    """The :class:`RunSpec` the shared scenario flags describe."""
    overrides = {
        "rlc_mode": args.rlc_mode,
        "radio_bler": args.bler,
    }
    # Only non-defaults go into overrides so store keys of pre-existing
    # sweeps (no cc/aqm entries) keep resolving.
    if args.cc != "cubic":
        overrides["cc"] = args.cc
    if args.ecn_k:
        overrides.update(
            aqm="red", ecn_min_sdus=args.ecn_k, ecn_max_sdus=args.ecn_k
        )
    return RunSpec(
        rat=args.rat,
        scheduler=scheduler,
        load=args.load,
        seed=args.seed,
        num_ues=args.ues,
        duration_s=args.duration,
        mu=args.mu,
        mec=args.mec,
        distribution=args.distribution,
        workload=args.workload,
        overrides=overrides,
    )


def build_root_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per command, each bound to
    its handler (``args.func``) and its own ``error`` (``args.error``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OutRAN reproduction: single-cell LTE/5G downlink "
        "scheduling simulation",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, add_arguments, func, help_text, description in (
        ("run", _add_run_arguments, run_main,
         "run one simulation (or --compare several) and print the "
         "FCT summary", RUN_DESCRIPTION),
        ("sweep", _add_sweep_arguments, sweep_main,
         "execute a declarative run grid on a crash-tolerant, "
         "resumable worker pool", SWEEP_DESCRIPTION),
        ("explain", _add_explain_arguments, explain_main,
         "attribute FCT to layers: per-bucket breakdown + slowest "
         "flows", EXPLAIN_DESCRIPTION),
        ("serve", _add_serve_arguments, serve_main,
         "host sessions behind a local HTTP/JSON control API with "
         "live /metrics", SERVE_DESCRIPTION),
    ):
        command = sub.add_parser(name, help=help_text, description=description)
        add_arguments(command)
        command.set_defaults(func=func, error=command.error)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Bare ``repro`` runs the default scenario; flags follow a command.
    args = build_root_parser().parse_args(argv or ["run"])
    return args.func(args)


def _run_one(args: argparse.Namespace, scheduler: str, multi: bool) -> SimResult:
    """One in-process run with whatever observability the flags ask for."""
    session = _spec_from_args(args, scheduler).session(
        telemetry=bool(args.telemetry or args.prometheus),
        flow_trace=bool(args.flow_trace),
    )
    sim = session.sim

    def out_path(base: str) -> str:
        return _per_scheduler_path(base, scheduler, multi)

    if args.trace:
        sim.enable_trace()
    if args.heartbeat:
        sim.attach_heartbeat(period_s=args.heartbeat, stream=sys.stderr)
    if args.ric:
        try:
            session.attach_ric(
                [args.ric_xapp], period_us=int(round(args.ric_period * 1000))
            )
        except ValueError as exc:
            args.error(str(exc))
    result = session.start().finish()
    if args.ric and args.ric_report:
        Path(out_path(args.ric_report)).write_text(
            json.dumps(session.ric_report(), indent=2) + "\n"
        )
    if not args.compare:
        print(result.fct_summary())
        _print_workload_metrics(result, args.workload)
    if args.trace:
        sim.enb.trace.save_npz(out_path(args.trace))
    if args.flow_trace:
        sim.flow_trace.save_chrome_trace(out_path(args.flow_trace))
    if args.telemetry and args.telemetry != "-":
        snapshot_to_json(result.telemetry, out_path(args.telemetry))
    elif args.telemetry:
        print(snapshot_to_json(result.telemetry))
    if args.prometheus:
        snapshot_to_prometheus(result.telemetry, out_path(args.prometheus))
    return result


def run_main(args: argparse.Namespace) -> int:
    """``python -m repro run``: simulate and print/save results."""
    schedulers = args.compare if args.compare else [args.scheduler]
    if args.jobs > 1:
        if not args.compare:
            args.error("--jobs requires --compare (or the sweep subcommand)")
        incompatible = [
            flag
            for flag, value in (
                ("--telemetry", args.telemetry),
                ("--prometheus", args.prometheus),
                ("--trace", args.trace),
                ("--heartbeat", args.heartbeat),
                ("--flow-trace", args.flow_trace),
                ("--ric", args.ric),
            )
            if value
        ]
        if incompatible:
            args.error(
                f"--jobs > 1 is incompatible with {', '.join(incompatible)} "
                "(observability needs the simulation in-process; run serially)"
            )
        # --compare over the sweep runner: N workers, identical output.
        from repro.runner.pool import SweepRunner

        specs = [_spec_from_args(args, name) for name in schedulers]
        runner = SweepRunner(jobs=args.jobs, store=None, progress=sys.stderr)
        outcome = runner.execute(specs).raise_on_failure()
        results = {
            name: outcome.get(spec) for name, spec in zip(schedulers, specs)
        }
    else:
        multi = len(schedulers) > 1
        results = {name: _run_one(args, name, multi) for name in schedulers}
    if args.compare:
        print(
            comparison_table(
                results,
                title=f"{args.rat.upper()} load={args.load} ues={args.ues} "
                f"duration={args.duration}s",
                baseline=schedulers[0],
            )
        )
    if args.json:
        summaries = [results[name].summary() for name in schedulers]
        with open(args.json, "w") as handle:
            json.dump(summaries if args.compare else summaries[0], handle, indent=2)
    return 0


EXPLAIN_DESCRIPTION = (
    "Run with flow tracing enabled and report where each size bucket's "
    "FCT is spent: per-layer breakdown (TCP / core / PDCP / MAC wait / "
    "RLC / HARQ / air) plus the slowest flows with their dominant layer."
)


def _add_explain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        nargs="+",
        default=["outran"],
        metavar="SCHED",
        help="scheduler(s) to explain on the identical workload "
        "(default: %(default)s)",
    )
    _add_scenario_arguments(parser)
    parser.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        metavar="N",
        help="how many slowest flows to attribute (default: %(default)s)",
    )
    parser.add_argument(
        "--perfetto",
        metavar="PATH",
        help="also save the Chrome trace-event JSON to PATH "
        "(per-scheduler suffix with several schedulers)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the per-flow breakdowns and per-bucket aggregates "
        "as JSON to PATH",
    )


def explain_main(args: argparse.Namespace) -> int:
    """``python -m repro explain``: per-layer FCT attribution report."""
    from repro.analysis.breakdown import aggregate_breakdowns, breakdown_report

    schedulers = args.scheduler
    multi = len(schedulers) > 1
    reports = []
    payload = {}
    for name in schedulers:
        session = _spec_from_args(args, name).session(flow_trace=True)
        breakdowns = session.start().finish().flow_breakdowns
        reports.append(breakdown_report(breakdowns, scheduler=name, top=args.top))
        if args.perfetto:
            session.sim.flow_trace.save_chrome_trace(
                _per_scheduler_path(args.perfetto, name, multi)
            )
        if args.json:
            payload[name] = {
                "aggregates": aggregate_breakdowns(breakdowns),
                "flows": [b.as_dict() for b in breakdowns],
            }
    print("\n\n".join(reports))
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


SWEEP_DESCRIPTION = (
    "Expand a declarative sweep grid (schedulers x loads x seeds x "
    "override variants) and execute it on a crash-tolerant worker pool "
    "with a persistent, resumable result store."
)


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "spec",
        metavar="SPEC.json",
        help="sweep specification (see docs/RUNNER.md for the format)",
    )
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    parser.add_argument(
        "--store",
        default=".repro-store",
        metavar="PATH",
        help="result store directory; completed runs checkpoint here so a "
        "re-invoked sweep resumes (default: %(default)s)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not persist results (disables checkpoint/resume)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write per-run JSON summaries (spec + metrics) to PATH",
    )
    parser.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        metavar="K",
        help="quarantine a run after K failed attempts (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECS",
        help="treat a worker as hung after SECS wall seconds and retry it",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress heartbeat lines"
    )


def sweep_main(args: argparse.Namespace) -> int:
    """``python -m repro sweep SPEC.json``: run a declarative sweep."""
    try:
        data = json.loads(Path(args.spec).read_text())
        sweep = SweepSpec.from_dict(data)
        sweep.validate()  # fail fast, before the worker pool spins up
    except (OSError, ValueError, TypeError) as exc:
        args.error(f"bad sweep spec {args.spec!r}: {exc}")
    from repro.runner.pool import SweepRunner

    specs = sweep.expand()
    runner = SweepRunner(
        jobs=args.jobs,
        store=None if args.no_store else args.store,
        max_attempts=args.max_attempts,
        run_timeout_s=args.timeout,
        progress=None if args.quiet else sys.stderr,
        progress_period_s=10.0,
    )
    outcome = runner.execute(specs)

    rows = []
    summaries = []
    for spec in specs:
        result = outcome.get(spec)
        if result is None:
            failure = outcome.failures.get(spec.key())
            rows.append([spec.scheduler, spec.load, spec.seed, "FAILED", "-", "-", "-"])
            summaries.append(
                {"spec": spec.canonical(), "error": failure.error if failure else "?"}
            )
            continue
        rows.append(
            [
                spec.scheduler,
                spec.load,
                spec.seed,
                f"{result.avg_fct_ms():.1f}",
                f"{result.pctl_fct_ms(95, 'S'):.1f}",
                f"{result.mean_se():.2f}",
                f"{result.mean_fairness():.3f}",
            ]
        )
        summaries.append({"spec": spec.canonical(), "metrics": result.summary()})
    stats = outcome.stats
    print(
        format_table(
            ["scheduler", "load", "seed", "avg FCT ms", "S p95 ms", "SE", "fairness"],
            rows,
            title=f"sweep {Path(args.spec).name}: {stats.total} runs "
            f"({stats.store_hits} from store, {stats.executed} executed, "
            f"{stats.retries} retries, {stats.quarantined} quarantined) "
            f"in {stats.elapsed_s:.1f}s",
        )
    )
    if args.out:
        payload = {
            "sweep": sweep.to_dict(),
            "stats": stats.as_dict(),
            "runs": summaries,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2))
    for failure in outcome.failures.values():
        print(f"[sweep] {failure}", file=sys.stderr)
    return 1 if outcome.failures else 0


SERVE_DESCRIPTION = (
    "Host resumable simulation sessions behind a local HTTP/JSON control "
    "API: create sessions from RunSpec-shaped JSON, start/step/pause/"
    "inspect them live, checkpoint and resume mid-run, retune scheduler "
    "parameters through the RIC guardrails, and scrape live telemetry "
    "from /metrics in Prometheus text format (see docs/API.md)."
)


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: %(default)s; the API is "
        "unauthenticated -- keep it loopback unless you trust the "
        "network)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 picks an ephemeral port and prints it "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--chunk-ttis",
        type=_positive_int,
        default=None,
        metavar="N",
        help="background-run chunk size in TTIs: pause/inspect/metrics "
        "latency trades against stepping overhead (default: 1000)",
    )


def serve_main(args: argparse.Namespace) -> int:
    """``python -m repro serve``: run the session control server."""
    import asyncio

    from repro.serve.controller import DEFAULT_CHUNK_TTIS, ServeController
    from repro.serve.http import ReproServer

    controller = ServeController(chunk_ttis=args.chunk_ttis or DEFAULT_CHUNK_TTIS)
    server = ReproServer(controller, host=args.host, port=args.port)

    def announce(host: str, port: int) -> None:
        print(f"repro serve listening on http://{host}:{port}", flush=True)

    try:
        asyncio.run(server.serve_forever(announce=announce))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
