"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py                      # all workloads, then one traced run each
    python3 benchmarks/perf/run.py --workload wide_200ue --trace 0 --reps 2
    python3 benchmarks/perf/run.py --self-check         # two full sets, compared
    python3 benchmarks/perf/run.py --workload surge_10ue --seed 3 --seconds 24 --trace 0

Metric names, units, directions and bounds are declared once, in the
root ``BENCHMARK.json``; this script refuses to report anything that is
not declared there and anything declared that it cannot report.

``--seed N`` selects the simulated input: ``CELLS`` cells with
``SimConfig.seed`` = ``N * CELLS + i`` (README, "The seed").  Every
repetition is a fresh ``child.py`` process running one cell; repetition
``j`` runs cell ``j % CELLS``, so the default ``CELLS + 1`` repetitions
run every cell and the first cell twice, which must repeat exactly.
Repetitions of several workloads are interleaved round-robin so slow
drift of the host hits all of them alike.  A reported value is the median
over the cells (of the median of a cell's repetitions).  Exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CHILD = HERE / "child.py"
DEFAULT_OUT = HERE / "out" / "result.json"

#: Cells per run; four cells and one repeated cell fit the run length.
CELLS = 4
CHILD_TIMEOUT_S = 170
#: Metrics of the untraced served repetitions; 0 on the other workloads.
SERVED_METRICS = (
    "session.checkpoint_roundtrip_s",
    "session.checkpoint_mb",
    "session.snapshot_p50_ms",
)
#: The untraced host time the traced run's overhead is measured against.
WALL = "session.wall_s"


def cell_seeds(seed: int) -> list[int]:
    """``SimConfig.seed`` of each cell of a run; disjoint between seeds."""
    return [seed * CELLS + i for i in range(CELLS)]


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not: a check failed)."""


def load_spec() -> dict:
    path = REPO / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def spawn(workload: str, seed: int, args, *flags: str) -> dict:
    """Run one child to completion and return its report."""
    cmd = [
        sys.executable, str(CHILD),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", str(args.scale),
        "--spawned-at", repr(monotonic()),
        *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchmarkError(f"{workload}: child exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(cells: dict[str, list[float]]) -> dict:
    """Reported value of one metric from its samples per cell.

    A cell's value is the median of its repetitions; the reported value
    is the median over the cells and the quartiles are those of the
    cells' values (a single cell is its own quartiles).
    """
    values = [statistics.median(samples) for samples in cells.values()]
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "cells": cells}


class WorkloadRun:
    """Children of one workload and the checks across them."""

    def __init__(self, name: str, seeds: list[int]) -> None:
        self.name = name
        self.seeds = seeds
        self.reps: list[dict] = []
        self.oneshot: dict | None = None
        self.traced: dict | None = None
        self.spent_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, args, seed: int, *flags: str) -> dict | None:
        self.attempted += 1
        t0 = monotonic()
        try:
            report = spawn(self.name, seed, args, *flags)
        except BenchmarkError as exc:
            self.failures.append(str(exc))
            return None
        finally:
            self.spent_s += monotonic() - t0
        self.failures += [f"{self.name}: {c}" for c in report["failed_checks"]]
        return report

    def next_seed(self) -> int:
        return self.seeds[len(self.reps) % len(self.seeds)]

    def wants_rep(self, args) -> bool:
        if args.seconds is None:
            return len(self.reps) < args.reps
        if len(self.reps) < len(self.seeds):
            return True
        # Every cell has run.  A traced run will repeat the first cell;
        # otherwise repeat cells while one more fits into the run length.
        if args.trace != "0":
            return False
        return self.spent_s + self.spent_s / self.attempted <= args.seconds

    def cross_checks(self) -> None:
        """Whatever ran the same cell must have computed the same output."""
        first: dict[int, dict] = {}
        runs = [("repetition", rep) for rep in self.reps]
        runs += [("one-shot run", self.oneshot), ("traced run", self.traced)]
        for how, rep in runs:
            if rep is None:
                continue
            ref = first.setdefault(rep["seed"], rep)
            if (rep["fingerprint"], rep["sim"]) != (ref["fingerprint"], ref["sim"]):
                self.failures.append(
                    f"{self.name}: {how} of cell {rep['seed']} differs from its first run"
                )

    def cell_metrics(self) -> dict[str, dict]:
        """Every metric the untraced repetitions measure, over the cells."""
        cells: dict[str, dict[str, list[float]]] = {}
        for rep in self.reps:
            served = rep["served"] or dict.fromkeys(SERVED_METRICS, 0.0)
            for name, value in {**rep["host"], **rep["sim"], **served}.items():
                cells.setdefault(name, {}).setdefault(str(rep["seed"]), []).append(value)
        return {name: summary(samples) for name, samples in cells.items()}

    def traced_metrics(self) -> dict[str, dict]:
        out = dict(self.traced["per_layer"])
        untraced = statistics.median(
            rep["host"][WALL] for rep in self.reps if rep["seed"] == self.traced["seed"]
        )
        out["trace.overhead_pct"] = (out["trace.wall_s"] / untraced - 1.0) * 100.0
        return {name: {"value": value} for name, value in out.items()}


def measure(names: list[str], args) -> dict[str, WorkloadRun]:
    """Run every child the arguments ask for; rep-major round-robin."""
    runs = {name: WorkloadRun(name, cell_seeds(args.seed)) for name in names}
    active = list(runs.values())
    while active:
        for run in active:
            seed = run.next_seed()
            report = run.run(args, seed)
            if report is None:
                continue
            run.reps.append(report)
            # A stepped/checkpointed cell must match its own config run
            # in one go; one such reference run per invocation.
            if report["served"] and run.oneshot is None:
                run.oneshot = run.run(args, seed, "--oneshot")
        # A failed child stays failed: one more try would hide a flake.
        active = [r for r in active if not r.failures and r.wants_rep(args)]
    if args.trace != "0":
        for run in runs.values():
            if run.reps:
                run.traced = run.run(args, run.seeds[0], "--traced")
    for run in runs.values():
        run.cross_checks()
    return runs


def summarise(runs: dict[str, WorkloadRun], spec: dict, args) -> dict:
    """The result document (also what ``--out`` stores)."""
    declared = {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    document = {
        "meta": {
            "git_head": git_head(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": package_version("numpy"),
            "seed": args.seed,
            "scale": args.scale,
            "reps": args.reps if args.seconds is None else None,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    for run in runs.values():
        entry = {
            "reps": len(run.reps),
            "attempted": run.attempted,
            "failures": run.failures,
            "fingerprints": {str(rep["seed"]): rep["fingerprint"] for rep in run.reps},
            "facts": run.reps[0]["facts"] if run.reps else None,
        }
        kinds = []
        measured = {}
        if run.reps:
            measured = run.cell_metrics()
            if args.trace != "1":
                kinds.append("end_to_end")
        if run.traced:
            measured.update(run.traced_metrics())
            entry["missing_targets"] = run.traced["missing_targets"]
            kinds.append("per_layer")
        # BENCHMARK.json says which list a measured metric belongs to.
        odd = set(measured) - set(declared["end_to_end"]) - set(declared["per_layer"])
        for kind in kinds:
            odd |= set(declared[kind]) - set(measured)
            entry[kind] = {
                name: {**measured[name], "unit": unit}
                for name, unit in declared[kind].items()
                if name in measured
            }
        if odd:
            run.failures.append(
                f"{run.name}: metrics differ from BENCHMARK.json: {sorted(odd)}"
            )
        document["workloads"][run.name] = entry
    document["attempted"] = sum(run.attempted for run in runs.values())
    document["failed"] = sum(len(run.failures) for run in runs.values())
    document["correct"] = document["failed"] == 0
    return document


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_head() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_report(document: dict) -> None:
    for name, entry in document["workloads"].items():
        print(f"\n== {name}: {entry['reps']} reps")
        for seed, fingerprint in entry["fingerprints"].items():
            print(f"   cell {seed}: fingerprint {fingerprint}")
        if entry["facts"]:
            print("   first cell: " + ", ".join(f"{k}={v}" for k, v in entry["facts"].items()))
        if "end_to_end" in entry:
            print("   end-to-end (tracing off; median over the cells)")
            for metric, m in entry["end_to_end"].items():
                spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, cells={len(m['cells'])}]"
                print(f"     {metric:<22}{m['value']:>14.6g} {m['unit']:<9}{spread}")
            failed = 1.0 - entry["end_to_end"]["completed_share"]["value"]
            print(f"     {'(failed_share':<22}{failed:>14.6g} ratio    = 1 - completed_share)")
        if "per_layer" in entry:
            print("   per-layer (untraced median over the cells, or one traced run of the first cell)")
            for metric, m in entry["per_layer"].items():
                print(f"     {metric:<32}{m['value']:>14.6g} {m['unit']}")
        for failure in entry["failures"]:
            print(f"   CHECK FAILED: {failure}")


def write_atomically(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(document, indent=1) + "\n")
    os.replace(tmp, path)


def contract_line(document: dict) -> str:
    """Last line of stdout: correct / attempted / failed / metrics."""
    many = len(document["workloads"]) > 1
    metrics = {}
    for name, entry in document["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for metric, m in entry.get(kind, {}).items():
                key = f"{name}/{metric}" if many else metric
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": metrics,
        }
    )


def self_check(names: list[str], spec: dict, args) -> int:
    """Two full sets of the same commit must agree within every bound."""
    import compare

    args.trace = "0"
    first = summarise(measure(names, args), spec, args)
    second = summarise(measure(names, args), spec, args)
    rows = compare.compare(first, second, spec)
    print(compare.format_rows(rows))
    apart = [r for r in rows if abs(r["change"]) > r["bound"]]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    exact = all(
        first["workloads"][n]["fingerprints"] == second["workloads"][n]["fingerprints"]
        for n in names
    )
    print(f"\nself-check: {len(rows)} rows, {len(apart)} differ by more than their bound, "
          f"{len(unresolved)} with a spread above their bound, "
          f"fingerprints {'agree' if exact else 'DIFFER'}")
    return 0 if first["correct"] and second["correct"] and exact and not apart else 1


def parse_args(argv, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=workload_names,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42,
                        help="selects the cells: SimConfig.seed = seed * CELLS + i")
    parser.add_argument("--reps", type=int, default=CELLS + 1,
                        help="untraced repetitions per workload; repetition j runs "
                             "cell j %% CELLS (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --reps: every cell once, then repeat cells "
                             "while one more fits into this long")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end only; 1: per-layer only; both (default)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every load phase (smoke tests use 0.05)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result JSON (default %(default)s)")
    parser.add_argument("--self-check", action="store_true",
                        help="run two full sets and compare them with compare.py")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.scale <= 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--reps, --scale and --seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workload_names)
    names = args.workload or workload_names
    if not CHILD.exists():
        raise BenchmarkError(f"{CHILD} is missing")
    if args.self_check:
        return self_check(names, spec, args)
    document = summarise(measure(names, args), spec, args)
    print_report(document)
    write_atomically(args.out, document)
    print(f"\nresult written to {args.out}")
    # A run that could not measure has no result to print.
    if any(not entry["reps"] for entry in document["workloads"].values()):
        return 2
    print(contract_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
