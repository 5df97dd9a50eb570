"""All five workloads end to end at 5 % of their size, traced run included."""

import json
import subprocess
import sys
import time
from pathlib import Path

import run

PERF = Path(__file__).resolve().parents[1]
SPEC = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text())


def run_benchmark(*argv):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--scale", "0.05", *argv],
        capture_output=True, text=True, timeout=170,
    )
    return proc, time.monotonic() - t0


def test_all_workloads_with_traced_run(tmp_path):
    out = tmp_path / "result.json"
    proc, elapsed = run_benchmark("--reps", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 60
    document = json.loads(out.read_text())
    assert document["correct"] and document["failed"] == 0
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in document["workloads"].items():
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert entry["per_layer"]["trace.missing_targets"]["value"] == 0
        assert all(m["value"] is not None for m in entry["end_to_end"].values())
        trace = json.loads((PERF / "out" / f"{name}.trace.json").read_text())
        assert trace["traceEvents"]
        assert list(entry["fingerprints"]) == [str(run.cell_seeds(42)[0])]
    for key in ("git_head", "nproc", "python", "numpy", "seed", "reps"):
        assert key in document["meta"]
    served = document["workloads"]["served_session"]["per_layer"]
    assert served["session.checkpoint_mb"]["value"] > 0
    assert served["session.steps"]["value"] > 0


def test_driver_invocation_prints_the_contract_line(tmp_path):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc, _ = run_benchmark(
            "--workload", "wide_200ue", "--seed", "3", "--seconds", "1",
            "--trace", trace, "--out", str(tmp_path / "r.json"),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        # Every cell once; one second is too short for a plain repeat,
        # the traced run of the first cell is always made.
        assert line["attempted"] == run.CELLS + int(trace)
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(line["metrics"][n]["unit"] == units[n] for n in units)


def test_default_repetitions_run_the_first_cell_twice(tmp_path):
    out = tmp_path / "result.json"
    proc, _ = run_benchmark("--workload", "wide_200ue", "--trace", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    entry = json.loads(out.read_text())["workloads"]["wide_200ue"]
    first, *others = run.cell_seeds(42)
    cells = entry["end_to_end"]["setup_s"]["cells"]
    assert len(cells[str(first)]) == 2 and all(len(cells[str(c)]) == 1 for c in others)


def test_another_seed_is_another_simulated_input(tmp_path):
    fingerprints = []
    for seed in ("3", "4", "3"):
        out = tmp_path / f"{seed}.json"
        proc, _ = run_benchmark(
            "--workload", "surge_10ue", "--seed", seed, "--reps", "1",
            "--trace", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        entry = json.loads(out.read_text())["workloads"]["surge_10ue"]
        fingerprints.append(list(entry["fingerprints"].values()))
    assert fingerprints[0] == fingerprints[2] != fingerprints[1]
