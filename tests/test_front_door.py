"""One front door: flags / JSON / spec -> RunSpec -> SimulationSession.

The transcripts under ``tests/golden/cli/`` were frozen before the CLI,
the sweep workers, ``repro serve`` and the benchmark harness were routed
through ``RunSpec.session``; every command line must still print and
write the same bytes.  The ``ast`` walks keep the door single: only
``repro/sim/session.py`` builds a ``CellSimulation`` -- not the rest of
the package, not a figure bench, not an example -- nothing in the
package depends on the CLI module, and a scenario flag is defined once
however many commands take it.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner.spec import RunSpec
from repro.sim.session import result_fingerprint_payload
from tests.golden.cli.regenerate import CASES, CLI_DIR, STORED, run_case

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def stored(filename):
    return (CLI_DIR / filename).read_text()


def test_transcripts_complete():
    """Every declared case has its stored files, and vice versa."""
    expected = {
        name + suffix
        for name, (_, outputs) in CASES.items()
        for suffix in (".stdout.txt", *(STORED[flag] for flag in outputs))
    }
    on_disk = {p.name for p in CLI_DIR.iterdir() if p.suffix in (".txt", ".json")}
    assert on_disk == expected


@pytest.mark.parametrize("name", CASES)
def test_transcript_replays_byte_for_byte(name):
    for filename, text in run_case(name).items():
        assert text == stored(filename), (
            f"{filename} drifted -- if intended, run "
            "`PYTHONPATH=src python tests/golden/cli/regenerate.py`"
        )


def test_parallel_compare_equals_serial():
    assert stored("run-compare-jobs2.stdout.txt") == stored("run-compare.stdout.txt")
    assert stored("run-compare-jobs2.json") == stored("run-compare.json")


def test_noop_xapp_is_invisible():
    assert stored("run-ric-noop.stdout.txt") == stored("run-lte-default.stdout.txt")
    assert stored("run-ric-noop.json") == stored("run-lte-default.json")


def test_telemetry_is_invisible_and_has_two_sections():
    assert stored("run-telemetry.stdout.txt") == stored("run-am-lossy.stdout.txt")
    assert stored("run-telemetry.json") == stored("run-am-lossy.json")
    assert set(json.loads(stored("run-telemetry.telemetry.json"))) == {
        "counters", "gauges",
    }


def test_explain_takes_cc_flags_and_equals_the_spec_session(tmp_path, capsys):
    """`explain --cc/--ecn-k/--workload` is the same run a spec describes."""
    scale = ["--ues", "3", "--load", "0.8", "--duration", "0.5", "--seed", "42"]
    incast = ["explain", "--scheduler", "outran", *scale,
              "--cc", "dctcp", "--workload", "incast"]
    assert main([*incast, "--ecn-k", "10", "--json", str(tmp_path / "k10.json")]) == 0
    assert main([*incast, "--json", str(tmp_path / "droptail.json")]) == 0
    assert "FCT breakdown per size bucket" in capsys.readouterr().out
    explained = json.loads((tmp_path / "k10.json").read_text())["outran"]["flows"]
    spec = RunSpec(
        "lte", "outran", load=0.8, seed=42, num_ues=3, duration_s=0.5,
        workload="incast",
        overrides={"rlc_mode": "um", "radio_bler": 0.0, "cc": "dctcp",
                   "aqm": "red", "ecn_min_sdus": 10, "ecn_max_sdus": 10},
    )
    result = spec.session(flow_trace=True).start().finish()
    payload = result_fingerprint_payload(result)["flow_breakdowns"]
    assert explained and explained == json.loads(json.dumps(payload))
    # ... and the threshold reached the RLC buffer: drop-tail differs.
    assert explained != json.loads(
        (tmp_path / "droptail.json").read_text())["outran"]["flows"]


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def test_cell_simulation_is_built_only_inside_repro_sim():
    launchers = [
        *sorted(SRC.rglob("*.py")),
        *sorted((ROOT / "benchmarks").glob("bench_*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
    ]
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in launchers
        if path != SRC / "sim" / "session.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "CellSimulation"
    ]
    assert not offenders


def test_nothing_in_the_package_imports_the_cli():
    offenders = []
    for rel, tree in _trees():
        if rel.name == "__main__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if "repro.cli" in names:
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders


def test_each_cli_flag_is_defined_once():
    """`run` and `explain` share the scenario group; only --scheduler
    (one name vs several) and --json (different payloads) and --jobs
    (run vs sweep) are defined per command."""
    tree = ast.parse((SRC / "cli.py").read_text())
    flags = Counter(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("--")
    )
    repeated = {flag for flag, count in flags.items() if count > 1}
    assert repeated == {"--scheduler", "--json", "--jobs"}
    assert {"--cc", "--ecn-k", "--workload", "--rat"} <= set(flags)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_one_feed_into_the_mac():
    """No scheduler-type flag, and the xNodeB knows no concrete scheduler."""
    for path in SRC.rglob("*.py"):
        assert "batched_capable" not in path.read_text(), path
    enb = ast.parse((SRC / "sim" / "enb.py").read_text())
    assert not {"repro.mac.qos", "repro.mac.srjf", "repro.core.outran"} & set(
        _imported_modules(enb)
    )
