"""A simulation run imports numpy and the stack it executes -- no scipy,
and no module of this package that the run does not execute.

scipy costs ~1 s and ~60 MB per process; it used to sit under every
run, sweep worker and CLI call through top-level imports of modules a
run never calls, and every package ``__init__`` used to import all of
its submodules.  Each case runs in a fresh interpreter so that what
pytest or another test imported does not count, and with ``-S`` because
a ``.pth`` line in site-packages runs before any script and what it
imports (``certifi`` brings ``tempfile``, say) is not the run's.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def run_fresh(script: str, tmp_path) -> str:
    """Run ``script`` in ``python -S`` on the parent's path: no site hook
    runs first, and every directory site added is still searched."""
    path = [str(SRC)] + [entry for entry in sys.path if entry]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LIFECYCLE = """
import sys
from dataclasses import replace

from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession
from repro.telemetry.registry import TelemetryRegistry

incast = SimConfig.lte_default(
    num_ues=4, seed=3, cc="dctcp", aqm="red", ecn_min_sdus=30, ecn_max_sdus=30
)
configs = [
    SimConfig.lte_default(num_ues=4, seed=1),
    SimConfig.nr_default(mu=1, num_ues=4, seed=2, rlc_mode="am", radio_bler=0.1),
    incast.with_overrides(traffic=replace(incast.traffic, kind="incast_fanin")),
]
for i, config in enumerate(configs):
    session = SimulationSession.from_config(
        config, "outran", duration_s=0.3, drain_s=0.2,
        telemetry=TelemetryRegistry(), flow_trace=True,
    ).start()
    session.step(n_ttis=100)
    assert session.snapshot(telemetry=True)["telemetry"]
    session.checkpoint(f"s{i}.ckpt")
    session = SimulationSession.resume(f"s{i}.ckpt")
    session.step(n_ttis=50)
    assert session.finish().completed_flows > 0

import repro.cli
import repro.runner.worker
import repro.serve

banned = ("scipy", "matplotlib", "hypothesis", "pytest")
print(sorted(m for m in sys.modules if m.split(".")[0] in banned))
"""


def test_run_path_imports_no_scipy(tmp_path):
    assert run_fresh(LIFECYCLE, tmp_path).strip() == "[]"


#: What an LTE / UM / Cubic / drop-tail cell under ``outran`` never executes.
UNUSED_BY_A_PLAIN_RUN = [
    "repro.rlc.am", "repro.cc.dctcp", "repro.mac.qos", "repro.mac.gbr",
    "repro.mac.srjf", "repro.telemetry.flowtrace", "repro.telemetry.kpi",
    "repro.telemetry.heartbeat", "repro.telemetry.exporters",
    "repro.traffic.webpage", "repro.traffic.nonstationary",
    "repro.sim.multicell", "repro.sim.trace", "repro.core.handover",
    "repro.core.thresholds", "repro.phy.interference", "repro.net.qos_profile",
    # the kernel loader's cache hit needs no compiler tooling
    "subprocess", "tempfile",
]

PLAIN_RUN = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

import repro.sim.config
print(len(loaded()))

from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession

config = SimConfig.lte_default(num_ues=4, seed=1)
session = SimulationSession.from_config(config, "outran", duration_s=0.3, drain_s=0.2)
assert session.start().finish().completed_flows > 0
print(len(loaded()))
print(sorted(m for m in %r if m in sys.modules))
"""


def test_a_run_loads_only_what_it_executes(tmp_path):
    from repro.mac import _ckernel

    if _ckernel.load() is None:  # also warms the cache the child reads
        pytest.skip("no C compiler: every load is a cache miss here")
    config_only, plain_run, unused = run_fresh(
        PLAIN_RUN % UNUSED_BY_A_PLAIN_RUN, tmp_path
    ).splitlines()
    assert int(config_only) <= 12
    assert int(plain_run) <= 46
    assert unused == "[]"


OFFLINE_TOOLS = """
import sys

import numpy as np

from repro.analysis.validation import validate_rayleigh_power
from repro.core.thresholds import optimize_thresholds

assert "scipy" not in sys.modules
rng = np.random.default_rng(0)
print(validate_rayleigh_power(rng.exponential(size=500)))
print(len(optimize_thresholds(rng.pareto(1.2, 300) * 1e4, 3, maxiter=2)))
assert "scipy.stats" in sys.modules and "scipy.optimize" in sys.modules
"""


def test_offline_tools_load_scipy_on_demand(tmp_path):
    rayleigh, thresholds = run_fresh(OFFLINE_TOOLS, tmp_path).splitlines()
    assert rayleigh.startswith("[PASS] rayleigh_power_ks")
    assert thresholds == "2"


#: Modules no root imports, each with the reason it stays.
OFF_PATH_ALLOWED = {
    # the analytic reference tests/test_validation.py holds the fader to
    "repro.analysis.validation",
    # paper section 7's flow-state transfer (EXPERIMENTS.md, Fig. 13)
    "repro.core.handover",
}


def _imports(tree: ast.AST):
    """``(module, names)`` of every import statement that runs: nested
    ones count, ``if TYPE_CHECKING:`` bodies do not."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import: teach the walk about it"
            yield node.module, [alias.name for alias in node.names]
        else:
            yield from _imports(node)


def _bound_by(init_tree: ast.AST) -> dict:
    """``name -> defining module`` of the lazy facade in ``repro/__init__``
    (the ``_LAZY`` table its module ``__getattr__`` resolves)."""
    for node in ast.iter_child_nodes(init_tree):
        if isinstance(node, ast.Assign) and node.targets[0].id == "_LAZY":
            return ast.literal_eval(node.value)
    raise AssertionError("repro/__init__.py has no _LAZY table")


def test_every_module_is_on_a_committed_path():
    """Static walk (nothing is executed) from what a committed number
    runs: the CLI, every benchmark, every example.  ``from repro import
    Name`` is followed through the lazy facade to the module that defines
    ``Name``; no other package re-exports anything to follow (``repro.ric``
    and ``repro.serve`` keep lists for interactive use, and nothing on the
    walk imports from them), so a sub-package is walked like a module."""
    files = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    facade = _bound_by(ast.parse(files["repro"].read_text()))

    def is_package(module):
        return files[module].name == "__init__.py"

    reached = set()
    todo = []

    def reach(module, names=None):
        if module == "repro":
            for name in names or ():
                reach(facade[name])
            return
        if module not in files:
            return
        if module not in reached:
            reached.add(module)
            todo.append(files[module])
        if is_package(module):
            for name in names or ():
                reach(f"{module}.{name}")  # ``from pkg import submodule``

    reach("repro.cli")
    reach("repro.__main__")
    todo += sorted((REPO / "benchmarks").rglob("*.py"))
    todo += sorted((REPO / "examples").glob("*.py"))
    while todo:
        for module, names in _imports(ast.parse(todo.pop().read_text())):
            reach(module, names)

    # Walking a re-exporting ``__init__`` would count every island it lists.
    assert not reached & {"repro.ric", "repro.serve"}
    modules = {m for m in files if not is_package(m)}
    assert modules - reached == OFF_PATH_ALLOWED


#: The packages a cell executes while it runs.
SIMULATED = {"sim", "mac", "rlc", "pdcp", "net", "cc", "core", "phy", "traffic"}
#: The modules outside them that read a host clock, each with what for;
#: ``serve/`` may (lock and join timeouts), cost is ``benchmarks/perf``'s.
CLOCK_READERS = {
    "telemetry/heartbeat.py",  # the live rate on the health line
    "runner/pool.py",  # worker deadlines, retry backoff, progress period
}


def test_the_simulated_stack_reads_no_host_clock():
    """Static walk: nothing a running cell executes imports ``time``, so
    nothing it records (telemetry, results, checkpoints) can depend on
    the host that ran it."""
    readers = {
        path.relative_to(SRC / "repro").as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if any(
            module.split(".")[0] == "time"
            for module, _ in _imports(ast.parse(path.read_text()))
        )
    }
    assert {r for r in readers if r.split("/")[0] in SIMULATED} == set()
    assert {r for r in readers if not r.startswith("serve/")} == CLOCK_READERS
