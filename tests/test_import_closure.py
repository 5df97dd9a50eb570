"""A simulation run imports numpy and the stack it executes -- no scipy.

scipy costs ~1 s and ~60 MB per process; it used to sit under every
run, sweep worker and CLI call through top-level imports of modules a
run never calls.  Each case runs in a fresh interpreter so that what
pytest or another test imported does not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str, tmp_path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LIFECYCLE = """
import sys
from dataclasses import replace

from repro.sim.config import SimConfig
from repro.sim.session import SimulationSession
from repro.telemetry import TelemetryRegistry

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


OFFLINE_TOOLS = """
import sys

import numpy as np

from repro.analysis.validation import validate_rayleigh_power
from repro.core.thresholds import optimize_thresholds
from repro.sim.replicate import t_critical_95

assert "scipy" not in sys.modules
rng = np.random.default_rng(0)
print(t_critical_95(9))
print(validate_rayleigh_power(rng.exponential(size=500)))
print(len(optimize_thresholds(rng.pareto(1.2, 300) * 1e4, 3, maxiter=2)))
assert "scipy.stats" in sys.modules and "scipy.optimize" in sys.modules
"""


def test_offline_tools_load_scipy_on_demand(tmp_path):
    t95, rayleigh, thresholds = run_fresh(OFFLINE_TOOLS, tmp_path).splitlines()
    assert abs(float(t95) - 2.262) < 1e-3
    assert rayleigh.startswith("[PASS] rayleigh_power_ks")
    assert thresholds == "2"
