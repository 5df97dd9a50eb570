"""BENCHMARK.json, the workload table and the layer tables agree."""

import json
import re
from pathlib import Path

import child
import layers
import probes
import run
import workloads
from spans import resolve

SPEC = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_names_and_limits_of_the_contract():
    all_names = names("workloads") + names("end_to_end") + names("per_layer")
    assert all(NAME.match(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_workloads_declared_are_workloads_defined():
    assert names("workloads") == list(workloads.WORKLOADS)
    assert [w.name for w in workloads.WORKLOADS.values() if w.served] == ["served_session"]


def test_the_seed_reaches_simconfig_and_seeds_share_no_cell():
    for workload in workloads.WORKLOADS.values():
        assert workload.config(7).seed == 7
    assert run.cell_seeds(3) == [12, 13, 14, 15]
    assert not set(run.cell_seeds(3)) & set(run.cell_seeds(4))


def test_every_target_resolves_on_this_commit():
    assert [path for _, path in layers.TARGETS if resolve(path) is None] == []
    paths = [path for _, path in layers.TARGETS]
    assert len(set(paths)) == len(paths)


def test_metric_tables_reference_known_groups_and_targets():
    known = {group for group, _ in layers.TARGETS}
    for table in (layers.SELF_TIME, layers.CALLS):
        for groups in table.values():
            assert set(groups) <= known
    assert set(layers.TARGET_CALLS.values()) <= {path for _, path in layers.TARGETS}


class _Result:
    completed_flows, censored_flows, records = 1, 0, []
    avg_fct_ms = pctl_fct_ms = mean_se = longterm_fairness = staticmethod(lambda *a: 1.0)


#: Measured by every untraced child next to the simulated metrics.
HOST = {"setup_s", "peak_rss_mb", "session.wall_s", "session.cpu_s", "session.us_per_ue_tti"}


def test_declared_end_to_end_metrics_are_the_ones_reported():
    simulated = set(child.simulated_metrics(_Result(), 1.0))
    assert set(names("end_to_end")) <= HOST | simulated


def test_declared_per_layer_metrics_are_the_ones_reported(monkeypatch):
    monkeypatch.setattr(probes, "PASSES", 1)
    monkeypatch.setattr(probes, "ENGINE_EVENTS", 100)
    monkeypatch.setattr(probes, "OBSERVE_CALLS", 8_000)
    monkeypatch.setattr(probes, "ALLOCATE_CALLS", 1)
    counters = {"engine.events_processed": 10, "mac.ttis_run": 10}
    traced = child.per_layer_metrics(
        {}, {layers.ROOT: (1, 1)}, counters, probes.run_all(), 1.0, 1
    )
    added_by_parent = {"trace.spans", "trace.missing_targets", "trace.overhead_pct"}
    untraced = HOST | set(child.simulated_metrics(_Result(), 1.0)) | set(run.SERVED_METRICS)
    demoted = untraced - set(names("end_to_end"))
    assert set(names("per_layer")) == set(traced) | added_by_parent | demoted
