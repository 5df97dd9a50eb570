"""Tests for the benchmark harness: the persistent store and ``record()``.

The harness reads its configuration from the environment at import time,
so each test imports a fresh copy under a controlled environment.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim.session import result_fingerprint

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture
def harness(tmp_path, monkeypatch):
    """A freshly-imported ``_harness`` at toy scale with a tmp store."""

    def build(**env):
        defaults = {
            "REPRO_BENCH_STORE": str(tmp_path / "store"),
            "REPRO_BENCH_LTE_UES": "2",
            "REPRO_BENCH_LTE_DURATION": "0.3",
            "REPRO_BENCH_JOBS": "1",
        }
        defaults.update(env)
        for name, value in defaults.items():
            monkeypatch.setenv(name, value)
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        sys.modules.pop("_harness", None)
        return importlib.import_module("_harness")

    yield build
    sys.modules.pop("_harness", None)


def _count_sims(monkeypatch, mod):
    """Count in-process simulation launches in the harness."""
    real = mod.RunSpec.session
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(mod.RunSpec, "session", counting)
    return calls


class TestEvictSafety:
    def test_repeat_request_served_from_store(self, harness, monkeypatch):
        mod = harness()
        calls = _count_sims(monkeypatch, mod)
        first = mod.run_lte("pf", load=0.5)
        assert len(calls) == 1
        mod.run_lte("srjf", load=0.5)
        assert len(calls) == 2
        again = mod.run_lte("pf", load=0.5)  # must come from disk, not re-sim
        assert len(calls) == 2
        assert mod.STORE.hits == 1
        assert again.avg_fct_ms() == first.avg_fct_ms()
        assert again.fcts_ms().tolist() == first.fcts_ms().tolist()

    def test_store_disabled_by_env(self, harness, monkeypatch):
        mod = harness(REPRO_BENCH_STORE="0", REPRO_BENCH_JOBS="2")
        assert mod.STORE is None
        calls = _count_sims(monkeypatch, mod)
        mod.prefetch_lte(("pf",), (0.5,))  # nowhere to put results: no-op
        assert mod.run_lte("pf", load=0.5).completed_flows >= 0
        assert mod.run_lte("pf", load=0.5).completed_flows >= 0
        assert len(calls) == 2  # nothing is cached


class TestPrefetch:
    def test_prefetch_fills_store_without_inline_sims(self, harness, monkeypatch):
        mod = harness(REPRO_BENCH_JOBS="2")
        calls = _count_sims(monkeypatch, mod)
        mod.prefetch_lte(("pf", "outran"), (0.5,))
        assert len(calls) == 0  # grid ran in worker processes
        assert mod.STORE.writes == 0 and len(mod.STORE) == 2  # workers wrote
        mod.run_lte("pf", load=0.5)
        mod.run_lte("outran", load=0.5)
        assert len(calls) == 0  # served from the filled store

    def test_prefetch_serial_is_noop(self, harness, monkeypatch):
        mod = harness(REPRO_BENCH_JOBS="1")
        calls = _count_sims(monkeypatch, mod)
        mod.prefetch_lte(("pf",), (0.5,))
        assert len(calls) == 0
        assert len(mod.STORE) == 0

    def test_parallel_prefetch_matches_serial_results(self, harness, tmp_path):
        serial = harness(REPRO_BENCH_JOBS="1")
        expect = serial.run_lte("pf", load=0.5).fcts_ms().tolist()
        parallel = harness(
            REPRO_BENCH_JOBS="2", REPRO_BENCH_STORE=str(tmp_path / "parallel")
        )
        parallel.prefetch_lte(("pf",), (0.5,))
        assert parallel.run_lte("pf", load=0.5).fcts_ms().tolist() == expect
        assert parallel.STORE.hits == 1

    def test_inline_and_worker_store_entries_are_the_same_bytes(
        self, harness, tmp_path
    ):
        """The store is content-addressed: what an entry holds may not
        depend on which process wrote it, or on what that process ran
        before."""
        inline = harness(REPRO_BENCH_JOBS="1")
        inline.run_lte("outran", load=0.5)  # an earlier run, same process
        inline.run_lte("pf", load=0.5)
        inline_entry = inline.run_lte("pf", load=0.5)
        assert inline.STORE.hits == 1
        workers = harness(
            REPRO_BENCH_JOBS="2", REPRO_BENCH_STORE=str(tmp_path / "workers")
        )
        workers.prefetch_lte(("pf",), (0.5,))
        worker_entry = workers.run_lte("pf", load=0.5)
        assert workers.STORE.hits == 1 and workers.STORE.writes == 0
        assert inline_entry.telemetry is None and worker_entry.telemetry is None
        assert result_fingerprint(inline_entry) == result_fingerprint(worker_entry)


def test_record_writes_the_text_and_json_only_when_given_data(
    harness, tmp_path, monkeypatch
):
    mod = harness()
    monkeypatch.setattr(mod, "RESULTS_DIR", tmp_path / "results")
    mode = "quick" if mod.QUICK else "full"
    assert mod.record("plain", "a table") == "a table"
    mod.record("with_data", "a table", {"points": [1, 2]})
    assert sorted(p.name for p in mod.RESULTS_DIR.iterdir()) == [
        f"plain.{mode}.txt", f"with_data.{mode}.json", f"with_data.{mode}.txt",
    ]
    assert (mod.RESULTS_DIR / f"plain.{mode}.txt").read_text() == "a table\n"
    assert json.loads(
        (mod.RESULTS_DIR / f"with_data.{mode}.json").read_text()
    ) == {"points": [1, 2]}
