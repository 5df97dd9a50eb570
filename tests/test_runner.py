"""Tests for the parallel sweep runner: specs, store, and failure paths.

The fault-injecting workers live at module level so they pickle into
pool processes; they coordinate across attempts through marker files in
the store directory (each worker runs in its own process, so in-memory
state cannot be shared).
"""

import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner.pool import SweepOutcome, SweepRunner, backoff_delay, run_sweep
from repro.runner.spec import RunSpec, SweepSpec, dedupe
from repro.runner.store import ResultStore, as_store
from repro.runner.worker import run_spec
from repro.sim.cell import CellSimulation
from repro.sim.config import SimConfig
from repro.traffic.generator import MAX_UES

#: Tiny-but-real simulation scale so every test stays fast.
TINY = dict(num_ues=2, duration_s=0.4, load=0.5, seed=3)


def tiny_specs(*schedulers: str) -> list:
    return [RunSpec("lte", sched, **TINY) for sched in schedulers]


def seed_temp_files(store_root: Path) -> tuple[list[Path], list[Path]]:
    """What killed and live writers leave in a store: (dead, to be kept)."""
    gone = subprocess.Popen([sys.executable, "-c", ""])
    gone.wait()
    for shard in ("ab", "session-ckpt"):
        (store_root / shard).mkdir(exist_ok=True)
    dead = [
        store_root / "ab" / f"dead.pkl.tmp.{gone.pid}",
        store_root / "session-ckpt" / f"dead.ckpt.tmp.{gone.pid}",
    ]
    kept = [
        store_root / "ab" / f"live.pkl.tmp.{os.getpid()}",
        store_root / "ab" / "odd.pkl.tmp.notapid",
        store_root / "ab" / "odd.pkl.tmp.0",
    ]
    for path in dead + kept:
        path.write_bytes(b"partial")
    return dead, kept


# -- fault-injecting workers (module-level: must pickle into the pool) -------


def _marker(store_root: str, tag: str, spec) -> Path:
    return Path(store_root) / f"{tag}-{spec.key()[:8]}"


def flaky_once_worker(spec, store_root):
    """Raises on the first attempt for each spec, succeeds after."""
    marker = _marker(store_root, "flaky", spec)
    if not marker.exists():
        marker.touch()
        raise RuntimeError("injected transient fault")
    return run_spec(spec, store_root)


def sigkill_once_worker(spec, store_root):
    """SIGKILLs its own process mid-run, once, for the srjf spec."""
    marker = _marker(store_root, "kill", spec)
    if spec.scheduler == "srjf" and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return run_spec(spec, store_root)


def always_die_worker(spec, store_root):
    """Every attempt at the srjf spec dies; other specs succeed."""
    if spec.scheduler == "srjf":
        os._exit(17)
    return run_spec(spec, store_root)


def always_raise_worker(spec, store_root):
    if spec.scheduler == "srjf":
        raise ValueError("injected permanent fault")
    return run_spec(spec, store_root)


def hang_once_worker(spec, store_root):
    """First attempt per spec sleeps far past the runner's timeout."""
    marker = _marker(store_root, "hang", spec)
    if not marker.exists():
        marker.touch()
        time.sleep(60.0)
    return run_spec(spec, store_root)


# -- specs --------------------------------------------------------------------


class TestRunSpec:
    def test_key_is_stable_hex(self):
        spec = RunSpec("lte", "pf", **TINY)
        assert spec.key() == RunSpec("lte", "pf", **TINY).key()
        assert len(spec.key()) == 64

    def test_key_ignores_override_ordering(self):
        a = RunSpec("lte", "pf", overrides={"rlc_mode": "am", "radio_bler": 0.1})
        b = RunSpec("lte", "pf", overrides={"radio_bler": 0.1, "rlc_mode": "am"})
        assert a.key() == b.key()

    def test_key_differs_across_fields(self):
        base = RunSpec("lte", "pf", **TINY)
        assert base.key() != RunSpec("lte", "outran", **TINY).key()
        assert base.key() != RunSpec("lte", "pf", **{**TINY, "seed": 4}).key()
        assert base.key() != RunSpec("nr", "pf", **TINY).key()

    def test_non_scalar_override_rejected(self):
        with pytest.raises(TypeError):
            RunSpec("lte", "pf", overrides={"mlfq": object()})

    def test_bad_rat_rejected(self):
        with pytest.raises(ValueError):
            RunSpec("wifi", "pf")

    @pytest.mark.parametrize("field,value", [
        ("duration_s", float("inf")), ("duration_s", float("nan")),
        ("duration_s", 0), ("duration_s", "1"), ("duration_s", True),
        ("num_ues", 0), ("num_ues", MAX_UES + 1), ("num_ues", 2.5),
        ("num_ues", True),
    ])
    def test_scale_out_of_range_rejected(self, field, value):
        """A run that could not start (or never return) is refused where
        it is declared, and validation leaves the store keys alone."""
        with pytest.raises(ValueError, match=field):
            RunSpec("lte", "pf", **{field: value})
        assert RunSpec("lte", "pf", num_ues=MAX_UES).num_ues == MAX_UES
        assert RunSpec("lte", "pf").key() == (
            "ee9968091cc32f92d0407e106070d925affe2e79f95388b865d7b85825f01d37"
        )

    def test_to_config_matches_direct_construction(self):
        spec = RunSpec(
            "lte", "pf", load=0.7, seed=5, num_ues=4, duration_s=1.0,
            overrides={"rlc_mode": "am", "radio_bler": 0.05},
        )
        direct = SimConfig.lte_default(
            num_ues=4, load=0.7, seed=5, rlc_mode="am", radio_bler=0.05
        )
        assert spec.to_config() == direct

    def test_nr_config_uses_mu_and_mec(self):
        cfg = RunSpec("nr", "pf", mu=3, mec=True, num_ues=2).to_config()
        assert cfg.tti_us == 125
        assert cfg.server_delay_us == 5_000

    def test_dedupe_keeps_first(self):
        specs = tiny_specs("pf", "outran") + tiny_specs("pf")
        assert len(dedupe(specs)) == 2


class TestSweepSpec:
    def test_expand_order_is_scheduler_major(self):
        sweep = SweepSpec(schedulers=("pf", "outran"), loads=(0.4, 0.6), seeds=(1,))
        got = [(s.scheduler, s.load) for s in sweep.expand()]
        assert got == [("pf", 0.4), ("pf", 0.6), ("outran", 0.4), ("outran", 0.6)]

    def test_variants_become_overrides(self):
        sweep = SweepSpec(variants=({"rlc_mode": "um"}, {"rlc_mode": "am"}))
        modes = [dict(s.overrides)["rlc_mode"] for s in sweep.expand()]
        assert modes == ["um", "am"]

    def test_dict_round_trip(self):
        sweep = SweepSpec(rat="nr", schedulers=("pf",), loads=(0.5,), mu=2)
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"schedulrs": ["pf"]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(schedulers=())


# -- store --------------------------------------------------------------------


class TestResultStore:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = SimConfig.lte_default(num_ues=2, load=0.5, seed=3)
        return CellSimulation(cfg, scheduler="pf").run(0.4)

    def test_round_trip_preserves_metrics(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, result)
        loaded = store.get(key)
        assert loaded.avg_fct_ms() == result.avg_fct_ms()
        assert loaded.fcts_ms().tolist() == result.fcts_ms().tolist()
        assert loaded.mean_fairness() == result.mean_fairness()

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ff" + "0" * 62) is None
        assert store.misses == 1

    def test_corrupt_entry_is_miss_and_deleted(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, result)
        store.path_for(key).write_bytes(b"not a pickle")
        assert store.get(key) is None
        assert not store.path_for(key).exists()

    def test_alien_payload_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ee" + "0" * 62
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"schema": 999}))
        assert store.get(key) is None

    def test_contains_len_keys(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = "aa" + "1" * 62
        assert key not in store
        store.put(key, result)
        assert key in store
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).path_for("../evil")

    def test_sweep_temp_removes_leftovers(self, tmp_path, result):
        """Only a dead writer's temp file goes: a live one is about to be
        ``os.replace``d into place by whoever shares the store."""
        store = ResultStore(tmp_path)
        store.put("ab" + "2" * 62, result)
        dead, kept = seed_temp_files(tmp_path)
        assert store.sweep_temp() == len(dead)
        assert not any(path.exists() for path in dead)
        assert all(path.exists() for path in kept)

    def test_as_store_coercion(self, tmp_path):
        assert as_store(None) is None
        store = ResultStore(tmp_path)
        assert as_store(store) is store
        assert as_store(tmp_path).root == tmp_path


# -- execution ----------------------------------------------------------------


class TestBackoff:
    def test_exponential_and_capped(self):
        assert backoff_delay(1, 0.1, 5.0) == pytest.approx(0.1)
        assert backoff_delay(3, 0.1, 5.0) == pytest.approx(0.4)
        assert backoff_delay(10, 0.1, 0.5) == 0.5

    def test_attempt_counts_from_one(self):
        with pytest.raises(ValueError):
            backoff_delay(0, 0.1, 1.0)


class TestSweepExecution:
    def test_serial_and_parallel_results_identical(self, tmp_path):
        specs = tiny_specs("pf", "srjf", "outran")
        serial = run_sweep(specs, jobs=1, store=None)
        parallel = run_sweep(specs, jobs=2, store=tmp_path / "store")

        def render(outcome):
            return [
                f"{r.avg_fct_ms():.6f} {r.pctl_fct_ms(95, 'S'):.6f} "
                f"{r.mean_se():.6f} {r.mean_fairness():.6f}"
                for r in outcome.in_order(specs)
            ]

        assert render(serial) == render(parallel)

    def test_duplicates_collapsed(self, tmp_path):
        specs = tiny_specs("pf") * 3
        outcome = run_sweep(specs, jobs=1, store=tmp_path)
        assert outcome.stats.total == 1
        assert outcome.stats.executed == 1

    def test_second_invocation_resumes_from_store(self, tmp_path):
        specs = tiny_specs("pf", "outran")
        first = run_sweep(specs, jobs=2, store=tmp_path)
        second = run_sweep(specs, jobs=2, store=tmp_path)
        assert first.stats.executed == 2
        assert second.stats.store_hits == 2
        assert second.stats.executed == 0
        assert [r.avg_fct_ms() for r in second.in_order(specs)] == [
            r.avg_fct_ms() for r in first.in_order(specs)
        ]

    def test_sweep_clears_what_killed_workers_left(self, tmp_path):
        """``execute`` sweeps the store once, and a store holding both a
        dead and a live writer's temp files still completes its sweep."""
        dead, kept = seed_temp_files(tmp_path)
        specs = tiny_specs("pf", "outran")
        outcome = run_sweep(specs, jobs=2, store=tmp_path)
        assert outcome.stats.executed == 2 and not outcome.failures
        assert not any(path.exists() for path in dead)
        assert all(path.exists() for path in kept)
        assert len(ResultStore(tmp_path)) == 2

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_stats_count_what_the_sweep_did(self, tmp_path):
        """``SweepOutcome.stats`` is the one record of a sweep's counts."""
        first = run_sweep(tiny_specs("pf"), jobs=1, store=tmp_path).stats
        assert (first.total, first.executed, first.store_hits) == (1, 1, 0)
        again = run_sweep(tiny_specs("pf"), jobs=1, store=tmp_path).stats
        assert (again.total, again.executed, again.store_hits) == (1, 0, 1)
        assert set(again.as_dict()) == {
            "total", "store_hits", "executed", "retries", "pool_breaks",
            "quarantined", "elapsed_s",
        }

    def test_progress_lines_emitted(self, tmp_path):
        lines = []
        run_sweep(
            tiny_specs("pf"),
            jobs=1,
            store=tmp_path,
            progress=lines.append,
            progress_period_s=0.0,
        )
        assert any("[heartbeat] sweep" in line for line in lines)


class TestFailurePaths:
    def test_transient_raise_is_retried(self, tmp_path):
        specs = tiny_specs("pf", "outran")
        outcome = SweepRunner(
            jobs=2, store=tmp_path, worker=flaky_once_worker, backoff_base_s=0.01
        ).execute(specs)
        assert not outcome.failures
        assert outcome.stats.retries == 2
        assert all(r is not None for r in outcome.in_order(specs))

    def test_serial_path_retries_too(self, tmp_path):
        specs = tiny_specs("pf")
        outcome = SweepRunner(
            jobs=1, store=tmp_path, worker=flaky_once_worker, backoff_base_s=0.01
        ).execute(specs)
        assert not outcome.failures
        assert outcome.stats.retries == 1

    def test_sigkilled_worker_is_recovered(self, tmp_path):
        specs = tiny_specs("pf", "srjf", "outran")
        outcome = SweepRunner(
            jobs=2, store=tmp_path, worker=sigkill_once_worker, backoff_base_s=0.01
        ).execute(specs)
        assert not outcome.failures
        assert outcome.stats.pool_breaks >= 1
        assert all(r is not None for r in outcome.in_order(specs))

    def test_permanent_failure_quarantined_sweep_completes(self, tmp_path):
        specs = tiny_specs("pf", "srjf", "outran")
        outcome = SweepRunner(
            jobs=2,
            store=tmp_path,
            worker=always_raise_worker,
            max_attempts=3,
            backoff_base_s=0.01,
        ).execute(specs)
        assert len(outcome.failures) == 1
        failure = next(iter(outcome.failures.values()))
        assert failure.attempts == 3
        assert "injected permanent fault" in failure.error
        got = outcome.in_order(specs)
        assert got[0] is not None and got[1] is None and got[2] is not None
        with pytest.raises(RuntimeError, match="quarantined"):
            outcome.raise_on_failure()

    def test_repeatedly_dying_worker_quarantined(self, tmp_path):
        specs = tiny_specs("pf", "srjf")
        outcome = SweepRunner(
            jobs=2,
            store=tmp_path,
            worker=always_die_worker,
            max_attempts=2,
            backoff_base_s=0.01,
        ).execute(specs)
        assert "srjf" in str(next(iter(outcome.failures.values())))
        assert outcome.get(specs[0]) is not None

    def test_hung_worker_times_out_and_retries(self, tmp_path):
        specs = tiny_specs("pf")
        outcome = SweepRunner(
            jobs=2,
            store=tmp_path,
            worker=hang_once_worker,
            run_timeout_s=1.0,
            backoff_base_s=0.01,
        ).execute(specs)
        assert not outcome.failures
        assert outcome.stats.pool_breaks >= 1
        assert outcome.get(specs[0]) is not None


class TestCheckpointResume:
    def test_killed_sweep_resumes_identically(self, tmp_path):
        """A sweep losing one run to SIGKILLs, re-invoked healthy, matches an
        uninterrupted serial sweep exactly."""
        specs = tiny_specs("pf", "srjf", "outran")
        interrupted = SweepRunner(
            jobs=2,
            store=tmp_path / "store",
            worker=always_die_worker,
            max_attempts=2,
            backoff_base_s=0.01,
        ).execute(specs)
        assert len(interrupted.failures) == 1

        resumed = SweepRunner(jobs=2, store=tmp_path / "store").execute(specs)
        assert not resumed.failures
        assert resumed.stats.store_hits == 2  # survivors checkpointed
        assert resumed.stats.executed == 1  # only the lost run re-ran

        pristine = run_sweep(specs, jobs=1, store=None)
        for spec in specs:
            a, b = resumed.get(spec), pristine.get(spec)
            assert a.fcts_ms().tolist() == b.fcts_ms().tolist()
            assert a.mean_se() == b.mean_se()
            assert a.mean_fairness() == b.mean_fairness()

    def test_worker_persists_before_returning(self, tmp_path):
        """Results are in the store as soon as the worker finishes -- the
        store, not the parent, is the checkpoint."""
        spec = tiny_specs("pf")[0]
        key, _ = run_spec(spec, str(tmp_path))
        assert key == spec.key()
        assert ResultStore(tmp_path).get(key) is not None


class TestSweepOutcome:
    def test_in_order_aligns_with_input(self):
        outcome = SweepOutcome(results={"k1": "r1"})

        class FakeTask:
            def __init__(self, key):
                self._key = key

            def key(self):
                return self._key

        assert outcome.in_order([FakeTask("k1"), FakeTask("k2")]) == ["r1", None]
