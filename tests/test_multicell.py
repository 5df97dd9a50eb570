"""Tests for the multi-cell (Colosseum-style) deployment."""

import numpy as np
import pytest

from repro import SimConfig
from repro.sim.multicell import MultiCellSimulation, PooledResult
from repro.sim.session import result_fingerprint


def small_config():
    return SimConfig.lte_default(num_ues=3, load=0.4, seed=9, bandwidth_mhz=3)


class TestMultiCell:
    def test_cells_get_distinct_seeds(self):
        multi = MultiCellSimulation(small_config(), "pf", num_cells=3)
        seeds = [s.sim.config.seed for s in multi.sessions(duration_s=1.0)]
        assert seeds == [9, 1009, 2009]

    def test_run_pools_all_cells(self):
        multi = MultiCellSimulation(small_config(), "outran", num_cells=2)
        pooled = multi.run(duration_s=1.2)
        per_cell = [r.completed_flows for r in pooled.cells]
        assert pooled.completed_flows == sum(per_cell)
        assert all(n > 0 for n in per_cell)

    def test_interleaved_stepping_equals_run(self):
        """Cells are independent engines: stepping them round-robin in
        100-TTI slices changes no cell's outcome."""
        multi = MultiCellSimulation(small_config(), "outran", num_cells=3)
        sessions = [s.start() for s in multi.sessions(duration_s=1.0)]
        while not all(s.done for s in sessions):
            for session in sessions:
                session.step(n_ttis=100)
        stepped = [result_fingerprint(s.finish()) for s in sessions]
        one_shot = [result_fingerprint(r) for r in multi.run(1.0).cells]
        assert stepped == one_shot and len(set(stepped)) == 3

    def test_pooled_fcts_concatenate(self):
        multi = MultiCellSimulation(small_config(), "pf", num_cells=2)
        pooled = multi.run(duration_s=1.0)
        assert pooled.fcts_ms().size == pooled.completed_flows
        assert pooled.avg_fct_ms() > 0
        assert pooled.pctl_fct_ms(95) >= pooled.pctl_fct_ms(50)

    def test_pooled_system_metrics_are_means(self):
        multi = MultiCellSimulation(small_config(), "pf", num_cells=2)
        pooled = multi.run(duration_s=1.0)
        assert pooled.mean_se() == pytest.approx(
            np.mean([r.mean_se() for r in pooled.cells])
        )
        assert 0 < pooled.mean_fairness() <= 1.0

    def test_scheduler_instance_rejected(self):
        from repro.core.outran import OutranScheduler

        with pytest.raises(TypeError):
            MultiCellSimulation(small_config(), OutranScheduler())

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            MultiCellSimulation(small_config(), "pf", num_cells=0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PooledResult([])
