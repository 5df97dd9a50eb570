"""Tests for PIAS-style MLFQ threshold optimization."""

import numpy as np
import pytest

from repro.core.thresholds import (
    geometric_thresholds,
    mean_fct_model,
    optimize_thresholds,
)
from repro.traffic.distributions import LTE_CELLULAR


class TestGeometric:
    def test_ladder_values(self):
        assert geometric_thresholds(1000, 10.0, 4) == (1000, 10_000, 100_000)

    def test_count_matches_queues(self):
        assert len(geometric_thresholds(num_queues=6)) == 5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            geometric_thresholds(first_bytes=0)
        with pytest.raises(ValueError):
            geometric_thresholds(factor=1.0)


class TestMeanFctModel:
    @pytest.fixture
    def sizes(self):
        rng = np.random.default_rng(0)
        return LTE_CELLULAR.sample(rng, 5000).astype(float)

    def test_invalid_load(self, sizes):
        with pytest.raises(ValueError):
            mean_fct_model((1000,), sizes, load=1.0)

    def test_non_increasing_thresholds_infeasible(self, sizes):
        assert mean_fct_model((1000, 500), sizes, 0.6) == np.inf

    def test_higher_load_higher_fct(self, sizes):
        low = mean_fct_model((10_000, 100_000), sizes, 0.3)
        high = mean_fct_model((10_000, 100_000), sizes, 0.8)
        assert high > low

    def test_mlfq_beats_single_queue_for_heavy_tail(self, sizes):
        """Any sensible threshold split beats FIFO (no thresholds) in the
        model -- the whole point of MLFQ on heavy-tailed traffic."""
        fifo = mean_fct_model((), sizes, 0.7)
        mlfq = mean_fct_model((20_000, 100_000, 1_000_000), sizes, 0.7)
        assert mlfq < fifo

    def test_degenerate_tiny_threshold_is_worse(self, sizes):
        good = mean_fct_model((20_000,), sizes, 0.7)
        bad = mean_fct_model((10,), sizes, 0.7)  # demotes everyone instantly
        assert good < bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOptimize:
    def test_returns_sorted_positive_thresholds(self):
        rng = np.random.default_rng(1)
        sizes = LTE_CELLULAR.sample(rng, 2000)
        thresholds = optimize_thresholds(sizes, num_queues=4, load=0.6, maxiter=15)
        assert len(thresholds) == 3
        assert list(thresholds) == sorted(thresholds)
        assert all(t > 0 for t in thresholds)

    def test_optimized_no_worse_than_geometric(self):
        rng = np.random.default_rng(2)
        sizes = LTE_CELLULAR.sample(rng, 3000).astype(float)
        opt = optimize_thresholds(sizes, num_queues=4, load=0.6, maxiter=25)
        geo = geometric_thresholds(20_000, 5.0, 4)
        assert mean_fct_model(opt, sizes, 0.6) <= mean_fct_model(geo, sizes, 0.6) * 1.01

    def test_single_queue_returns_empty(self):
        assert optimize_thresholds(np.array([100.0]), num_queues=1) == ()

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            optimize_thresholds(np.array([]), num_queues=4)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        sizes = LTE_CELLULAR.sample(rng, 1000)
        a = optimize_thresholds(sizes, seed=7, maxiter=10)
        b = optimize_thresholds(sizes, seed=7, maxiter=10)
        assert a == b
