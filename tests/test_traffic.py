"""Tests for flow-size distributions and arrival generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import TrafficSpec
from repro.traffic.distributions import (
    EmpiricalDistribution,
    LTE_CELLULAR,
    MIRAGE_MOBILE_APP,
    WEBSEARCH,
    distribution_by_name,
)
from repro.traffic.generator import (
    IncastGenerator,
    PoissonTrafficGenerator,
    SHORT_FLOW_BYTES,
)
from repro.traffic.workloads import TRAFFIC_KINDS, make_generator

#: Every distribution a config can name.
NAMED = (LTE_CELLULAR, MIRAGE_MOBILE_APP, WEBSEARCH)


class TestEmpiricalDistribution:
    def test_validation_rejects_bad_cdfs(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution("x", [(100, 1.0)], 100.0)  # too few points
        with pytest.raises(ValueError):
            EmpiricalDistribution("x", [(100, 0.5), (50, 1.0)], 75.0)  # sizes down
        with pytest.raises(ValueError):
            EmpiricalDistribution("x", [(100, 0.5), (200, 0.4)], 150.0)  # cdf down
        with pytest.raises(ValueError):
            EmpiricalDistribution("x", [(100, 0.5), (200, 0.9)], 150.0)  # no 1.0

    def test_samples_within_support(self):
        rng = np.random.default_rng(0)
        samples = LTE_CELLULAR.sample(rng, 10_000)
        assert samples.min() >= 1
        assert samples.max() <= 10_000_000

    def test_paper_anchor_90pct_under_36kb(self):
        """Figure 2a: 90% of flows are < 35.9 KB."""
        assert LTE_CELLULAR.cdf(35_900) == pytest.approx(0.90, abs=0.005)
        rng = np.random.default_rng(1)
        samples = LTE_CELLULAR.sample(rng, 50_000)
        assert np.mean(samples < 35_900) == pytest.approx(0.90, abs=0.01)

    def test_websearch_mean_near_paper_value(self):
        """Section 6.1: background web-search mean flow = 1.92 MB."""
        assert WEBSEARCH.mean() == pytest.approx(1.92e6, rel=0.35)

    def test_quantile_cdf_roundtrip(self):
        for p in (0.3, 0.6, 0.9, 0.99):
            size = LTE_CELLULAR.quantile(p)
            assert LTE_CELLULAR.cdf(size) == pytest.approx(p, abs=0.01)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            LTE_CELLULAR.quantile(1.5)

    def test_lookup_by_name(self):
        for dist in NAMED:
            assert distribution_by_name(dist.name) is dist
        with pytest.raises(ValueError):
            distribution_by_name("nope")

    @pytest.mark.parametrize("dist", NAMED, ids=lambda d: d.name)
    def test_pinned_mean_is_the_seeded_draw(self, dist):
        """Each table's mean is exactly that of 200 000 draws at seed 12345
        (integer sizes: the sum, hence the quotient, is exact)."""
        total = int(dist.sample(np.random.default_rng(12345), 200_000).sum())
        assert dist.mean() == total / 200_000


@pytest.mark.parametrize("kind", TRAFFIC_KINDS)
def test_cold_start_draws_nothing(monkeypatch, kind):
    """Building every generator over every named table and generating
    from it calls no ``sample``: arrival rates read the pinned mean."""

    def refuse(*_):
        raise AssertionError("a cold start drew flow sizes")

    monkeypatch.setattr(EmpiricalDistribution, "sample", refuse)
    for dist in NAMED:
        traffic = TrafficSpec(distribution=dist.name, load=0.5, kind=kind)
        assert make_generator(traffic, 4, 50e6, seed=1).generate(5.0)


class TestPoissonGenerator:
    def _gen(self, load=0.6, seed=0, num_ues=10):
        return PoissonTrafficGenerator(
            LTE_CELLULAR, num_ues, load, capacity_bps=50e6, seed=seed
        )

    def test_arrival_rate_matches_load(self):
        gen = self._gen(load=0.5)
        expected = 0.5 * 50e6 / (gen.mean_flow_bytes * 8)
        assert gen.arrival_rate_per_s == pytest.approx(expected)

    def test_generated_count_near_expectation(self):
        gen = self._gen()
        flows = gen.generate(30.0)
        expected = gen.arrival_rate_per_s * 30
        assert len(flows) == pytest.approx(expected, rel=0.2)

    def test_flows_time_ordered_within_horizon(self):
        flows = self._gen().generate(10.0)
        starts = [f.start_us for f in flows]
        assert starts == sorted(starts)
        assert starts[-1] < 10_000_000

    def test_deterministic_per_seed(self):
        a = self._gen(seed=5).generate(5.0)
        b = self._gen(seed=5).generate(5.0)
        assert [(f.ue_index, f.size_bytes, f.start_us) for f in a] == [
            (f.ue_index, f.size_bytes, f.start_us) for f in b
        ]

    def test_qos_short_flag_matches_size(self):
        flows = self._gen().generate(10.0)
        for f in flows:
            assert f.qos_short == (f.size_bytes < SHORT_FLOW_BYTES)

    def test_ues_covered(self):
        flows = self._gen(num_ues=4).generate(30.0)
        assert {f.ue_index for f in flows} == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonTrafficGenerator(LTE_CELLULAR, 0, 0.5, 1e6)
        with pytest.raises(ValueError):
            PoissonTrafficGenerator(LTE_CELLULAR, 5, 0.0, 1e6)
        with pytest.raises(ValueError):
            PoissonTrafficGenerator(LTE_CELLULAR, 5, 0.5, 0.0)


class TestIncastGenerator:
    def _gen(self):
        return IncastGenerator(
            LTE_CELLULAR, num_ues=20, load=0.8, capacity_bps=50e6,
            seed=1, short_bytes=8_000, short_fraction=0.1, burst_flows=8,
        )

    def test_bursts_are_synchronized_and_distinct_ues(self):
        flows = self._gen().generate(10.0)
        shorts = [f for f in flows if f.size_bytes == 8_000 and f.qos_short]
        by_time = {}
        for f in shorts:
            by_time.setdefault(f.start_us, []).append(f)
        bursts = [batch for batch in by_time.values() if len(batch) > 1]
        assert bursts, "expected synchronized bursts"
        for batch in bursts:
            ues = [f.ue_index for f in batch]
            assert len(set(ues)) == len(ues)

    def test_short_volume_fraction_approximate(self):
        flows = self._gen().generate(30.0)
        short_bytes = sum(f.size_bytes for f in flows if f.size_bytes == 8_000)
        total = sum(f.size_bytes for f in flows)
        assert short_bytes / total == pytest.approx(0.1, rel=0.5)

    def test_sorted_output(self):
        flows = self._gen().generate(5.0)
        starts = [f.start_us for f in flows]
        assert starts == sorted(starts)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            IncastGenerator(LTE_CELLULAR, 10, 0.8, 1e6, short_fraction=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), p=st.floats(0.05, 0.95))
def test_property_sample_quantiles_match_cdf(seed, p):
    """Empirical quantiles of a big sample track the analytic quantile."""
    rng = np.random.default_rng(seed)
    samples = LTE_CELLULAR.sample(rng, 20_000)
    analytic = LTE_CELLULAR.quantile(p)
    empirical = np.quantile(samples, p)
    assert empirical == pytest.approx(analytic, rel=0.25)
