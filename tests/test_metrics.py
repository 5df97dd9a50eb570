"""Tests for the metrics collector and result summaries."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import (
    FctRecord,
    MetricsCollector,
    SAMPLE_WINDOW_TTIS,
    SimResult,
    jain_index,
    size_bucket,
)


class TestBuckets:
    def test_paper_boundaries(self):
        assert size_bucket(1) == "S"
        assert size_bucket(10_000) == "S"
        assert size_bucket(10_001) == "M"
        assert size_bucket(100_000) == "M"
        assert size_bucket(100_001) == "L"


class TestJain:
    def test_equal_shares_perfect(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_user_perfect(self):
        assert jain_index([7]) == 1.0
        assert jain_index([]) == 1.0

    def test_total_starvation(self):
        # One of N served: index = 1/N.
        assert jain_index([10, 0, 0, 0, 0]) == pytest.approx(0.2)

    def test_all_zero_is_fair(self):
        assert jain_index([0, 0, 0]) == 1.0


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=2, max_size=30))
def test_property_jain_bounds(values):
    idx = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= idx <= 1.0 + 1e-9


class TestFctRecord:
    def test_fct_computed(self):
        r = FctRecord(0, 1, 5_000, start_us=1_000, end_us=26_000)
        assert r.fct_us == 25_000
        assert r.fct_ms == 25.0
        assert r.bucket == "S"


def _collector(num_ues=4):
    return MetricsCollector(num_ues, bandwidth_hz=18e6, tti_us=1000)


class TestCollector:
    def test_se_sample_after_window(self):
        c = _collector()
        bits = np.array([18_000.0, 0, 0, 0])  # 1 bit/s/Hz if constant
        for t in range(SAMPLE_WINDOW_TTIS):
            c.on_tti(t * 1000, bits, [0])
        assert len(c.se_samples) == 1
        assert c.se_samples[0][1] == pytest.approx(1.0)

    def test_idle_windows_not_sampled(self):
        c = _collector()
        zero = np.zeros(4)
        for t in range(SAMPLE_WINDOW_TTIS * 2):
            c.on_tti(t * 1000, zero, [])
        assert c.se_samples == []
        assert c.fairness_samples == []

    def test_fairness_detects_starvation(self):
        c = _collector()
        bits = np.array([1000.0, 0.0, 0.0, 0.0])
        for t in range(SAMPLE_WINDOW_TTIS):
            c.on_tti(t * 1000, bits, [0, 1])  # both backlogged, one served
        assert c.fairness_samples[0][1] == pytest.approx(0.5)

    def test_fairness_equal_service(self):
        c = _collector()
        bits = np.array([500.0, 500.0, 0.0, 0.0])
        for t in range(SAMPLE_WINDOW_TTIS):
            c.on_tti(t * 1000, bits, [0, 1])
        assert c.fairness_samples[0][1] == pytest.approx(1.0)

    def test_total_bits_accumulates(self):
        c = _collector()
        c.on_tti(0, np.array([100.0, 50.0, 0, 0]), [0, 1])
        assert c.total_bits == 150


class TestSimResult:
    def _result(self):
        c = _collector()
        c.on_flow_started()
        c.on_flow_started()
        c.on_flow_started()
        c.on_flow_complete(0, 0, 5_000, 0, 20_000)
        c.on_flow_complete(1, 1, 50_000, 0, 100_000)
        c.on_queue_delay(0, 4_000)
        c.on_queue_delay(1, 12_000)
        c.on_rtt_sample(30_000.0)
        return SimResult(
            c, duration_s=1.0, scheduler_name="pf",
            flow_sizes={0: 5_000, 1: 50_000},
        )

    def test_bucketed_fcts(self):
        res = self._result()
        assert res.avg_fct_ms("S") == pytest.approx(20.0)
        assert res.avg_fct_ms("M") == pytest.approx(100.0)
        assert np.isnan(res.avg_fct_ms("L"))

    def test_overall_average(self):
        assert self._result().avg_fct_ms() == pytest.approx(60.0)

    def test_percentile(self):
        assert self._result().pctl_fct_ms(100) == pytest.approx(100.0)

    def test_censored_count(self):
        res = self._result()
        assert res.completed_flows == 2
        assert res.censored_flows == 1

    def test_queue_delay_bucketed(self):
        res = self._result()
        assert res.queue_delay_ms("S") == pytest.approx(4.0)
        assert res.queue_delay_ms("M") == pytest.approx(12.0)
        assert res.queue_delay_ms() == pytest.approx(8.0)

    def test_rtt_ms(self):
        assert self._result().mean_rtt_ms() == pytest.approx(30.0)

    def test_summary_mentions_scheduler(self):
        text = self._result().fct_summary()
        assert "pf" in text
        assert "short" in text


class TestLongtermFairness:
    def test_equal_cumulative_service_is_fair(self):
        c = _collector()
        for t in range(SAMPLE_WINDOW_TTIS):
            # Alternating service evens out over the run.
            bits = np.array([1000.0, 0, 0, 0]) if t % 2 else np.array([0, 1000.0, 0, 0])
            c.on_tti(t * 1000, bits, [0, 1])
        res = SimResult(c, 1.0, "pf")
        assert res.longterm_fairness() == pytest.approx(1.0)

    def test_starved_ue_lowers_longterm_index(self):
        c = _collector()
        for t in range(SAMPLE_WINDOW_TTIS):
            c.on_tti(t * 1000, np.array([1000.0, 0, 0, 0]), [0, 1])
        res = SimResult(c, 1.0, "pf")
        assert res.longterm_fairness() == pytest.approx(0.5)

    def test_nan_when_never_backlogged(self):
        c = _collector()
        res = SimResult(c, 1.0, "pf")
        assert res.longterm_fairness() != res.longterm_fairness()
