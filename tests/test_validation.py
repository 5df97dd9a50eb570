"""Statistical validation of the stochastic substrates."""

import numpy as np
import pytest

from repro.analysis.validation import (
    ValidationReport,
    validate_doppler_autocorrelation,
    validate_poisson_arrivals,
    validate_rayleigh_power,
)
from repro.phy.channel import ChannelModel
from repro.phy.numerology import RadioGrid
from repro.phy.scenarios import LIGHT_SPEED_MPS, PEDESTRIAN
from repro.traffic.distributions import LTE_CELLULAR
from repro.traffic.generator import PoissonTrafficGenerator


def cell_fader_series(doppler_hz, dt_s, steps, num_ues=2, seed=0):
    """Complex fading state of a cell driven the way a run drives it.

    The fader validated is the one ``ChannelModel.update_all`` advances
    (there is no other); the Doppler is set through the scenario's speed.
    Returns ``(steps, num_ues, num_subbands)``.
    """
    scenario = PEDESTRIAN.with_overrides(
        speed_mps=doppler_hz * LIGHT_SPEED_MPS / PEDESTRIAN.carrier_hz
    )
    assert scenario.doppler_hz() == pytest.approx(doppler_hz)
    model = ChannelModel(RadioGrid.lte(5.0), scenario, seed=seed)
    for i in range(num_ues):
        model.add_ue(i)
    model.update_all(0.0)  # builds the fader; the first step follows
    out = []
    for step in range(1, steps + 1):
        model.update_all(step * dt_s)
        out.append(model._fader._state)
    return np.stack(out)


class TestRayleighPower:
    def test_ar1_fader_is_rayleigh(self):
        # Sample far apart so draws are nearly independent.
        state = cell_fader_series(200.0, dt_s=0.5, steps=1500)
        report = validate_rayleigh_power(np.abs(state) ** 2)
        assert report.passed, str(report)

    def test_uniform_noise_fails(self):
        rng = np.random.default_rng(2)
        report = validate_rayleigh_power(rng.uniform(0, 2, 5000))
        assert not report.passed

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            validate_rayleigh_power(np.ones(10))


class TestDopplerAutocorrelation:
    def _series(self, doppler, dt, n=20_000, seed=3):
        return cell_fader_series(doppler, dt, n, num_ues=1, seed=seed)[:, 0, 0]

    def test_ar1_tracks_j0(self):
        doppler, dt = 30.0, 0.002
        series = self._series(doppler, dt)
        report = validate_doppler_autocorrelation(series, doppler, dt)
        assert report.passed, str(report)

    def test_fast_doppler_decorrelates(self):
        doppler, dt = 400.0, 0.005  # J0 argument > first zero
        series = self._series(doppler, dt)
        report = validate_doppler_autocorrelation(
            series, doppler, dt, tolerance=0.2
        )
        assert report.passed, str(report)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            validate_doppler_autocorrelation(np.ones(10, complex), 10, 0.01)


class TestPoissonArrivals:
    def test_generator_is_poisson(self):
        gen = PoissonTrafficGenerator(
            LTE_CELLULAR, num_ues=10, load=0.6, capacity_bps=50e6, seed=5
        )
        flows = gen.generate(60.0)
        times = np.array([f.start_us / 1e6 for f in flows])
        report = validate_poisson_arrivals(times, gen.arrival_rate_per_s)
        assert report.passed, str(report)

    def test_regular_arrivals_fail(self):
        times = np.arange(0, 100, 0.5)
        report = validate_poisson_arrivals(times, 2.0)
        assert not report.passed

    def test_too_few_arrivals_rejected(self):
        with pytest.raises(ValueError):
            validate_poisson_arrivals(np.arange(5.0), 1.0)


class TestReport:
    def test_str_contains_verdict(self):
        report = ValidationReport("x", 1.0, 1.0, 0.1, True)
        assert "PASS" in str(report)
        report = ValidationReport("x", 0.0, 1.0, 0.1, False)
        assert "FAIL" in str(report)
