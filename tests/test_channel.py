"""Tests for the fading channel model."""

import numpy as np
import pytest

from repro.phy.channel import ChannelModel, pathloss_db
from repro.phy.channel import _Ar1Fader
from repro.phy.numerology import RadioGrid
from repro.phy.scenarios import PEDESTRIAN, SCENARIOS, ChannelScenario


@pytest.fixture
def grid():
    return RadioGrid.lte(20.0)


class TestPathloss:
    def test_increases_with_distance(self):
        assert pathloss_db(200) > pathloss_db(50) > pathloss_db(10)

    def test_close_in_clamped(self):
        assert pathloss_db(1) == pathloss_db(10)

    def test_urban_macro_anchor(self):
        # 128.1 + 37.6*log10(0.1 km) = 90.5 dB at 100 m.
        assert pathloss_db(100) == pytest.approx(90.5, abs=0.1)


class TestFaders:
    def test_ar1_mean_power_near_one(self):
        rng = np.random.default_rng(1)
        fader = _Ar1Fader(shape=(2, 4), doppler_hz=10.0, rng=rng)
        gains = np.stack([fader.advance(0.005) for _ in range(4000)])
        assert gains.shape == (4000, 2, 4)
        assert gains.mean() == pytest.approx(1.0, rel=0.2)

    def test_ar1_slow_doppler_is_correlated(self):
        rng = np.random.default_rng(2)
        fader = _Ar1Fader(shape=(1, 1), doppler_hz=1.0, rng=rng)
        a = fader.advance(0.001)
        b = fader.advance(0.001)
        # At 1 Hz Doppler and 1 ms steps the channel barely moves.
        assert abs(a[0, 0] - b[0, 0]) < 0.2

    def test_bands_fade_independently(self):
        rng = np.random.default_rng(3)
        fader = _Ar1Fader(shape=(2, 32), doppler_hz=50.0, rng=rng)
        gains = np.stack([fader.advance(0.05) for _ in range(200)])
        # Neither two bands of one UE nor one band of two UEs move together.
        for other in (gains[:, 0, 1], gains[:, 1, 0]):
            assert abs(np.corrcoef(gains[:, 0, 0], other)[0, 1]) < 0.3


class TestUeChannel:
    def test_mean_sinr_within_scenario_bounds(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        for i in range(30):
            ch = model.add_ue(i)
            sinr = ch.mean_sinr_db()
            assert PEDESTRIAN.sinr_floor_db <= sinr <= PEDESTRIAN.sinr_cap_db

    def test_update_changes_fading_state(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        ch = model.add_ue(0)
        before = ch.subband_sinr_db.copy()
        # Flat at the average SINR until the fader has stepped once.
        assert np.array_equal(before, np.full(grid.num_subbands, ch.mean_sinr_db()))
        model.update_all(0.005)
        model.update_all(0.050)
        assert not np.allclose(before, ch.subband_sinr_db)

    def test_reported_cqi_tracks_sinr(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=1)
        ch = model.add_ue(0)
        model.update_all(0.005)
        model.update_all(0.010)
        cqi = ch.reported_cqi
        assert cqi.shape == (grid.num_subbands,)
        assert (cqi >= 0).all() and (cqi <= 15).all()
        assert np.array_equal(cqi, model.cqi_table.from_sinr_db(ch.subband_sinr_db))

    def test_update_is_noop_for_nonpositive_dt(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        ch = model.add_ue(0)
        model.update_all(0.005)
        model.update_all(0.010)
        snapshot = ch.subband_sinr_db.copy()
        model.update_all(0.010)  # same time again
        model.update_all(0.008)  # and a step back
        assert np.array_equal(snapshot, ch.subband_sinr_db)

    def test_radio_state_is_a_view_of_the_models_arrays(self, grid):
        """One copy: a UE's SINR and CQI are rows of the cell's matrices."""
        model = ChannelModel(grid, PEDESTRIAN, seed=3)
        channels = [model.add_ue(i) for i in range(4)]
        first_rb = np.arange(grid.num_subbands) * grid.subband_rbs
        for now_s in (0.005, 0.010, 0.200):
            model.update_all(now_s)
            per_band = model.cqi_matrix()[:, first_rb]
            for i, ch in enumerate(channels):
                assert np.shares_memory(ch.reported_cqi, model._cqi)
                assert np.shares_memory(ch.subband_sinr_db, model._sinr_db)
                assert np.array_equal(ch.reported_cqi, per_band[i])
        assert not ch.reported_cqi.flags.writeable
        assert not ch.subband_sinr_db.flags.writeable

    def test_holds_no_array_generator_or_fader(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=4)
        ch = model.add_ue(0)
        model.update_all(0.005)
        model.update_all(0.010)
        assert not hasattr(ch, "update")
        held = {type(value) for value in vars(ch).values()}
        assert not held & {np.ndarray, np.random.Generator, _Ar1Fader}


class TestChannelModel:
    def test_rate_matrix_shape(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        for i in range(5):
            model.add_ue(i)
        rates = model.rate_matrix_bits()
        assert rates.shape == (5, grid.num_rbs)
        assert (rates >= 0).all()

    def test_rate_matrix_empty(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        assert model.rate_matrix_bits().shape == (0, grid.num_rbs)

    def test_rates_constant_within_subband(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        model.add_ue(0)
        rates = model.rate_matrix_bits()
        sb = grid.subband_rbs
        assert np.allclose(rates[0, :sb], rates[0, 0])

    def test_cqi_matrix_matches_rates(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        model.add_ue(0)
        cqi = model.cqi_matrix()
        rates = model.rate_matrix_bits()
        # Zero CQI means zero rate and vice versa.
        assert ((cqi == 0) == (rates == 0)).all()

    def test_update_all_advances_every_ue(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        for i in range(3):
            model.add_ue(i)
        before = model.rate_matrix_bits().copy()
        model.update_all(0.1)
        model.update_all(0.5)
        assert not np.allclose(before, model.rate_matrix_bits())

    def test_deterministic_for_seed(self, grid):
        def build():
            model = ChannelModel(grid, PEDESTRIAN, seed=42)
            for i in range(4):
                model.add_ue(i)
            model.update_all(0.005)
            return model.rate_matrix_bits()

        assert np.allclose(build(), build())

    def test_rate_matrix_is_c_contiguous(self, grid):
        """The layout the per-TTI metric arithmetic and the C kernels read."""
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        for i in range(5):
            model.add_ue(i)
        assert model.rate_matrix_bits().flags.c_contiguous
        model.update_all(0.005)
        model.update_all(0.010)
        rates = model.rate_matrix_bits()
        assert rates.flags.c_contiguous and rates.dtype == np.float64
        assert rates is not model.rate_matrix_bits()  # a copy per call

    def test_one_fader_for_the_cell(self, grid):
        """Built at the first update, which only initialises."""
        model = ChannelModel(grid, PEDESTRIAN, seed=0)
        for i in range(3):
            model.add_ue(i)
        flat = model.rate_matrix_bits()
        assert model._fader is None
        model.update_all(0.005)
        assert isinstance(model._fader, _Ar1Fader)
        assert model._fader.shape == (3, grid.num_subbands)
        assert np.array_equal(flat, model.rate_matrix_bits())
        model.update_all(0.010)
        assert not np.array_equal(flat, model.rate_matrix_bits())


class TestScenarios:
    def test_all_presets_constructible(self, grid):
        for name, scenario in SCENARIOS.items():
            model = ChannelModel(grid, scenario, seed=0)
            ch = model.add_ue(0)
            model.update_all(scenario.cqi_period_s)
            model.update_all(2 * scenario.cqi_period_s)
            assert np.isfinite(ch.subband_sinr_db).all(), name

    def test_fading_is_not_an_option(self):
        with pytest.raises(TypeError):
            ChannelScenario(name="x", fading="ar1")
        with pytest.raises(TypeError):
            PEDESTRIAN.with_overrides(fading="jakes")

    def test_doppler_scales_with_speed(self):
        rome = SCENARIOS["rome"]
        boston = SCENARIOS["boston"]
        assert boston.doppler_hz() > rome.doppler_hz()

    def test_static_scenario_low_doppler(self):
        powder = SCENARIOS["powder"]
        assert powder.doppler_hz() < SCENARIOS["boston"].doppler_hz()
