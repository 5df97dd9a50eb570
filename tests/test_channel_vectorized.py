"""Consistency of the cell-wide channel update (the only one)."""

import numpy as np
import pytest

from repro.phy.channel import ChannelModel
from repro.phy.numerology import RadioGrid
from repro.phy.scenarios import PEDESTRIAN


@pytest.fixture
def grid():
    return RadioGrid.lte(10.0)


class TestVectorizedUpdates:
    def test_views_updated_for_every_ue(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=1)
        channels = [model.add_ue(i) for i in range(5)]
        before = [ch.reported_cqi.copy() for ch in channels]
        model.update_all(0.005)
        model.update_all(0.100)
        model.update_all(0.500)
        changed = sum(
            not np.array_equal(before[i], channels[i].reported_cqi)
            for i in range(5)
        )
        assert changed >= 4  # fading moved essentially everyone

    def test_sinr_stays_bounded(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=2)
        for i in range(8):
            model.add_ue(i)
        for step in range(1, 60):
            model.update_all(step * 0.005)
        for ch in model.ue_channels:
            # Fast fading adds at most ~+16 dB over the mean (power gains
            # are clipped below, not above, so allow generous headroom).
            assert ch.subband_sinr_db.max() < PEDESTRIAN.sinr_cap_db + 25
            assert np.isfinite(ch.subband_sinr_db).all()

    def test_mean_gain_near_unity_long_run(self, grid):
        """The cell fader's state must keep E[|h|^2] ~ 1."""
        model = ChannelModel(grid, PEDESTRIAN, seed=3)
        for i in range(4):
            model.add_ue(i)
        gains = []
        for step in range(1, 2000):
            model.update_all(step * 0.01)
            gains.append(np.abs(model._fader._state) ** 2)
        assert np.mean(gains) == pytest.approx(1.0, rel=0.15)

    def test_mobility_refresh_changes_mean_sinr(self, grid):
        scenario = PEDESTRIAN.with_overrides(speed_mps=30.0)  # fast movers
        model = ChannelModel(grid, scenario, seed=4)
        for i in range(4):
            model.add_ue(i)
        model.update_all(0.005)
        first = model._mean_sinr.copy()
        for step in range(2, 400):
            model.update_all(step * 0.005)
        assert not np.allclose(first, model._mean_sinr)

    def test_vectorized_matches_scalar_api_semantics(self, grid):
        """Every UE's view shows fresh CQI reports consistent with the
        stored SINR."""
        model = ChannelModel(grid, PEDESTRIAN, seed=5)
        for i in range(3):
            model.add_ue(i)
        model.update_all(0.005)
        model.update_all(0.010)
        for ch in model.ue_channels:
            expected = model.cqi_table.from_sinr_db(ch.subband_sinr_db)
            assert np.array_equal(expected, ch.reported_cqi)

    def test_late_ue_addition_rebuilds_state(self, grid):
        model = ChannelModel(grid, PEDESTRIAN, seed=6)
        model.add_ue(0)
        model.update_all(0.005)
        model.add_ue(1)
        model.update_all(0.010)  # must not crash; state redrawn for two
        assert model._fader._state.shape[0] == 2
        assert model.rate_matrix_bits().shape[0] == 2
