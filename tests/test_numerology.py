"""Tests for LTE/NR numerology and RB grids."""

import pytest

from repro.phy.numerology import (
    CONTROL_OVERHEAD,
    Numerology,
    RadioGrid,
    SUBCARRIERS_PER_RB,
    SYMBOLS_PER_SLOT,
)


class TestNumerology:
    @pytest.mark.parametrize(
        "mu,scs,slot",
        [(0, 15, 1000), (1, 30, 500), (2, 60, 250), (3, 120, 125)],
    )
    def test_paper_figure5_values(self, mu, scs, slot):
        n = Numerology(mu)
        assert n.scs_khz == scs
        assert n.slot_us == slot

    def test_rb_bandwidth(self):
        assert Numerology(0).rb_bandwidth_hz == 180_000  # LTE subchannel
        assert Numerology(1).rb_bandwidth_hz == 360_000

    @pytest.mark.parametrize("mu", [-1, 4])
    def test_invalid_mu_raises(self, mu):
        with pytest.raises(ValueError):
            Numerology(mu)

    def test_equality_and_hash(self):
        assert Numerology(1) == Numerology(1)
        assert Numerology(1) != Numerology(2)
        assert len({Numerology(1), Numerology(1)}) == 1


class TestRadioGrid:
    def test_lte_20mhz_100_rbs(self):
        grid = RadioGrid.lte(20.0)
        assert grid.num_rbs == 100  # paper section 4.1
        assert grid.tti_us == 1000
        assert grid.bandwidth_hz == 18_000_000

    def test_nr_100mhz_mu1_273_rbs(self):
        grid = RadioGrid.nr(100, mu=1)
        assert grid.num_rbs == 273  # paper section 4.1
        assert grid.tti_us == 500

    def test_nr_mu3_slot(self):
        grid = RadioGrid.nr(100, mu=3)
        assert grid.tti_us == 125  # 5G NR numerology 3

    def test_unsupported_lte_bandwidth(self):
        with pytest.raises(ValueError):
            RadioGrid.lte(7.0)

    def test_off_table_nr_combination_approximated(self):
        # The paper sweeps numerology 0..3 at 100 MHz; mu=0 at 100 MHz is
        # outside TS 38.101-1, so the grid is approximated (~97% occupancy).
        grid = RadioGrid.nr(100, mu=0)
        assert 500 <= grid.num_rbs <= 560

    def test_nr_bandwidth_too_small(self):
        with pytest.raises(ValueError):
            RadioGrid.nr(1, mu=3)

    def test_subband_count_rounds_up(self):
        grid = RadioGrid(Numerology(0), num_rbs=100, subband_rbs=8)
        assert grid.num_subbands == 13

    def test_subband_of_rb(self):
        grid = RadioGrid(Numerology(0), num_rbs=100, subband_rbs=8)
        assert grid.subband_of_rb(0) == 0
        assert grid.subband_of_rb(7) == 0
        assert grid.subband_of_rb(8) == 1
        assert grid.subband_of_rb(99) == 12

    def test_subband_of_rb_out_of_range(self):
        grid = RadioGrid.lte()
        with pytest.raises(ValueError):
            grid.subband_of_rb(100)

    def test_resource_elements(self):
        grid = RadioGrid.lte()
        assert grid.resource_elements_per_rb() == SUBCARRIERS_PER_RB * SYMBOLS_PER_SLOT
        assert grid.data_re_per_rb() == pytest.approx(
            168 * (1 - CONTROL_OVERHEAD)
        )

    def test_invalid_grid_params(self):
        with pytest.raises(ValueError):
            RadioGrid(Numerology(0), num_rbs=0)
        with pytest.raises(ValueError):
            RadioGrid(Numerology(0), num_rbs=10, subband_rbs=0)


class TestGridEdges:
    def test_subband_larger_than_grid(self):
        grid = RadioGrid(Numerology(0), num_rbs=5, subband_rbs=100)
        assert grid.num_subbands == 1
        assert grid.subband_of_rb(4) == 0

    def test_single_rb_grid(self):
        grid = RadioGrid(Numerology(3), num_rbs=1, subband_rbs=1)
        assert grid.bandwidth_hz == Numerology(3).rb_bandwidth_hz
