"""Tests for SimConfig: derived delays, overrides, and refused values."""

import pytest

from repro import CellSimulation, SimConfig
from repro.phy.scenarios import SCENARIOS


class TestConfigEdges:
    def test_with_overrides_preserves_unrelated_fields(self):
        cfg = SimConfig.lte_default(num_ues=5, load=0.7, seed=3)
        new = cfg.with_overrides(radio_bler=0.1)
        assert new.radio_bler == 0.1
        assert new.num_ues == 5
        assert new.traffic.load == 0.7
        assert cfg.radio_bler == 0.0  # original untouched

    def test_air_and_ul_delays_scale_with_numerology(self):
        lte = SimConfig.lte_default(num_ues=2)
        nr3 = SimConfig.nr_default(mu=3, num_ues=2)
        assert lte.air_delay_us == 4_000
        assert nr3.air_delay_us == 500  # 4 slots of 125 us

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_preset_simulates(self, name):
        cfg = SimConfig.lte_default(
            num_ues=2, load=0.4, seed=1, scenario=SCENARIOS[name],
            bandwidth_mhz=5,
        )
        res = CellSimulation(cfg, "outran").run(duration_s=0.6)
        assert res.completed_flows > 0


class TestRefusedValues:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SimConfig.lte_default(num_ues=2, rlc_mode="xx")

    def test_transparent_mode_is_not_an_option(self):
        with pytest.raises(ValueError, match="rlc_mode"):
            SimConfig.lte_default(num_ues=2, rlc_mode="tm")

    def test_link_adaptation_is_not_a_field(self):
        with pytest.raises(TypeError, match="link_adaptation"):
            SimConfig.lte_default(num_ues=2, link_adaptation="worst_rb")

    @pytest.mark.parametrize(
        "name", ["server_delay_us", "air_delay_slots", "ul_delay_slots"]
    )
    def test_negative_delay_rejected(self, name):
        """Refused where it enters, not as `negative delay` at the first
        event a started run schedules."""
        with pytest.raises(ValueError, match=name):
            SimConfig.lte_default(num_ues=2, **{name: -1})
        assert getattr(SimConfig.lte_default(num_ues=2, **{name: 0}), name) == 0
