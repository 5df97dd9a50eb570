"""Channel scenario presets.

Each scenario bundles the RF knobs that distinguish the environments the
paper evaluates in:

* ``pedestrian`` -- the 3GPP 36.141 pedestrian fading trace used by the
  LTE simulations and the over-the-air testbed (low Doppler, 200 m cell).
* ``urban_5g`` -- the NS-3 5G-LENA urban scenario (28 GHz, steadier
  channel; Appendix B notes SRJF looks ideal under it).
* ``rome`` / ``boston`` / ``powder`` -- Colosseum SCOPE scenarios
  (Figure 19): close/moderate, close/fast, and medium/static respectively.

The paper consumed recorded traces; we substitute parameterised generators
that reproduce the traces' defining characteristics (Doppler rate, SINR
spread, mobility) -- see DESIGN.md section 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.phy.mobility import MobilityModel, RandomWalkMobility, StaticMobility

LIGHT_SPEED_MPS = 299_792_458.0


@dataclass(frozen=True)
class ChannelScenario:
    """RF environment parameters for a cell."""

    name: str
    carrier_hz: float = 2.68e9  # paper testbed: Band 7 downlink
    #: Chosen so the cell's SINR distribution spans ~10..45 dB
    #: (medium/good/excellent UEs, paper Figure 2b).
    tx_power_dbm: float = 24.0
    noise_figure_db: float = 9.0
    interference_margin_db: float = 3.0
    shadowing_std_db: float = 6.0
    speed_mps: float = 1.4
    cell_radius_m: float = 200.0
    min_distance_m: float = 10.0
    static: bool = False
    cqi_period_s: float = 0.005
    sinr_floor_db: float = -5.0
    sinr_cap_db: float = 45.0
    use_256qam: bool = True
    #: Neighboring mast positions (m); empty = fold other-cell
    #: interference into ``interference_margin_db`` instead.
    neighbor_cells: tuple = ()
    #: Fraction of TTIs each neighbor transmits (its load).
    neighbor_activity: float = 0.5

    def doppler_hz(self, carrier_hz: float | None = None) -> float:
        """Maximum Doppler shift ``v * f_c / c`` for this scenario."""
        fc = carrier_hz if carrier_hz is not None else self.carrier_hz
        speed = 0.5 if self.static else self.speed_mps  # residual scatter motion
        return speed * fc / LIGHT_SPEED_MPS

    def make_mobility(self, rng: np.random.Generator) -> MobilityModel:
        """Instantiate a mobility model consistent with this scenario."""
        if self.static:
            r = float(
                np.sqrt(rng.uniform(self.min_distance_m**2, self.cell_radius_m**2))
            )
            return StaticMobility(r, azimuth_rad=float(rng.uniform(0, 2 * np.pi)))
        return RandomWalkMobility(
            rng,
            cell_radius_m=self.cell_radius_m,
            min_distance_m=self.min_distance_m,
            speed_mps=self.speed_mps,
        )

    def with_overrides(self, **kwargs) -> "ChannelScenario":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


PEDESTRIAN = ChannelScenario(name="pedestrian")

URBAN_5G = ChannelScenario(
    name="urban_5g",
    carrier_hz=28e9,
    tx_power_dbm=40.0,
    cell_radius_m=120.0,
    speed_mps=1.4,
    shadowing_std_db=4.0,
    # The 5G-LENA urban trace is steadier than the LTE pedestrian trace
    # (Appendix B); a slow effective Doppler reproduces that.
    static=True,
    interference_margin_db=2.0,
)

ROME = ChannelScenario(
    name="rome",
    cell_radius_m=80.0,  # "close" UE placement
    speed_mps=5.0,  # "moderate" mobility
    shadowing_std_db=5.0,
)

BOSTON = ChannelScenario(
    name="boston",
    cell_radius_m=80.0,  # "close"
    speed_mps=15.0,  # "fast"
    shadowing_std_db=6.0,
)

POWDER = ChannelScenario(
    name="powder",
    cell_radius_m=160.0,  # "medium"
    static=True,
    shadowing_std_db=7.0,
)

SCENARIOS: dict[str, ChannelScenario] = {
    s.name: s for s in (PEDESTRIAN, URBAN_5G, ROME, BOSTON, POWDER)
}
