"""PHY-layer abstraction: numerology, CQI/MCS tables, fading channels."""

from repro.phy.numerology import Numerology, RadioGrid
from repro.phy.cqi import CqiTable, sinr_to_cqi, cqi_to_efficiency
from repro.phy.channel import ChannelModel, UeChannel
from repro.phy.mobility import RandomWalkMobility, StaticMobility
from repro.phy.scenarios import ChannelScenario, SCENARIOS
from repro.phy.interference import hexagonal_neighbors, interference_mw

__all__ = [
    "Numerology",
    "RadioGrid",
    "CqiTable",
    "sinr_to_cqi",
    "cqi_to_efficiency",
    "ChannelModel",
    "UeChannel",
    "RandomWalkMobility",
    "StaticMobility",
    "ChannelScenario",
    "SCENARIOS",
    "hexagonal_neighbors",
    "interference_mw",
]
