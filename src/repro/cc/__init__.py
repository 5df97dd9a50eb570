"""repro.cc -- pluggable congestion control and RLC-buffer AQM.

The package sits between ``repro.net`` (the TCP mechanics) and
``repro.rlc`` (the buffer the AQM watches): senders delegate window
policy to a :class:`~repro.cc.base.CongestionControl`, and the RLC
transmitter consults an :class:`~repro.cc.aqm.EcnMarker` when one is
configured.  ``make_cc`` / ``make_aqm`` are the registries the simulation
wires through ``SimConfig.cc`` / ``SimConfig.aqm``; each imports the
implementation it builds, so validating a name loads none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.cc.aqm import EcnMarker
    from repro.cc.base import CongestionControl
    from repro.sim.config import SimConfig

#: Valid ``SimConfig.cc`` / ``--cc`` values.
CC_NAMES = ("cubic", "dctcp")
#: Valid ``SimConfig.aqm`` values.
AQM_NAMES = ("droptail", "red")


def make_cc(name: str, initial_cwnd_segments: int = 10) -> "CongestionControl":
    """Build a congestion controller by registry name."""
    if name == "cubic":
        from repro.cc.cubic import CubicCC as cls
    elif name == "dctcp":
        from repro.cc.dctcp import DctcpCC as cls
    else:
        raise ValueError(
            f"unknown congestion control {name!r}; expected one of {CC_NAMES}"
        )
    return cls(initial_cwnd_segments=initial_cwnd_segments)


def make_aqm(config: "SimConfig", ue_index: int) -> Optional["EcnMarker"]:
    """Build the configured marker for one UE (None = drop-tail only)."""
    if config.aqm == "droptail":
        return None
    from repro.cc.aqm import EcnMarker

    return EcnMarker(
        config.ecn_min_sdus,
        config.ecn_max_sdus,
        mark_prob=config.ecn_mark_prob,
        seed=(config.seed + 13) * 1009 + ue_index,
    )
