"""repro.cc -- pluggable congestion control and RLC-buffer AQM.

The package sits between ``repro.net`` (the TCP mechanics) and
``repro.rlc`` (the buffer the AQM watches): senders delegate window
policy to a :class:`~repro.cc.base.CongestionControl`, and the RLC
transmitter consults an :class:`~repro.cc.aqm.EcnMarker` when one is
configured.  ``make_cc`` is the registry the simulation wires through
``SimConfig.cc`` / ``repro run --cc``.
"""

from __future__ import annotations

from repro.cc.aqm import AQM_NAMES, EcnMarker, make_aqm
from repro.cc.base import CongestionControl
from repro.cc.cubic import CUBIC_BETA, CUBIC_C, CubicCC, CubicState
from repro.cc.dctcp import DCTCP_G, DctcpCC
from repro.net.packet import DEFAULT_MSS

_CC_REGISTRY = {
    "cubic": CubicCC,
    "dctcp": DctcpCC,
}
#: Valid ``SimConfig.cc`` / ``--cc`` values.
CC_NAMES = tuple(_CC_REGISTRY)


def make_cc(
    name: str, mss: int = DEFAULT_MSS, initial_cwnd_segments: int = 10
) -> CongestionControl:
    """Build a congestion controller by registry name."""
    try:
        cls = _CC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; expected one of {CC_NAMES}"
        ) from None
    return cls(mss=mss, initial_cwnd_segments=initial_cwnd_segments)


__all__ = [
    "AQM_NAMES",
    "CC_NAMES",
    "CUBIC_BETA",
    "CUBIC_C",
    "DCTCP_G",
    "CongestionControl",
    "CubicCC",
    "CubicState",
    "DctcpCC",
    "EcnMarker",
    "make_aqm",
    "make_cc",
]
