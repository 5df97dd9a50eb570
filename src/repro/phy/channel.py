"""Fading channel model producing per-sub-band SINR and CQI reports.

What the schedulers under study react to is the *time- and
frequency-selective* variation of each UE's achievable rate, reported as
per-sub-band CQI.  We model, per UE:

* **Large-scale**: 3GPP urban-macro path loss ``128.1 + 37.6 log10(d_km)``
  plus log-normal shadowing, driven by a mobility model.
* **Small-scale**: Rayleigh fading per sub-band from one first-order
  Gauss-Markov (AR1) process per cell, a complex ``(UEs x sub-bands)``
  matrix whose lag autocorrelation is the Jakes spectrum's
  ``J0(2*pi*fd*dt)``.

Sub-bands fade independently, which models frequency-selective fading at
the granularity the xNodeB actually sees (sub-band CQI reports).  The
fast state -- fading, SINR, CQI -- is held once, as matrices of the
:class:`ChannelModel`; a :class:`UeChannel` keeps what is per UE and slow.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.phy.bessel import j0
from repro.phy.cqi import CqiTable
from repro.phy.mobility import MobilityModel
from repro.phy.numerology import RadioGrid
from repro.phy.scenarios import ChannelScenario

BOLTZMANN_NOISE_DBM_HZ = -174.0


def pathloss_db(distance_m: float) -> float:
    """3GPP urban-macro path loss (TR 36.942) for ``distance_m`` >= 10 m."""
    d_km = max(distance_m, 10.0) / 1000.0
    return 128.1 + 37.6 * math.log10(d_km)


class _Ar1Fader:
    """Gauss-Markov complex Rayleigh fader with Jakes autocorrelation."""

    def __init__(
        self, shape: tuple[int, ...], doppler_hz: float, rng: np.random.Generator
    ) -> None:
        self.shape = shape
        self.doppler_hz = doppler_hz
        self._rng = rng
        self._state = self._draw(math.sqrt(0.5))

    def _draw(self, scale: float) -> np.ndarray:
        # Real part first, then imaginary: the order is part of every seed.
        real = self._rng.normal(scale=scale, size=self.shape)
        return real + 1j * self._rng.normal(scale=scale, size=self.shape)

    def advance(self, dt_s: float) -> np.ndarray:
        """Step the process by ``dt_s`` and return the power gains."""
        rho = min(max(j0(2 * np.pi * self.doppler_hz * dt_s), 0.0), 0.9999)
        self._state = rho * self._state + self._draw(
            math.sqrt((1.0 - rho * rho) * 0.5)
        )
        return np.abs(self._state) ** 2


class UeChannel:
    """What is per UE and slow: position, shadowing and the average SINR.

    The per-sub-band SINR and CQI are rows of the owning
    :class:`ChannelModel`'s matrices, handed out as read-only views.
    """

    def __init__(
        self,
        model: "ChannelModel",
        index: int,
        ue_id: int,
        mobility: MobilityModel,
        shadowing_db: float,
    ) -> None:
        self._model = model
        self._index = index
        self.ue_id = ue_id
        self.mobility = mobility
        self.shadowing_db = shadowing_db

    def mean_sinr_db(self) -> float:
        """Distance-based average SINR before fast fading.

        With ``scenario.neighbor_cells`` set, the denominator is explicit
        interference-plus-noise from the neighboring masts at the UE's
        position; otherwise a static interference margin is used.
        """
        scenario = self._model.scenario
        distance = self.mobility.distance_m()
        noise_dbm = (
            BOLTZMANN_NOISE_DBM_HZ
            + 10 * math.log10(self._model.grid.bandwidth_hz)
            + scenario.noise_figure_db
        )
        rx_dbm = scenario.tx_power_dbm - pathloss_db(distance) - self.shadowing_db
        if scenario.neighbor_cells:
            from repro.phy.interference import sinr_db_with_interference

            sinr = sinr_db_with_interference(
                rx_dbm,
                noise_dbm,
                self.mobility.position(),
                scenario.neighbor_cells,
                scenario.tx_power_dbm,
                scenario.neighbor_activity,
            )
        else:
            sinr = rx_dbm - noise_dbm - scenario.interference_margin_db
        return float(min(max(sinr, scenario.sinr_floor_db), scenario.sinr_cap_db))

    def _row(self, matrix: np.ndarray) -> np.ndarray:
        row = matrix[self._index]
        row.flags.writeable = False
        return row

    @property
    def subband_sinr_db(self) -> np.ndarray:
        """Latest per-sub-band SINR in dB."""
        return self._row(self._model._sinr_db)

    @property
    def reported_cqi(self) -> np.ndarray:
        """Latest per-sub-band CQI report, shape ``(num_subbands,)``."""
        return self._row(self._model._cqi)


class ChannelModel:
    """The cell's radio state and per-TTI rate oracle for all its UEs."""

    _MOBILITY_REFRESH_S = 0.1

    def __init__(
        self,
        grid: RadioGrid,
        scenario: ChannelScenario,
        seed: int = 0,
        cqi_table: Optional[CqiTable] = None,
    ) -> None:
        self.grid = grid
        self.scenario = scenario
        self.cqi_table = cqi_table or CqiTable(use_256qam=scenario.use_256qam)
        self._rng = np.random.default_rng(seed)
        self.ue_channels: list[UeChannel] = []
        # The only copy of the per-UE radio state: one row per UE.
        self._mean_sinr = np.empty(0)
        self._sinr_db = np.empty((0, grid.num_subbands))
        self._cqi = np.empty((0, grid.num_subbands), dtype=np.int64)
        # While UEs are being added the three are views of these buffers,
        # which double when full: U calls copy O(U) rows, not O(U^2).
        self._room: Optional[tuple[np.ndarray, ...]] = None
        # Cell-wide fader, built at the first update_all after an add_ue.
        self._fader: Optional[_Ar1Fader] = None
        self._last_update_s = 0.0
        self._last_mobility_s = 0.0
        self._rb_bands = np.arange(grid.num_rbs) // grid.subband_rbs

    def add_ue(self, ue_id: int) -> UeChannel:
        """Create the channel state for a new UE at a random position.

        Its row starts flat at the average SINR; the fader is redrawn for
        the new UE count at the next :meth:`update_all`.
        """
        mobility = self.scenario.make_mobility(self._rng)
        # The UE's seed is one draw of the model stream, its shadowing the
        # first normal of that seed: both are part of every fingerprint.
        shadowing_db = np.random.default_rng(self._rng.integers(2**63)).normal(
            scale=self.scenario.shadowing_std_db
        )
        index = len(self.ue_channels)
        channel = UeChannel(self, index, ue_id, mobility, shadowing_db)
        self.ue_channels.append(channel)
        room = self._room
        if room is None or index == len(room[0]):
            room = self._room = tuple(
                np.concatenate(
                    [rows, np.empty((max(index, 8), *rows.shape[1:]), rows.dtype)]
                )
                for rows in (self._mean_sinr, self._sinr_db, self._cqi)
            )
        means, sinr_db, cqi = room
        means[index] = sinr_db[index] = channel.mean_sinr_db()
        cqi[index] = self.cqi_table.from_sinr_db(sinr_db[index])
        self._mean_sinr, self._sinr_db, self._cqi = (
            rows[: index + 1] for rows in room
        )
        self._fader = None
        return channel

    def update_all(self, now_s: float) -> None:
        """Advance every UE's channel to ``now_s`` (CQI reporting instant).

        The whole cell advances in one step: one complex matrix update for
        all UEs and sub-bands.  Mobility and path loss are refreshed at a
        coarser cadence (``_MOBILITY_REFRESH_S``) -- positions move
        centimetres between CQI reports, far below the path-loss
        resolution.
        """
        if self._fader is None:
            self._fader = _Ar1Fader(
                self._cqi.shape, self.scenario.doppler_hz(), self._rng
            )
            self._last_update_s = self._last_mobility_s = now_s
            self._room = None  # the steps below replace what it backs
            return
        dt = now_s - self._last_update_s
        if dt <= 0:
            return
        self._last_update_s = now_s
        # The fading noise is drawn before the mobility refresh: the random
        # walks share the model stream.
        gains = self._fader.advance(dt)
        elapsed = now_s - self._last_mobility_s
        if elapsed >= self._MOBILITY_REFRESH_S:
            self._last_mobility_s = now_s
            for i, channel in enumerate(self.ue_channels):
                channel.mobility.advance(elapsed)
                self._mean_sinr[i] = channel.mean_sinr_db()
        self._sinr_db = self._mean_sinr[:, None] + 10.0 * np.log10(
            np.maximum(gains, 1e-4)
        )
        self._cqi = self.cqi_table.from_sinr_db(self._sinr_db)

    def rate_matrix_bits(self) -> np.ndarray:
        """Achievable bits per RB per TTI, shape ``(num_ues, num_rbs)``.

        This is the ``r_{u,b}(t)`` of the paper's eq. (1): what the xNodeB
        believes each UE could carry on each RB this TTI, derived from the
        latest CQI reports.  C-contiguous, the layout the per-TTI metric
        arithmetic and the compiled owner kernels read.
        """
        per_band_bits = self.cqi_table.efficiencies(self._cqi) * (
            self.grid.data_re_per_rb()
        )
        # Expand sub-bands to RBs.
        return np.take(per_band_bits, self._rb_bands, axis=1)

    def cqi_matrix(self) -> np.ndarray:
        """Per-RB CQI, shape ``(num_ues, num_rbs)``."""
        return np.take(self._cqi, self._rb_bands, axis=1)
