"""Fading channel model producing per-sub-band SINR and CQI reports.

What the schedulers under study react to is the *time- and
frequency-selective* variation of each UE's achievable rate, reported as
per-sub-band CQI.  We model, per UE:

* **Large-scale**: 3GPP urban-macro path loss ``128.1 + 37.6 log10(d_km)``
  plus log-normal shadowing, driven by a mobility model.
* **Small-scale**: Rayleigh fading per sub-band.  Two generators are
  provided -- the classic Jakes/Clarke sum-of-sinusoids model (reference)
  and a first-order Gauss-Markov (AR1) process with the matching Doppler
  autocorrelation ``J0(2*pi*fd*dt)`` (default: ~10x faster, statistically
  equivalent at the CQI reporting granularity).

Sub-bands fade independently, which models frequency-selective fading at
the granularity the xNodeB actually sees (sub-band CQI reports).
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


class _JakesFader:
    """Clarke/Jakes sum-of-sinusoids Rayleigh fader for ``n_bands`` bands."""

    def __init__(
        self, n_bands: int, doppler_hz: float, rng: np.random.Generator, n_osc: int = 8
    ) -> None:
        self.n_bands = n_bands
        self.doppler_hz = max(doppler_hz, 1e-3)
        k = np.arange(n_osc)
        # Independent arrival angles and phases per band give independent
        # (frequency-selective) fading across sub-bands.
        self._angles = rng.uniform(0.0, 2 * np.pi, size=(n_bands, n_osc))
        self._phases = rng.uniform(0.0, 2 * np.pi, size=(n_bands, n_osc))
        self._weights = np.sqrt(1.0 / n_osc)
        self._freqs = self.doppler_hz * np.cos(2 * np.pi * (k + 0.5) / (4 * n_osc))

    def gains(self, times_s: np.ndarray) -> np.ndarray:
        """Power gains, shape ``(len(times_s), n_bands)``, mean ~1."""
        # phase[t, band, osc] = 2*pi*f_osc*t*cos(angle) + phi
        arg = (
            2 * np.pi * self._freqs[None, None, :] * times_s[:, None, None]
            * np.cos(self._angles)[None, :, :]
            + self._phases[None, :, :]
        )
        h = self._weights * (np.cos(arg).sum(axis=2) + 1j * np.sin(arg).sum(axis=2))
        return np.abs(h) ** 2


class _Ar1Fader:
    """Gauss-Markov complex Rayleigh fader with Jakes autocorrelation."""

    def __init__(
        self, n_bands: int, doppler_hz: float, rng: np.random.Generator
    ) -> None:
        self.n_bands = n_bands
        self.doppler_hz = max(doppler_hz, 1e-3)
        self._rng = rng
        scale = math.sqrt(0.5)
        self._state = rng.normal(scale=scale, size=n_bands) + 1j * rng.normal(
            scale=scale, size=n_bands
        )

    def advance(self, dt_s: float) -> np.ndarray:
        """Step the process by ``dt_s`` and return per-band power gains."""
        rho = min(max(j0(2 * np.pi * self.doppler_hz * dt_s), 0.0), 0.9999)
        sigma = math.sqrt((1.0 - rho * rho) * 0.5)
        noise = self._rng.normal(scale=sigma, size=self.n_bands) + 1j * self._rng.normal(
            scale=sigma, size=self.n_bands
        )
        self._state = rho * self._state + noise
        return np.abs(self._state) ** 2


class UeChannel:
    """Per-UE channel state: average SINR plus per-sub-band fast fading."""

    def __init__(
        self,
        ue_id: int,
        grid: RadioGrid,
        scenario: ChannelScenario,
        mobility: MobilityModel,
        rng: np.random.Generator,
        cqi_table: CqiTable,
    ) -> None:
        self.ue_id = ue_id
        self.grid = grid
        self.scenario = scenario
        self.mobility = mobility
        self._rng = rng
        self._cqi_table = cqi_table
        self.shadowing_db = rng.normal(scale=scenario.shadowing_std_db)
        n_bands = grid.num_subbands
        doppler = scenario.doppler_hz(carrier_hz=scenario.carrier_hz)
        if scenario.fading == "jakes":
            self._fader: object = _JakesFader(n_bands, doppler, rng)
        else:
            self._fader = _Ar1Fader(n_bands, doppler, rng)
        self._last_update_s: Optional[float] = None
        self._sinr_db = np.full(n_bands, self.mean_sinr_db())
        self._reported_cqi = cqi_table.from_sinr_db(self._sinr_db)

    def mean_sinr_db(self) -> float:
        """Distance-based average SINR before fast fading.

        With ``scenario.neighbor_cells`` set, the denominator is explicit
        interference-plus-noise from the neighboring masts at the UE's
        position; otherwise a static interference margin is used.
        """
        distance = self.mobility.distance_m()
        noise_dbm = (
            BOLTZMANN_NOISE_DBM_HZ
            + 10 * math.log10(self.grid.bandwidth_hz)
            + self.scenario.noise_figure_db
        )
        rx_dbm = self.scenario.tx_power_dbm - pathloss_db(distance) - self.shadowing_db
        if self.scenario.neighbor_cells:
            from repro.phy.interference import sinr_db_with_interference

            sinr = sinr_db_with_interference(
                rx_dbm,
                noise_dbm,
                self.mobility.position(),
                self.scenario.neighbor_cells,
                self.scenario.tx_power_dbm,
                self.scenario.neighbor_activity,
            )
        else:
            sinr = rx_dbm - noise_dbm - self.scenario.interference_margin_db
        return float(np.clip(sinr, self.scenario.sinr_floor_db, self.scenario.sinr_cap_db))

    def update(self, now_s: float) -> None:
        """Advance fading (and mobility-driven path loss) to ``now_s``."""
        if self._last_update_s is None:
            dt = self.scenario.cqi_period_s
        else:
            dt = now_s - self._last_update_s
            if dt <= 0:
                return
        self._last_update_s = now_s
        self.mobility.advance(dt)
        if isinstance(self._fader, _Ar1Fader):
            gains = self._fader.advance(dt)
        else:
            gains = self._fader.gains(np.array([now_s]))[0]
        gains = np.maximum(gains, 1e-4)
        self._sinr_db = self.mean_sinr_db() + 10.0 * np.log10(gains)
        self._reported_cqi = self._cqi_table.from_sinr_db(self._sinr_db)

    @property
    def subband_sinr_db(self) -> np.ndarray:
        """Latest per-sub-band SINR in dB."""
        return self._sinr_db

    @property
    def reported_cqi(self) -> np.ndarray:
        """Latest per-sub-band CQI report, shape ``(num_subbands,)``."""
        return self._reported_cqi

    def wideband_cqi(self) -> int:
        """Single wideband CQI (mean sub-band report, rounded down)."""
        return int(np.floor(self._reported_cqi.mean()))


class ChannelModel:
    """Factory and per-TTI rate oracle for all UEs in a cell."""

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
        # Vectorized AR1 fading state (built lazily on first update_all).
        self._state: Optional[np.ndarray] = None
        self._mean_sinr: Optional[np.ndarray] = None
        self._last_vec_update_s = 0.0
        self._last_mobility_s = 0.0
        self._rb_band_index: Optional[np.ndarray] = None

    def _rb_bands(self) -> np.ndarray:
        if self._rb_band_index is None:
            self._rb_band_index = (
                np.arange(self.grid.num_rbs) // self.grid.subband_rbs
            )
        return self._rb_band_index

    def add_ue(self, ue_id: int) -> UeChannel:
        """Create the channel state for a new UE at a random position."""
        mobility = self.scenario.make_mobility(self._rng)
        channel = UeChannel(
            ue_id,
            self.grid,
            self.scenario,
            mobility,
            np.random.default_rng(self._rng.integers(2**63)),
            self.cqi_table,
        )
        self.ue_channels.append(channel)
        return channel

    def update_all(self, now_s: float) -> None:
        """Advance every UE's channel to ``now_s`` (CQI reporting instant).

        When the scenario uses the AR1 fader, the whole cell advances in
        one vectorized step (one complex matrix update for all UEs and
        sub-bands); the Jakes path falls back to per-UE updates.  Mobility
        and path loss are refreshed at a coarser cadence
        (``_MOBILITY_REFRESH_S``) -- positions move centimetres between
        CQI reports, far below the path-loss resolution.
        """
        if self.scenario.fading != "ar1" or not self.ue_channels:
            for channel in self.ue_channels:
                channel.update(now_s)
            return
        self._update_all_vectorized(now_s)

    _MOBILITY_REFRESH_S = 0.1

    def _update_all_vectorized(self, now_s: float) -> None:
        num_ues = len(self.ue_channels)
        n_bands = self.grid.num_subbands
        if self._state is None or self._state.shape[0] != num_ues:
            scale = math.sqrt(0.5)
            self._state = self._rng.normal(
                scale=scale, size=(num_ues, n_bands)
            ) + 1j * self._rng.normal(scale=scale, size=(num_ues, n_bands))
            self._mean_sinr = np.array(
                [ch.mean_sinr_db() for ch in self.ue_channels]
            )
            self._last_vec_update_s = now_s
            self._last_mobility_s = now_s
        dt = now_s - self._last_vec_update_s
        if dt <= 0:
            return
        self._last_vec_update_s = now_s
        doppler = self.scenario.doppler_hz()
        rho = min(max(j0(2 * np.pi * doppler * dt), 0.0), 0.9999)
        sigma = math.sqrt((1.0 - rho * rho) * 0.5)
        noise = self._rng.normal(
            scale=sigma, size=(num_ues, n_bands)
        ) + 1j * self._rng.normal(scale=sigma, size=(num_ues, n_bands))
        self._state = rho * self._state + noise
        if now_s - self._last_mobility_s >= self._MOBILITY_REFRESH_S:
            elapsed = now_s - self._last_mobility_s
            self._last_mobility_s = now_s
            for i, channel in enumerate(self.ue_channels):
                channel.mobility.advance(elapsed)
                self._mean_sinr[i] = channel.mean_sinr_db()
        gains = np.maximum(np.abs(self._state) ** 2, 1e-4)
        sinr = self._mean_sinr[:, None] + 10.0 * np.log10(gains)
        cqi = self.cqi_table.from_sinr_db(sinr)
        for i, channel in enumerate(self.ue_channels):
            channel._sinr_db = sinr[i]
            channel._reported_cqi = cqi[i]
            channel._last_update_s = now_s

    def rate_matrix_bits(self) -> np.ndarray:
        """Achievable bits per RB per TTI, shape ``(num_ues, num_rbs)``.

        This is the ``r_{u,b}(t)`` of the paper's eq. (1): what the xNodeB
        believes each UE could carry on each RB this TTI, derived from the
        latest CQI reports.
        """
        if not self.ue_channels:
            return np.zeros((0, self.grid.num_rbs))
        cqi = np.stack([ch.reported_cqi for ch in self.ue_channels])
        eff = self.cqi_table.efficiencies(cqi)  # (U, subbands)
        re_per_rb = self.grid.data_re_per_rb()
        per_band_bits = eff * re_per_rb
        # Expand sub-bands to RBs.
        return per_band_bits[:, self._rb_bands()]

    def cqi_matrix(self) -> np.ndarray:
        """Per-RB CQI, shape ``(num_ues, num_rbs)``."""
        if not self.ue_channels:
            return np.zeros((0, self.grid.num_rbs), dtype=np.int64)
        cqi = np.stack([ch.reported_cqi for ch in self.ue_channels])
        return cqi[:, self._rb_bands()]
