"""Statistical validation of the simulator's stochastic models.

Production users of a simulator need evidence its random substrates
behave as specified.  These validators quantify:

* **Rayleigh fading power**: the per-sub-band power gain of the cell's
  fader must be exponentially distributed with unit mean (|h|^2 of a
  complex Gaussian).
* **Doppler autocorrelation**: the fading process's autocorrelation at
  lag tau must track the Jakes spectrum's J0(2*pi*fd*tau).
* **Poisson arrivals**: exponential inter-arrival times at the
  configured rate.

Each check returns a :class:`ValidationReport` with the measured
statistic, the theoretical target, and a pass flag at the given
tolerance.  The test suite runs them; they are also usable directly when
tuning new scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.bessel import j0


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one statistical check."""

    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"[{flag}] {self.name}: measured {self.measured:.4f}, "
            f"expected {self.expected:.4f} (tol {self.tolerance}) {self.detail}"
        )


def validate_rayleigh_power(
    gains: np.ndarray, alpha: float = 0.01
) -> ValidationReport:
    """KS-test the power gains against Exp(1) (Rayleigh power).

    ``gains`` is any array of per-sample power gains with mean ~1.
    Passing means the KS p-value exceeds ``alpha``.
    """
    from scipy import stats

    flat = np.asarray(gains, dtype=float).ravel()
    if flat.size < 100:
        raise ValueError(f"need >= 100 samples, got {flat.size}")
    # Normalize out estimation error in the mean before the shape test.
    statistic, p_value = stats.kstest(flat / flat.mean(), "expon")
    return ValidationReport(
        name="rayleigh_power_ks",
        measured=float(p_value),
        expected=1.0,
        tolerance=alpha,
        passed=bool(p_value > alpha),
        detail=f"KS statistic {statistic:.4f}, n={flat.size}",
    )


def validate_doppler_autocorrelation(
    series: np.ndarray,
    doppler_hz: float,
    dt_s: float,
    lag_steps: int = 1,
    tolerance: float = 0.15,
) -> ValidationReport:
    """Compare the complex-envelope autocorrelation with J0(2 pi fd tau).

    ``series`` is a 1-D complex fading series sampled every ``dt_s``.
    """
    series = np.asarray(series)
    if series.size < 1000:
        raise ValueError(f"need >= 1000 samples, got {series.size}")
    a = series[:-lag_steps]
    b = series[lag_steps:]
    measured = float(
        np.real(np.vdot(a - a.mean(), b - b.mean()))
        / np.sqrt(np.vdot(a - a.mean(), a - a.mean()).real
                  * np.vdot(b - b.mean(), b - b.mean()).real)
    )
    expected = j0(2 * np.pi * doppler_hz * dt_s * lag_steps)
    return ValidationReport(
        name="doppler_autocorrelation",
        measured=measured,
        expected=expected,
        tolerance=tolerance,
        passed=bool(abs(measured - expected) <= tolerance),
    )


def validate_poisson_arrivals(
    arrival_times_s: np.ndarray,
    rate_per_s: float,
    alpha: float = 0.01,
) -> ValidationReport:
    """KS-test inter-arrival gaps against Exp(rate)."""
    from scipy import stats

    times = np.sort(np.asarray(arrival_times_s, dtype=float))
    gaps = np.diff(times)
    if gaps.size < 50:
        raise ValueError(f"need >= 50 arrivals, got {gaps.size + 1}")
    statistic, p_value = stats.kstest(gaps * rate_per_s, "expon")
    return ValidationReport(
        name="poisson_arrivals_ks",
        measured=float(p_value),
        expected=1.0,
        tolerance=alpha,
        passed=bool(p_value > alpha),
        detail=f"n={gaps.size}, mean gap {gaps.mean():.4f}s "
        f"(expected {1 / rate_per_s:.4f}s)",
    )
