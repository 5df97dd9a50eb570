"""Flow-size distributions used throughout the paper's evaluation.

* ``LTE_CELLULAR`` -- downlink TCP flow sizes measured at real-world LTE
  eNodeBs by Huang et al. [41] (Figure 2a): strongly heavy-tailed, 90% of
  flows below 35.9 KB while heavy hitters carry most bytes.  Used for all
  LTE simulations and the Colosseum experiments.
* ``MIRAGE_MOBILE_APP`` -- the more recent mobile-app capture of Aceto et
  al. [12], used for the paper's 5G simulations (Figure 20).
* ``WEBSEARCH`` -- the DCTCP web-search workload [13] (the paper quotes a
  1.92 MB mean), used as the heavy *background* traffic in the testbed
  PLT experiments.

The original CDFs are published as plots; the control points below are
digitized to match the documented anchors (e.g. the 35.9 KB / 90th
percentile point) and the reported means.  Sampling is inverse-transform
with log-linear interpolation between control points, which preserves the
heavy tail.  The extreme tail is truncated (at 10, 12 and 30 MB) so that
the load a finite simulation realizes matches the nominal load (an
untruncated 30 MB+ tail makes the sample mean of a few-thousand-flow run
swing tens of percent around the distribution mean; the paper's 10 K-flow
runs average this out).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np


class EmpiricalDistribution:
    """Inverse-transform sampler over a piecewise log-linear CDF."""

    def __init__(
        self, name: str, points: Sequence[tuple[float, float]], mean: float
    ) -> None:
        """``points`` are (size_bytes, cdf) pairs, strictly increasing in
        both coordinates, ending at cdf = 1.0; ``mean`` is the table's
        mean flow size in bytes (see :meth:`mean`)."""
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [p[0] for p in points]
        probs = [p[1] for p in points]
        if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
            raise ValueError(f"sizes must be strictly increasing: {sizes}")
        if probs != sorted(probs) or len(set(probs)) != len(probs):
            raise ValueError(f"CDF must be strictly increasing: {probs}")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError(f"CDF must end at 1.0, got {probs[-1]}")
        if probs[0] < 0.0:
            raise ValueError(f"CDF must start >= 0, got {probs[0]}")
        self.name = name
        self._log_sizes = np.log(np.asarray(sizes, dtype=float))
        self._probs = np.asarray(probs, dtype=float)
        self._sizes = np.asarray(sizes, dtype=float)
        self._mean = mean

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` flow sizes in bytes (integer, >= 1).

        The mass below the first control point is treated as an atom at
        that point, so empirical quantiles match :meth:`quantile` exactly
        above the first point.
        """
        u = np.maximum(rng.uniform(0.0, 1.0, size=n), self._probs[0])
        log_size = np.interp(u, self._probs, self._log_sizes)
        return np.maximum(np.exp(log_size), 1.0).astype(np.int64)

    def cdf(self, size_bytes: float) -> float:
        """P(flow size <= size_bytes)."""
        if size_bytes <= self._sizes[0]:
            return float(self._probs[0])
        if size_bytes >= self._sizes[-1]:
            return 1.0
        return float(
            np.interp(np.log(size_bytes), self._log_sizes, self._probs)
        )

    def quantile(self, p: float) -> float:
        """Inverse CDF in bytes."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1]: {p}")
        p = max(p, float(self._probs[0]))
        return float(np.exp(np.interp(p, self._probs, self._log_sizes)))

    def quantiles(self, p: np.ndarray) -> np.ndarray:
        """Vectorized inverse CDF in bytes (values clamped into [0, 1])."""
        p = np.clip(np.asarray(p, dtype=float), float(self._probs[0]), 1.0)
        return np.maximum(
            np.exp(np.interp(p, self._probs, self._log_sizes)), 1.0
        ).astype(np.int64)

    def sample_stratified(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` sizes by stratified inverse-transform sampling.

        One uniform is drawn inside each of ``n`` equal probability strata
        and the strata are shuffled.  The marginal distribution is the
        same as :meth:`sample`, but the *sum* of a draw concentrates
        tightly around ``n * mean`` -- so a finite workload realizes its
        nominal offered load instead of swinging tens of percent on the
        luck of the heavy tail (the paper's 10 K-flow runs average this
        out by brute force).
        """
        if n <= 0:
            return np.zeros(0, dtype=np.int64)
        u = (rng.permutation(n) + rng.uniform(0.0, 1.0, size=n)) / n
        return self.quantiles(u)

    def mean(self) -> float:
        """Mean flow size in bytes: the table's pinned value.

        Each named table pins the exact mean of 200 000 :meth:`sample`
        draws at seed 12345 (integer sizes, so the sum is exact);
        ``tests/test_traffic.py`` re-derives every literal from that draw.
        """
        return self._mean


#: Huang et al. [41] LTE downlink TCP flows.  Anchors: median ~2.9 KB,
#: 90th percentile = 35.9 KB, heavy tail to tens of MB.
LTE_CELLULAR = EmpiricalDistribution(
    "lte_cellular",
    [
        (150, 0.05),
        (400, 0.15),
        (900, 0.30),
        (2_000, 0.45),
        (4_000, 0.58),
        (8_000, 0.70),
        (16_000, 0.80),
        (35_900, 0.90),
        (100_000, 0.952),
        (300_000, 0.978),
        (1_000_000, 0.991),
        (3_000_000, 0.9965),
        (10_000_000, 1.0),
    ],
    mean=51480.644295,
)

#: Aceto et al. [12] MIRAGE mobile-app traffic (2019): slightly smaller
#: short flows, comparable heavy tail.
MIRAGE_MOBILE_APP = EmpiricalDistribution(
    "mirage_mobile_app",
    [
        (100, 0.08),
        (300, 0.22),
        (700, 0.40),
        (1_500, 0.55),
        (3_500, 0.68),
        (8_000, 0.79),
        (20_000, 0.88),
        (60_000, 0.94),
        (200_000, 0.972),
        (800_000, 0.989),
        (3_000_000, 0.9962),
        (12_000_000, 1.0),
    ],
    mean=52965.940995,
)

#: DCTCP web-search [13]: the paper's heavy background workload (the
#: paper's average flow is 1.92 MB; this truncated table's is 1.81 MB).
WEBSEARCH = EmpiricalDistribution(
    "websearch",
    [
        (6_000, 0.15),
        (13_000, 0.30),
        (19_000, 0.40),
        (33_000, 0.53),
        (133_000, 0.60),
        (667_000, 0.70),
        (1_330_000, 0.75),
        (3_330_000, 0.855),
        (10_000_000, 0.95),
        (30_000_000, 1.0),
    ],
    mean=1813348.29385,
)

_BY_NAME = {
    dist.name: dist for dist in (LTE_CELLULAR, MIRAGE_MOBILE_APP, WEBSEARCH)
}


def distribution_by_name(name: str) -> EmpiricalDistribution:
    """Look up one of the paper's distributions by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown distribution {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
