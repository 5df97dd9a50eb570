"""MLFQ demotion-threshold selection (PIAS-style optimization).

Section 4.2: the paper solves the PIAS threshold optimization with SciPy's
global optimization toolbox.  We reproduce that: given a flow-size
distribution and an offered load, pick the K-1 thresholds that minimize an
analytical mean-FCT model of strict-priority M/G/1 queueing:

* A flow of size ``x`` contributes its first ``alpha_1`` bytes to queue 1,
  the next ``alpha_2 - alpha_1`` bytes to queue 2, and so on.
* Queue ``i`` is served only when queues ``1..i-1`` are empty, so the
  normalized delay of bytes in queue ``i`` scales as
  ``1 / ((1 - rho_{<i}) * (1 - rho_{<=i}))`` (the standard priority-queue
  mean-delay form), where ``rho_{<i}`` is the load of the queues above.
* A flow finishes when its last byte leaves, i.e. in the queue its total
  size lands in, so its FCT sums the per-queue service terms up to there.

This matches the PIAS formulation closely enough to reproduce its
qualitative behaviour: thresholds track the distribution's knees and the
gain plateaus beyond K = 4 queues (paper parameter-choice note).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def geometric_thresholds(
    first_bytes: int = 20_000, factor: float = 5.0, num_queues: int = 4
) -> tuple[int, ...]:
    """Simple geometric threshold ladder, a robust default."""
    if first_bytes <= 0:
        raise ValueError(f"first threshold must be positive: {first_bytes}")
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1: {factor}")
    return tuple(int(first_bytes * factor**i) for i in range(num_queues - 1))


def mean_fct_model(
    thresholds: Sequence[float], sizes: np.ndarray, load: float
) -> float:
    """Analytical normalized mean FCT for the given thresholds.

    ``sizes`` is a sample of flow sizes (bytes); ``load`` the offered load
    in (0, 1).  A flow finishing in priority class ``j`` experiences the
    M/G/1 strict-priority mean waiting time of class ``j`` (residual work
    of classes ``1..j`` over the idle fractions, the standard
    Cobham/PIAS form) plus the stretched transmission of each of its byte
    chunks.  Returned in units of ``bytes / C`` -- only relative
    comparisons matter for the optimizer.
    """
    if not 0.0 < load < 1.0:
        raise ValueError(f"load must be in (0, 1): {load}")
    alphas = np.concatenate([[0.0], np.asarray(thresholds, dtype=float), [np.inf]])
    if np.any(np.diff(alphas) <= 0):
        return np.inf
    sizes = np.asarray(sizes, dtype=float)
    mean_size = sizes.mean()
    lam = load / mean_size  # arrivals per unit time, C = 1 byte/time
    # Bytes each flow contributes to each priority class.
    per_queue = np.clip(
        np.minimum(sizes[:, None], alphas[None, 1:])
        - np.minimum(sizes[:, None], alphas[None, :-1]),
        0.0,
        None,
    )  # (flows, queues)
    rho_i = load * per_queue.mean(axis=0) / mean_size
    rho_upto = np.minimum(np.cumsum(rho_i), 0.999999)
    rho_above = np.concatenate([[0.0], rho_upto[:-1]])
    # Residual work rate of class i: lambda_i * E[S_i^2] / 2, with the
    # class-i service time being the flow's chunk in that class.
    residual_i = lam * (per_queue**2).mean(axis=0) / 2.0
    residual_upto = np.cumsum(residual_i)
    wait_i = residual_upto / np.maximum(
        (1.0 - rho_above) * (1.0 - rho_upto), 1e-9
    )
    # Transmission of each chunk is stretched by higher-priority work.
    stretch_i = 1.0 / np.maximum(1.0 - rho_above, 1e-9)
    finish_class = np.argmax(
        np.where(per_queue > 0, np.arange(per_queue.shape[1])[None, :], -1),
        axis=1,
    )
    fct = (per_queue * stretch_i[None, :]).sum(axis=1) + wait_i[finish_class]
    return float(fct.mean())


def optimize_thresholds(
    sizes: np.ndarray,
    num_queues: int = 4,
    load: float = 0.6,
    seed: int = 0,
    maxiter: int = 60,
) -> tuple[int, ...]:
    """Find good MLFQ thresholds for a flow-size sample via global search.

    Uses differential evolution over log-spaced thresholds (the search
    space spans several decades), then sorts and rounds the result.  No
    gradient polish: finite differences across the model's ``inf`` for
    tied thresholds give ``inf - inf``, a NaN gradient.
    """
    from scipy import optimize

    sizes = np.asarray(sizes, dtype=float)
    if sizes.size == 0:
        raise ValueError("need a non-empty flow-size sample")
    if num_queues < 2:
        return ()
    lo = max(np.percentile(sizes, 1), 200.0)
    hi = max(np.percentile(sizes, 99.9) * 4, lo * 10)
    bounds = [(np.log10(lo), np.log10(hi))] * (num_queues - 1)

    def objective(log_thresholds: np.ndarray) -> float:
        thresholds = np.sort(10.0**log_thresholds)
        return mean_fct_model(thresholds, sizes, load)

    result = optimize.differential_evolution(
        objective,
        bounds,
        seed=seed,
        maxiter=maxiter,
        tol=1e-4,
        polish=False,
    )
    thresholds = np.sort(10.0 ** np.asarray(result.x))
    # De-duplicate after rounding: equal thresholds would make a queue dead.
    out: list[int] = []
    for value in thresholds:
        candidate = int(round(value))
        if out and candidate <= out[-1]:
            candidate = out[-1] + 1
        out.append(candidate)
    return tuple(out)
