"""Inter-user flow scheduling: the epsilon-relaxed re-selection pass.

Algorithm 1 (Appendix A): for each RB, after the legacy scheduler finds
the best per-RB metric ``m_max``, consider every user within
``(1 - eps) * m_max`` a *primary candidate* and, among candidates, hand
the RB to the user whose head flow has the highest MLFQ priority (lowest
level).  The relaxation guarantees at least ``1 - eps`` of the legacy
metric on every RB while opening ``|eps|`` of room for SJF; the candidate
set naturally condenses when users' metrics are heterogeneous (Figure 6).

These functions are vectorized over the whole TTI: ``metric`` is users x
RBs, ``levels`` the per-user head MLFQ level from the buffer status
reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mac.bsr import IDLE_LEVEL


def head_levels(levels: Sequence[Optional[int]]) -> np.ndarray:
    """Vector of per-user head levels with ``None`` mapped to idle."""
    return np.array(
        [IDLE_LEVEL if level is None else level for level in levels], dtype=np.int64
    )


def relaxed_candidates(
    metric: np.ndarray, active: np.ndarray, epsilon: float
) -> np.ndarray:
    """Boolean candidate mask ``(users, rbs)`` per Algorithm 1 line 12.

    A user is a candidate for an RB when it is active and its metric is at
    least ``(1 - eps)`` of that RB's maximum.  The argmax user always
    qualifies (floating-point scaling is guarded with a tiny tolerance so
    ``eps = 0`` degenerates to exactly the legacy selection).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1]: {epsilon}")
    masked = np.where(active[:, None], metric, -np.inf)
    m_max = masked.max(axis=0)
    cutoff = (1.0 - epsilon) * m_max
    # Guard the degenerate cases: negative/zero maxima (cutoff direction
    # flips for negative numbers) and exact-equality jitter at eps = 0.
    tolerance = np.abs(m_max) * 1e-12
    eligible = masked >= np.where(m_max >= 0, cutoff - tolerance, m_max - tolerance)
    eligible &= np.isfinite(masked)
    return eligible


def _reselect(
    metric: np.ndarray, eligible: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Per RB: lowest head level among candidates, best metric within it."""
    cand_levels = np.where(eligible, levels[:, None], IDLE_LEVEL + 1)
    best_level = cand_levels.min(axis=0)
    tie_metric = np.where(cand_levels == best_level[None, :], metric, -np.inf)
    owner = tie_metric.argmax(axis=0).astype(np.int64)
    owner[~eligible.any(axis=0)] = -1
    return owner


def reselect_users(
    metric: np.ndarray,
    active: np.ndarray,
    levels: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Full Algorithm 1: per-RB owner after the relaxed re-selection.

    Among each RB's candidates, the user with the *lowest* head MLFQ level
    (i.e. shortest flow so far) wins; ties keep the best-metric candidate,
    which preserves the most spectral efficiency among equally short
    choices.  Returns ``owner`` of shape ``(rbs,)`` with -1 where no
    active user exists.
    """
    num_rbs = metric.shape[1]
    if metric.shape[0] == 0 or not active.any():
        return np.full(num_rbs, -1, dtype=np.int64)
    return _reselect(metric, relaxed_candidates(metric, active, epsilon), levels)


def top_k_candidates(metric: np.ndarray, active: np.ndarray, k: int) -> np.ndarray:
    """Alternative candidate rule the paper argues against (section 4.3).

    Always admits the top-``k`` metric users per RB regardless of how far
    apart their metrics are, so it cannot condense under heterogeneous
    channel distributions.  Used by the Figure 8 ablation.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1: {k}")
    masked = np.where(active[:, None], metric, -np.inf)
    num_users = metric.shape[0]
    if num_users == 0:
        return np.zeros_like(metric, dtype=bool)
    k = min(k, num_users)
    # Indices of the k best users per RB.
    order = np.argsort(-masked, axis=0, kind="stable")[:k]
    eligible = np.zeros_like(masked, dtype=bool)
    eligible[order, np.arange(metric.shape[1])[None, :]] = True
    eligible &= np.isfinite(masked)
    return eligible


def reselect_users_top_k(
    metric: np.ndarray,
    active: np.ndarray,
    levels: np.ndarray,
    k: int,
) -> np.ndarray:
    """Owner vector under the top-K candidate rule (Figure 8 ablation)."""
    num_rbs = metric.shape[1]
    if metric.shape[0] == 0 or not active.any():
        return np.full(num_rbs, -1, dtype=np.int64)
    return _reselect(metric, top_k_candidates(metric, active, k), levels)
