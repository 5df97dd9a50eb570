"""Property tests: owner kernels vs a naive per-RB Python loop.

The naive oracle below re-implements allocation semantics with scalar
Python floats (IEEE-754 doubles, the same arithmetic numpy and the
compiled loops perform), one RB at a time:

* plain argmax: first-index max over active users, -1 when the best
  metric is not finite,
* epsilon re-selection (Algorithm 1): threshold
  ``((m_max >= 0) ? (1-eps)*m_max : m_max) - |m_max|*1e-12``, then
  lowest head level among eligible users, best metric within the level,
  first index on exact metric ties.

The readable numpy references (`argmax_allocation` / `reselect_users`)
and the dispatchers (`plain_owner` / `epsilon_owner`) must match the
oracle exactly on the same inputs -- with the compiled C loops behind
the dispatchers, and with the library absent (the ``owner_kernel``
fixture runs every test both ways).

Kernel contract (documented in docs/ARCHITECTURE.md): metrics are never
NaN, and are finite or -inf.  Strategies honour it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inter_user import IDLE_LEVEL, reselect_users
from repro.mac.kernels import SchedArrays, as_table, epsilon_owner, plain_owner
from repro.mac.qos import CqaScheduler, ExpPfScheduler, MlwdfScheduler, PssScheduler
from repro.mac.scheduler import MIN_EWMA_BPS, UeSchedState, argmax_allocation

SEED_SETTINGS = dict(derandomize=True, deadline=None, max_examples=120)


# -- naive per-RB oracle ----------------------------------------------------


def naive_plain(metric, active):
    num_ues, num_rbs = metric.shape
    owner = []
    for b in range(num_rbs):
        best, best_u = -math.inf, 0
        for u in range(num_ues):
            m = metric[u][b] if active[u] else -math.inf
            if m > best:
                best, best_u = m, u
        owner.append(best_u if math.isfinite(best) else -1)
    return np.asarray(owner, dtype=np.int64)


def naive_epsilon(metric, active, levels, epsilon):
    num_ues, num_rbs = metric.shape
    owner = []
    for b in range(num_rbs):
        m_max = -math.inf
        for u in range(num_ues):
            if active[u] and metric[u][b] > m_max:
                m_max = metric[u][b]
        cutoff = m_max * (1.0 - epsilon) if m_max >= 0.0 else m_max
        thresh = cutoff - abs(m_max) * 1e-12
        eligible = [
            u for u in range(num_ues)
            if active[u] and metric[u][b] >= thresh
            and math.isfinite(metric[u][b])
        ]
        if not eligible:
            owner.append(-1)
            continue
        best_level = min(levels[u] for u in eligible)
        winner, winner_m = -1, -math.inf
        for u in eligible:
            if levels[u] == best_level and metric[u][b] > winner_m:
                winner, winner_m = u, metric[u][b]
        owner.append(winner)
    return np.asarray(owner, dtype=np.int64)


# -- strategies -------------------------------------------------------------

finite_metric = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
#: Small integer pool: forces exact metric ties, the argmax tie-break path.
tie_metric = st.integers(min_value=-3, max_value=3).map(float)
metric_value = st.one_of(finite_metric, tie_metric, st.just(-math.inf))


@st.composite
def problems(draw, with_levels=False):
    num_ues = draw(st.integers(min_value=1, max_value=12))
    num_rbs = draw(st.integers(min_value=1, max_value=16))
    values = draw(
        st.lists(metric_value, min_size=num_ues * num_rbs,
                 max_size=num_ues * num_rbs)
    )
    metric = np.asarray(values, dtype=np.float64).reshape(num_ues, num_rbs)
    active = np.asarray(
        draw(st.lists(st.booleans(), min_size=num_ues, max_size=num_ues)),
        dtype=bool,
    )
    if not with_levels:
        return metric, active
    levels = np.asarray(
        draw(st.lists(st.integers(min_value=0, max_value=5),
                      min_size=num_ues, max_size=num_ues)),
        dtype=np.int64,
    )
    levels[~active] = IDLE_LEVEL
    epsilon = draw(
        st.one_of(st.just(0.0), st.just(1.0),
                  st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False))
    )
    return metric, active, levels, epsilon


# -- plain argmax -----------------------------------------------------------


@pytest.mark.usefixtures("owner_kernel")
class TestPlainOwner:
    @settings(**SEED_SETTINGS)
    @given(problems())
    def test_all_tiers_match_naive_loop(self, problem):
        metric, active = problem
        expected = naive_plain(metric, active)
        assert np.array_equal(argmax_allocation(metric, active), expected)
        assert np.array_equal(plain_owner(metric, active), expected)
        # F-ordered input is never kernel-ready: same answer regardless.
        assert np.array_equal(
            plain_owner(np.asfortranarray(metric), active), expected
        )

    @settings(**SEED_SETTINGS)
    @given(problems())
    def test_inactive_users_never_win(self, problem):
        metric, active = problem
        owner = plain_owner(metric, active)
        for u in owner:
            assert u == -1 or active[u]


# -- epsilon re-selection ---------------------------------------------------


@pytest.mark.usefixtures("owner_kernel")
class TestEpsilonOwner:
    @settings(**SEED_SETTINGS)
    @given(problems(with_levels=True))
    def test_all_tiers_match_naive_loop(self, problem):
        metric, active, levels, epsilon = problem
        expected = naive_epsilon(metric, active, levels, epsilon)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(
                reselect_users(metric, active, levels, epsilon), expected
            )
            assert np.array_equal(
                epsilon_owner(metric, active, levels, epsilon), expected
            )
            assert np.array_equal(
                epsilon_owner(
                    np.asfortranarray(metric), active, levels, epsilon
                ),
                expected,
            )

    @settings(**SEED_SETTINGS)
    @given(problems(with_levels=True))
    def test_relaxation_invariants(self, problem):
        metric, active, levels, epsilon = problem
        with np.errstate(invalid="ignore"):
            owner = epsilon_owner(metric, active, levels, epsilon)
            plain = plain_owner(metric, active)
        for b, u in enumerate(owner):
            # Inactive users are excluded outright.
            assert u == -1 or active[u]
            if u < 0:
                continue
            # The plain argmax winner is always an eligible candidate
            # (its metric is m_max >= thresh), so re-selection can only
            # move an RB to an equal-or-lower (higher-priority) level.
            if plain[b] >= 0:
                assert levels[u] <= levels[plain[b]]

    @settings(**SEED_SETTINGS)
    @given(problems(with_levels=True))
    def test_epsilon_zero_keeps_argmax_tier(self, problem):
        metric, active, levels, _ = problem
        owner = epsilon_owner(metric, active, levels, 0.0)
        plain = plain_owner(metric, active)
        for b in range(metric.shape[1]):
            u, p = owner[b], plain[b]
            if u < 0 or p < 0:
                continue
            # At eps=0 only users within the 1e-12 tolerance of m_max are
            # candidates: the winner's metric matches the argmax metric
            # to within that tolerance.
            m_win, m_max = metric[u, b], metric[p, b]
            assert m_win >= (
                m_max * (1.0 - 0.0) if m_max >= 0 else m_max
            ) - abs(m_max) * 1e-12

    def test_epsilon_validated(self):
        metric = np.ones((2, 3))
        active = np.ones(2, dtype=bool)
        levels = np.zeros(2, dtype=np.int64)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                epsilon_owner(metric, active, levels, bad)


# -- batched EWMA update ----------------------------------------------------


class TestUpdateEwma:
    @settings(**SEED_SETTINGS)
    @given(
        st.lists(st.floats(min_value=MIN_EWMA_BPS, max_value=1e10,
                           allow_nan=False),
                 min_size=1, max_size=16),
        st.lists(st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
                 min_size=1, max_size=16),
        st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
    )
    def test_matches_scalar_loop(self, ewma, bits, beta):
        n = min(len(ewma), len(bits))
        ewma, bits = ewma[:n], bits[:n]
        keep, scale = 1.0 - beta, beta * 1e6 / 1000
        arrays = SchedArrays(n)
        arrays.ewma_bps[:] = ewma
        arrays.update_ewma(
            np.asarray(bits, dtype=np.float64), keep, scale, MIN_EWMA_BPS
        )
        for i in range(n):
            value = keep * ewma[i] + scale * bits[i]
            expected = value if value > MIN_EWMA_BPS else MIN_EWMA_BPS
            assert arrays.ewma_bps[i] == expected


# -- QoS weights: table columns vs the per-UE scalar formulas ---------------
#
# The reference below is the per-UE form the QoS family computed its
# weights in before the schedulers read the table's oracle columns:
# scalar Python floats, one UE at a time.  Same IEEE-754 operations per
# element, so the comparison is exact.


def scalar_qos_metric(sched, rates, ues):
    ewma = np.array([ue.ewma_bps for ue in ues])
    pf = rates / ewma[:, None]
    deadline = [ue.qos_deadline_flows > 0 for ue in ues]
    hol = [ue.qos_hol_delay_us for ue in ues]
    if sched.name == "pss":
        if not any(deadline):
            return pf
        bonus = pf.max() + 1.0 if np.isfinite(pf.max()) else 1.0
        return pf + np.where(np.array(deadline)[:, None], bonus, 0.0)
    if sched.name == "mlwdf":
        weight = [1.0 + sched._alpha * h if d else 1.0
                  for d, h in zip(deadline, hol)]
    elif sched.name == "exppf":
        weighted = np.array([sched._alpha * h if d else 0.0
                             for d, h in zip(deadline, hol)])
        avg = weighted.mean()
        weight = np.exp(np.clip(
            (weighted - avg) / (1.0 + math.sqrt(max(avg, 0.0))), -20, 20
        ))
    else:
        half_budget = max(sched.delay_budget_us // 2, 1)
        weight = [1.0 + (math.ceil(h / half_budget) if d else 0.0)
                  for d, h in zip(deadline, hol)]
    return pf * np.array(weight)[:, None]


@st.composite
def qos_problems(draw):
    num_ues = draw(st.integers(min_value=1, max_value=10))
    num_rbs = draw(st.integers(min_value=1, max_value=12))
    rates = np.asarray(
        draw(st.lists(st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
                      min_size=num_ues * num_rbs, max_size=num_ues * num_rbs)),
    ).reshape(num_ues, num_rbs)
    if draw(st.booleans()):  # a caller may hand in F-ordered rates
        rates = np.asfortranarray(rates)
    ues = []
    for i in range(num_ues):
        ue = UeSchedState(i, i)
        ue.ewma_bps = draw(st.floats(min_value=MIN_EWMA_BPS, max_value=1e10))
        ue.qos_deadline_flows = draw(st.integers(min_value=0, max_value=3))
        ue.qos_hol_delay_us = draw(
            st.one_of(st.integers(min_value=0, max_value=200_000),
                      st.integers(min_value=0, max_value=10**12))
        )
        ues.append(ue)
    return rates, ues


@pytest.mark.parametrize(
    "make", [PssScheduler, CqaScheduler, MlwdfScheduler, ExpPfScheduler],
    ids=lambda cls: cls.name,
)
@settings(**SEED_SETTINGS)
@given(qos_problems(), st.sampled_from([1, 7, 50_000]))
def test_qos_metric_equals_scalar_formula(make, problem, budget_us):
    rates, ues = problem
    sched = make(delay_budget_us=budget_us)
    metric = sched.metric_matrix(rates, as_table(ues), 0)
    assert metric.flags.c_contiguous and metric.dtype == np.float64
    with np.errstate(over="ignore"):
        assert np.array_equal(metric, scalar_qos_metric(sched, rates, ues))
