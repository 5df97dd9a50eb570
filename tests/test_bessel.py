"""``repro.phy.bessel.j0`` must be the same double as ``scipy.special.j0``.

The port replaced scipy on the simulation path; every golden
fingerprint rests on the two agreeing to the last bit, so these tests
use ``==``, never ``approx``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j0 as scipy_j0

from repro.phy.bessel import j0
from repro.phy.numerology import Numerology
from repro.phy.scenarios import SCENARIOS
from repro.sim.engine import microseconds, seconds


def assert_same_as_scipy(xs: np.ndarray) -> None:
    pairs = zip(xs.tolist(), scipy_j0(xs).tolist())
    mismatches = [(x, j0(x), expected) for x, expected in pairs if j0(x) != expected]
    assert not mismatches, f"{len(mismatches)} of {xs.size}, first {mismatches[0]}"


def reachable_arguments() -> np.ndarray:
    """Every ``2*pi*fd*dt`` a preset scenario can hand to the fader.

    ``dt`` is a difference of two event times converted from integer
    microseconds, so one period yields a few distinct doubles.
    """
    xs = set()
    for scenario in SCENARIOS.values():
        periods_us = {Numerology(mu).slot_us for mu in range(4)}
        periods_us.add(microseconds(scenario.cqi_period_s))
        dts = {scenario.cqi_period_s}
        for period_us in periods_us:
            dts.update(
                seconds((k + 1) * period_us) - seconds(k * period_us)
                for k in range(4000)
            )
        doppler = scenario.doppler_hz()
        xs.update(2 * np.pi * doppler * dt for dt in dts)
    return np.array(sorted(xs))


def test_equal_on_every_reachable_argument():
    xs = reachable_arguments()
    assert xs.size > len(SCENARIOS) * 5
    assert_same_as_scipy(xs)


@pytest.mark.parametrize("lo, hi", [(0.0, 5.0), (5.0, 2000.0)])
def test_equal_on_seeded_grid(lo, hi):
    rng = np.random.default_rng(20221206)
    assert_same_as_scipy(rng.uniform(lo, hi, size=100_000))


def test_equal_at_branch_points_and_negative_arguments():
    edges = [0.0, 1e-300, 9.9e-6, 1e-5, math.nextafter(1e-5, 1.0), 1.0,
             math.nextafter(5.0, 0.0), 5.0, math.nextafter(5.0, 6.0), 1e4]
    assert_same_as_scipy(np.array(edges + [-x for x in edges]))
    assert j0(0.0) == 1.0
    assert j0(-2.5) == j0(2.5)
    assert isinstance(j0(1.0), float)


def test_first_zero():
    assert j0(2.404825557695773) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e4))
def test_equal_on_arbitrary_floats(x):
    assert j0(x) == float(scipy_j0(x))
