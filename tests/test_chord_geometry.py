"""Closed-form chord geometry: trig-polynomial roots and the arc area."""

import numpy as np
import pytest
from scipy.integrate import quad

from chordscan import (CurveSpec, Flag, chord_realizations, sp_full, sp_small,
                       tangency_points, wedge)
from chordscan.semiclassical import _arc_area

# The ring (t = 0) and a3 = 0 keep both defects at degree 1 in theta, and
# so does the xi_p = 0 row on every state: the quartic in z drops to a
# quadratic there.
STATES = {
    "ring": CurveSpec(n=5, hbar=0.1, t=0.0),
    "sheared": CurveSpec(n=5, hbar=0.1, t=0.1),
    "t1": CurveSpec(n=5, hbar=0.1, t=1.0),
    "a3_zero": CurveSpec(n=3, hbar=0.2, alpha=(0.0, 0.5, -1.0, 0.0), t=0.3),
}


def parallel_defect(curve, xi, theta):
    return wedge(curve.velocity(theta), xi)


def level_defect(curve, xi, theta):
    p, q = curve.point(theta)
    return curve.action_value((p + xi[0], q + xi[1])) - curve.action


def tangency_angles(curve, xi):
    return [tp.theta for tp in tangency_points(curve, xi)]


def realization_angles(curve, xi):
    return [real.theta_foot for real in chord_realizations(curve, xi).realizations]


EQUATIONS = {
    "tangency": (parallel_defect, tangency_angles),
    "realization": (level_defect, realization_angles),
}


def random_chords(seed, count=40):
    chords = np.random.default_rng(seed).uniform(-2.3, 2.3, size=(count, 2))
    chords[:8, 0] = 0.0
    return chords


@pytest.mark.parametrize("equation", EQUATIONS)
@pytest.mark.parametrize("name", STATES)
def test_roots_zero_the_defect_and_match_a_dense_scan(name, equation):
    curve = STATES[name]
    defect, solve = EQUATIONS[equation]
    # half-step offset: no sample lands exactly on a root at 0 or pi
    dense = 2.0 * np.pi * (np.arange(20000) + 0.5) / 20000
    for xi in random_chords(seed=sorted(STATES).index(name)):
        samples = defect(curve, xi, dense)
        scale = np.max(np.abs(samples))
        roots = solve(curve, xi)
        for theta in roots:
            assert 0.0 <= theta <= 2.0 * np.pi
            assert abs(defect(curve, xi, theta)) < 1e-10 * scale
        sign_changes = np.count_nonzero(samples * np.roll(samples, 1) < 0.0)
        assert len(roots) == sign_changes, f"xi = {tuple(xi)}"


@pytest.mark.parametrize("name", STATES)
def test_full_period_arc_area_is_twice_the_enclosed_area(name):
    curve = STATES[name]
    for theta0 in np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 5):
        assert _arc_area(curve, theta0, theta0 + 2.0 * np.pi) == pytest.approx(
            2.0 * curve.enclosed_area(), abs=1e-12)


@pytest.mark.parametrize("name", STATES)
def test_partial_arc_area_matches_quadrature(name):
    curve = STATES[name]

    def integrand(theta):
        p, q = curve.point(theta)
        dp, dq = curve.velocity(theta)
        return float(p * dq - q * dp)

    rng = np.random.default_rng(2)
    for theta0, span in zip(rng.uniform(0.0, 2.0 * np.pi, 5), rng.uniform(0.1, 6.0, 5)):
        want, _ = quad(integrand, theta0, theta0 + span, epsabs=1e-13, epsrel=1e-13)
        assert _arc_area(curve, theta0, theta0 + span) == pytest.approx(want, abs=1e-12)



@pytest.mark.parametrize("name", STATES)
def test_zero_chord_is_flagged_caustic(name):
    """At xi = 0 every angle is stationary: both bare sums are unusable."""
    curve = STATES[name]
    assert sp_small(curve, (0.0, 0.0)).flag is Flag.NEAR_CAUSTIC
    assert sp_full(curve, (0.0, 0.0)).flag is Flag.NEAR_CAUSTIC
