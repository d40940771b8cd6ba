"""Stationary-phase evaluators: tangencies, realizations, composite."""

import math

import numpy as np
import pytest

from chordscan import (CurveSpec, Flag, chi_semiclassical, chi_small,
                       chord_realizations, evolved_chi, make_evaluator, tangency_points, wedge)
from chordscan.exact import fock_chi_radial
from chordscan.semiclassical import calibrate_maslov_offsets


# -- tangencies ----------------------------------------------------------------


@pytest.mark.parametrize("xi", [(0.0, 1.0), (0.6, 0.5), (-1.0, 0.3)])
def test_ring_has_two_tangencies(ring, xi):
    """A convex loop is tangent to any direction at exactly two points."""
    tps = tangency_points(ring, xi)
    assert len(tps) == 2
    norm = math.hypot(*xi)
    for tp in tps:
        # the velocity really is parallel to xi there ...
        assert abs(wedge(ring.velocity(tp.theta), xi)) < 1e-9
        # ... and the curvature wedge matches r |xi| in magnitude
        assert abs(tp.curvature_wedge) == pytest.approx(ring.radius * norm,
                                                        rel=1e-9)
        assert tp.flag is Flag.OK
    # opposite sides of the loop carry opposite curvature signs
    assert tps[0].curvature_wedge * tps[1].curvature_wedge < 0


def test_tangency_on_the_angle_seam(ring):
    """xi = (0, 1) puts one tangency exactly at theta = 0 (the 2 pi seam)."""
    thetas = sorted(tp.theta % (2 * math.pi) for tp in tangency_points(ring, (0.0, 1.0)))
    assert min(thetas[0], 2 * math.pi - thetas[0]) < 1e-9
    assert thetas[1] == pytest.approx(math.pi, abs=1e-9)


# -- chord realizations ----------------------------------------------------------


def test_mid_ring_chord_has_two_realizations(sheared):
    xi = (0.6, 0.5)
    found = chord_realizations(sheared, xi)
    assert len(found.realizations) == 2
    assert not found.grazing
    for real in found.realizations:
        # foot and tip both sit on the curve
        assert sheared.action_value(real.foot) == pytest.approx(sheared.action,
                                                                abs=1e-10)
        assert sheared.action_value(real.tip) == pytest.approx(sheared.action,
                                                               abs=1e-10)
        np.testing.assert_allclose(real.tip, np.add(real.foot, xi), atol=1e-9)
        np.testing.assert_allclose(real.midpoint,
                                   np.add(real.foot, np.multiply(xi, 0.5)),
                                   atol=1e-9)
        assert real.sigma in (-1.0, 1.0)
        assert abs(real.bracket) > 1e-3
    sigmas = sorted(r.sigma for r in found.realizations)
    assert sigmas == [-1.0, 1.0]


def test_chord_longer_than_diameter_has_no_realizations(ring):
    found = chord_realizations(ring, (0.0, 2 * ring.radius + 0.3))
    assert found.realizations == ()
    assert not found.grazing


# -- bare stationary-phase sums ---------------------------------------------------


def test_sp_small_approaches_classical_average(ring):
    """The short-chord stationary phase tracks the exact curve average with
    an error falling off as the phase r |xi| / hbar grows."""
    sp_small = make_evaluator("sp_small", ring)
    errs = []
    for s in (0.3, 0.5, 0.8):
        worst = max(abs(complex(sp_small((s * math.cos(a), s * math.sin(a))))
                        - complex(chi_small(ring, (s * math.cos(a), s * math.sin(a)))))
                    for a in np.linspace(0.0, 3.0, 7))
        errs.append(worst)
    assert errs[0] < 0.05 and errs[1] < 0.01 and errs[2] < 0.005
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("s", [0.5, 0.9, 1.3, 1.7])
def test_sp_full_matches_closed_form_mid_ring(ring, s):
    sp_full = make_evaluator("sp_full", ring)
    for a in np.linspace(0.1, 3.0, 6):
        xi = (s * math.cos(a), s * math.sin(a))
        err = abs(complex(sp_full(xi)) - fock_chi_radial(5, 0.1, s))
        assert err < 0.02


def test_branch_offsets_recovered_by_calibration():
    """Grid-searching the quarter-turn constants against the closed form
    lands on the hard-coded production pair."""
    assert calibrate_maslov_offsets() == (-2, -2)


# -- flags ------------------------------------------------------------------------


def test_flags_across_the_longest_chord(ring):
    sp_full = make_evaluator("sp_full", ring)
    d = 2 * ring.radius
    assert sp_full((0.0, d - 1e-7)).flag is Flag.NEAR_CAUSTIC
    assert sp_full((0.0, d + 1e-7)).flag is Flag.NEAR_CAUSTIC  # grazing
    assert sp_full((0.0, d + 1e-4)).flag is Flag.EVANESCENT
    assert sp_full((0.0, d + 0.3)).flag is Flag.EVANESCENT


def test_composite_is_evanescent_beyond_the_rim(ring):
    out = chi_semiclassical(ring, (0.0, 2 * ring.radius + 0.3))
    assert out.flag is Flag.EVANESCENT
    assert abs(out.value) < 0.01  # exponentially small out there


# -- composite --------------------------------------------------------------------


def test_composite_is_exact_at_zero_chord(sheared):
    out = chi_semiclassical(sheared, (0.0, 0.0))
    assert out.value == 1.0 + 0.0j
    assert out.flag is Flag.OK


def test_composite_tracks_the_oracle(sheared):
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(30):
        s = rng.uniform(0.1, 1.5)
        a = rng.uniform(0.0, 2 * math.pi)
        xi = (s * math.cos(a), s * math.sin(a))
        out = chi_semiclassical(sheared, xi)
        if out.flag is not Flag.OK:
            continue
        assert abs(out.value - complex(evolved_chi(sheared, xi))) < 0.02
        checked += 1
    assert checked > 20  # the caustic shadow must not swallow the sample
