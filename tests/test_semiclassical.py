"""Stationary-phase evaluators: tangencies, realizations, composite."""

import math

import numpy as np
import pytest

from chordscan import (Flag, chi_semiclassical, chi_small,
                       chord_realizations, evolved_chi, make_evaluator, tangency_points,
                       wedge)
from chordscan.exact import fock_chi_radial
from chordscan.semiclassical import (DENOMINATOR_FLOOR, _caustic, _realizations, _Roots,
                                     _stationary_sum, _tangencies, _tip_angle)


def one_chord(xi):
    """The chord xi as the pair of one-element arrays the batch solves take."""
    return np.array([xi[0]]), np.array([xi[1]])


# -- tangencies ----------------------------------------------------------------


@pytest.mark.parametrize("xi", [(0.0, 1.0), (0.6, 0.5), (-1.0, 0.3)])
def test_ring_has_two_tangencies(ring, xi):
    """A convex loop is tangent to any direction at exactly two points."""
    tps = _tangencies(ring, *one_chord(xi))
    assert tps.theta.size == 2
    norm = math.hypot(*xi)
    for theta, curvature_wedge in zip(tps.theta, tps.slope):
        # the velocity really is parallel to xi there ...
        assert abs(wedge(ring.velocity(theta), xi)) < 1e-9
        # ... and the curvature wedge matches r |xi| in magnitude
        assert abs(curvature_wedge) == pytest.approx(ring.radius * norm, rel=1e-9)
    assert not _caustic(ring, tps.slope).any()
    # opposite sides of the loop carry opposite curvature signs
    assert tps.slope[0] * tps.slope[1] < 0


@pytest.mark.parametrize("xi", [(0.0, 1.0), (0.6, 0.5)])
def test_tangency_points_lists_the_batch_tangencies(sheared, xi):
    """The one-chord call keeps one record per tangency of the batch solve."""
    found = _tangencies(sheared, *one_chord(xi))
    assert found.theta.size == 2
    listed = tangency_points(sheared, xi)
    assert len(listed) == 2
    assert listed == tuple(zip(*found))
    assert all(isinstance(record, _Roots) for record in listed)


def test_tangency_on_the_angle_seam(ring):
    """xi = (0, 1) puts one tangency exactly at theta = 0 (the 2 pi seam)."""
    thetas = sorted(_tangencies(ring, *one_chord((0.0, 1.0))).theta % (2 * math.pi))
    assert min(thetas[0], 2 * math.pi - thetas[0]) < 1e-9
    assert thetas[1] == pytest.approx(math.pi, abs=1e-9)


# -- chord realizations ----------------------------------------------------------


def test_mid_ring_chord_has_two_realizations(sheared):
    xi = (0.6, 0.5)
    found, grazing = _realizations(sheared, *one_chord(xi))
    assert found.theta.size == 2
    assert not grazing[0]
    foot = sheared.point(found.theta)
    tip = (foot[0] + xi[0], foot[1] + xi[1])
    # foot and tip = foot + xi both sit on the curve
    np.testing.assert_allclose(sheared.action_value(foot), sheared.action, rtol=0, atol=1e-10)
    np.testing.assert_allclose(sheared.action_value(tip), sheared.action, rtol=0, atol=1e-10)
    # ... and the tip is the curve's point at its tip angle
    np.testing.assert_allclose(sheared.point(_tip_angle(sheared, *tip, found.theta)), tip,
                               rtol=0, atol=1e-9)
    assert np.all(np.abs(found.slope) > 1e-3)
    assert sorted(np.copysign(1.0, found.slope)) == [-1.0, 1.0]


def test_chord_longer_than_diameter_has_no_realizations(ring):
    found, grazing = _realizations(ring, *one_chord((0.0, 2 * ring.radius + 0.3)))
    assert found.theta.size == 0
    assert not grazing[0]


@pytest.mark.parametrize("xi, count", [((0.0, 2.3), 0), ((0.6, 0.5), 2)])
def test_chord_realizations_lists_the_batch_realizations(sheared, xi, count):
    """The one-chord call keeps one record per realization of the batch solve."""
    found, _ = _realizations(sheared, *one_chord(xi))
    assert found.theta.size == count
    listed = chord_realizations(sheared, xi).realizations
    assert len(listed) == count
    assert listed == tuple(zip(*found))
    assert all(isinstance(record, _Roots) for record in listed)


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


def test_branch_offsets_recovered_by_calibration(ring):
    """Grid-searching the quarter-turn offsets k of each branch, phase
    (pi/4)(sigma + k), against the closed form on mid-ring chords lands on
    (-2, -2), the Maslov phase (pi/4)(sigma - 2) that sp_full uses."""
    radii, angles = np.meshgrid(np.linspace(0.55, 1.45, 5) * ring.radius, (0.3, 2.1),
                                indexing="ij")
    chords = np.stack([(radii * np.cos(angles)).ravel(), (radii * np.sin(angles)).ravel()], -1)
    reference = fock_chi_radial(5, 0.1, np.hypot(chords[:, 0], chords[:, 1]))
    roots, _ = _realizations(ring, chords[:, 0], chords[:, 1])
    kept = np.abs(roots.slope) >= DENOMINATOR_FLOOR
    chord, action, slope = roots.chord[kept], roots.action[kept], roots.slope[kept]
    sigma = np.sign(slope)
    amplitude = np.sqrt(2 * math.pi * ring.hbar / np.abs(slope)) / (2 * math.pi)

    def sums(offsets):
        phase = action / ring.hbar + 0.25 * math.pi * (sigma + np.where(sigma > 0, *offsets))
        out = np.zeros(len(chords), dtype=complex)
        np.add.at(out, chord, amplitude * np.exp(1j * phase))
        return out

    search = range(-3, 4)
    errors = {(k_plus, k_minus): np.max(np.abs(sums((k_plus, k_minus)) - reference))
              for k_plus in search for k_minus in search}
    assert min(errors, key=errors.get) == (-2, -2)
    values, _ = make_evaluator("sp_full", ring).evaluate(chords[:, 0], chords[:, 1])
    np.testing.assert_allclose(sums((-2, -2)), values, rtol=0.0, atol=1e-12)


def test_roots_below_the_denominator_floor_add_nothing_but_flag_caustic(ring):
    """The shared sum leaves out a root whose slope is below DENOMINATOR_FLOOR,
    and still flags its chord caustic."""
    xi_p, xi_q = np.array([0.5, 0.5]), np.array([0.2, 0.2])
    roots = _Roots(chord=np.array([0, 0, 1]), theta=np.zeros(3),
                   action=np.array([0.03, 0.07, 0.03]),
                   slope=np.array([0.4, 0.1 * DENOMINATOR_FLOOR, 0.4]))
    for maslov in (0, -2):
        values, caustic = _stationary_sum(ring, roots, maslov, xi_p, xi_q)
        assert abs(values[1]) == pytest.approx(math.sqrt(2 * math.pi * ring.hbar / 0.4)
                                               / (2 * math.pi), rel=1e-15)
        assert values[0] == values[1]
        assert caustic.tolist() == [True, False]


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
