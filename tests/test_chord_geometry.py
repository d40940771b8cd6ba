"""Closed-form chord geometry: trig-polynomial roots and the arc area."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from chordscan import (CurveSpec, Flag, axis, chord_realizations, make_evaluator,
                       tangency_points, wedge)
from chordscan.core import FLAGS_BY_CODE
from chordscan.semiclassical import (_ANGLES, REL_CAUSTIC_TOL, ROUND_OFF, _arc_area,
                                     _unit_circle_roots)

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
    assert make_evaluator("sp_small", curve)((0.0, 0.0)).flag is Flag.NEAR_CAUSTIC
    assert make_evaluator("sp_full", curve)((0.0, 0.0)).flag is Flag.NEAR_CAUSTIC


# -- the half-angle root solver against a per-row np.roots reference -----------


ROOT_STATES = {**STATES, "t5": CurveSpec(n=5, hbar=0.1, t=5.0)}


def defect_samples(curve, xi_p, xi_q):
    """Both defects of a chord batch at the five sample angles, as the kernel builds them."""
    dp, dq = curve.velocity(_ANGLES)
    p, q = curve.point(_ANGLES)
    tangency = dp * xi_q[:, None] - dq * xi_p[:, None]
    level = curve.action_value((p + xi_p[:, None], q + xi_q[:, None])) - curve.action
    return np.concatenate([tangency, level])


def reference_roots(row):
    """(angles, miss) of one defect row from np.roots on the complex quartic z^2 f(z)."""
    harmonics = np.fft.fft(row) / 5
    quartic = harmonics[[2, 1, 0, 4, 3]]  # c_2 .. c_-2
    size = np.abs(quartic)
    floor = ROUND_OFF * size.max()
    if max(size[0], size[4]) <= floor:
        quartic = quartic[1:4]
        if max(size[1], size[3]) <= floor:
            return np.zeros(0), np.inf
    roots = np.roots(quartic)
    log_radius = np.abs(np.log(np.abs(roots)))
    on_circle = log_radius <= math.sqrt(ROUND_OFF)
    miss = np.min(log_radius[~on_circle], initial=np.inf)
    return np.sort(np.angle(roots[on_circle]) % (2.0 * np.pi)), miss


def assert_matches_reference(samples):
    chord, theta, miss = _unit_circle_roots(samples)
    for k, row in enumerate(samples):
        want, want_miss = reference_roots(row)
        got = theta[chord == k]
        assert got.size == want.size, f"row {k}: {got} against {want}"
        assert np.all(np.diff(got) >= 0.0)
        # compare on the circle: a root at the seam may read 0 or 2 pi
        gap = np.abs(np.angle(np.exp(1j * (got[:, None] - want[None, :]))))
        assert np.all(np.min(gap, axis=1, initial=np.inf) < 1e-10), f"row {k}"
        assert (miss[k] < REL_CAUSTIC_TOL) == (want_miss < REL_CAUSTIC_TOL), f"row {k}"


@pytest.mark.parametrize("name", ROOT_STATES)
def test_roots_match_np_roots_on_the_complex_quartic(name):
    curve = ROOT_STATES[name]
    scale = 2.6 * curve.radius
    chords = np.random.default_rng(10 + sorted(ROOT_STATES).index(name)).uniform(
        -scale, scale, size=(300, 2))
    chords[:20, 0] = 0.0
    samples = defect_samples(curve, chords[:, 0], chords[:, 1])
    # every row is rotated to its largest sample: all five rotations occur
    assert set(np.argmax(np.abs(samples), axis=1)) == set(range(5))
    assert_matches_reference(samples)


def test_every_rotation_gives_the_same_roots():
    """A cyclic shift of the samples is f(theta + 2 pi m / 5): it moves the
    largest sample, and so the rotation, through all five indices, and
    rotates the roots by -2 pi m / 5."""
    curve = STATES["t1"]
    samples = defect_samples(curve, np.array([0.7]), np.array([-0.4]))
    for row in samples:
        _, base, base_miss = _unit_circle_roots(row[None, :])
        tops = set()
        for m in range(5):
            shifted = np.roll(row, -m)[None, :]
            tops.add(int(np.argmax(np.abs(shifted))))
            _, theta, miss = _unit_circle_roots(shifted)
            assert theta.size == base.size
            moved = np.sort((base - 2.0 * np.pi * m / 5) % (2.0 * np.pi))
            gap = np.abs(np.angle(np.exp(1j * (theta[:, None] - moved[None, :]))))
            assert np.all(np.min(gap, axis=1) < 1e-12)
            assert miss[0] == pytest.approx(base_miss[0], rel=1e-9)
        assert tops == set(range(5))


@pytest.mark.parametrize("name,xi_p", [("ring", (0.5, -0.2, 0.0, 1.0)),
                                       ("sheared", (0.0,) * 4), ("t5", (0.0,) * 4)])
def test_degree_two_rows(name, xi_p):
    """On the ring and on the xi_p = 0 row both defects have degree 1 in
    theta: two real roots or none, from the 2 x 2 companion."""
    curve = ROOT_STATES[name]
    samples = defect_samples(curve, np.array(xi_p), np.array([0.3, -1.1, 2.0, 5.0]))
    harmonics = np.fft.fft(samples, axis=1) / 5
    assert np.all(np.abs(harmonics[:, 2]) <= ROUND_OFF * np.max(np.abs(harmonics), axis=1))
    chord, _, _ = _unit_circle_roots(samples)
    assert set(np.bincount(chord, minlength=len(samples))) <= {0, 2}
    assert_matches_reference(samples)


def test_degree_zero_rows_have_no_roots():
    """Constant rows (xi = 0's tangency defect is all zeros) trim to degree 0."""
    samples = np.array([[0.0] * 5, [1.5] * 5, [-2.0 + 1e-15, -2.0, -2.0, -2.0, -2.0]])
    chord, theta, miss = _unit_circle_roots(samples)
    assert chord.size == 0 and theta.size == 0
    assert np.all(miss == np.inf)


def test_ill_scaled_chord_at_large_n():
    """A nearly vertical chord at n = 80 has a tangency harmonic c_2 ~ 1e-6
    |c_1|: besides the real roots near 0 and pi, the quartic keeps two roots
    near z = 0 and infinity."""
    curve = CurveSpec(n=80, hbar=0.006832298, t=0.1)
    xi = (7.97e-6, -2.5249)
    samples = defect_samples(curve, np.array([xi[0]]), np.array([xi[1]]))
    assert_matches_reference(samples)
    angles = tangency_angles(curve, xi)
    assert len(angles) == 2
    dense = 2.0 * np.pi * (np.arange(20000) + 0.5) / 20000
    scale = np.max(np.abs(parallel_defect(curve, xi, dense)))
    for theta, want in zip(angles, (0.0, np.pi)):
        assert abs(theta - want) < 1e-5
        assert abs(parallel_defect(curve, xi, theta)) < 1e-10 * scale
    # the chord is longer than any vertical chord of the curve
    assert realization_angles(curve, xi) == []


# The composite's flags on the sheared 41^2 grid over +-2.3: '.' ok and
# 'e' evanescent past the caustic rim, one string per xi_p row.
SHEARED_FLAGS_41 = """
eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee
eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee
eeeeeeeeeeeeee......eeeeeeeeeeeeeeeeeeeee
eeeeeeeeee..............eeeeeeeeeeeeeeeee
eeeeeeee..................eeeeeeeeeeeeeee
eeeeeee.....................eeeeeeeeeeeee
eeeee.........................eeeeeeeeeee
eeeee..........................eeeeeeeeee
eeee............................eeeeeeeee
eee..............................eeeeeeee
eee...............................eeeeeee
ee.................................eeeeee
ee..................................eeeee
ee..................................eeeee
ee...................................eeee
ee...................................eeee
ee....................................eee
ee....................................eee
ee....................................eee
ee.....................................ee
ee.....................................ee
ee.....................................ee
eee....................................ee
eee....................................ee
eee....................................ee
eeee...................................ee
eeee...................................ee
eeeee..................................ee
eeeee..................................ee
eeeeee.................................ee
eeeeeee...............................eee
eeeeeeee..............................eee
eeeeeeeee............................eeee
eeeeeeeeee..........................eeeee
eeeeeeeeeee.........................eeeee
eeeeeeeeeeeee.....................eeeeeee
eeeeeeeeeeeeeee..................eeeeeeee
eeeeeeeeeeeeeeeee..............eeeeeeeeee
eeeeeeeeeeeeeeeeeeeee......eeeeeeeeeeeeee
eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee
eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee
""".split()


def test_sheared_composite_grid_flags_are_pinned():
    curve = STATES["sheared"]
    grid_axis = axis(-2.3, 2.3, 41)
    _, flags = make_evaluator("semiclassical", curve).grid(grid_axis, grid_axis)
    symbol = {Flag.OK: ".", Flag.NEAR_CAUSTIC: "c", Flag.EVANESCENT: "e"}
    assert ["".join(symbol[FLAGS_BY_CODE[int(code)]] for code in row)
            for row in flags] == SHEARED_FLAGS_41
