"""Closed-form chord geometry: trig-polynomial roots and the arc area."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from chordscan import CurveSpec, Flag, axis, make_evaluator, wedge
from chordscan.core import FLAG_CODES, FLAGS_BY_CODE
from chordscan.semiclassical import (_ANGLES, _FROM_TOP, _HALF_ANGLE, _HARMONICS, _TAU,
                                     REL_CAUSTIC_TOL, ROUND_OFF, _arc_area, _quartic_roots,
                                     _realizations, _tangencies, _unit_circle_roots)

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
    return list(_tangencies(curve, np.array([xi[0]]), np.array([xi[1]])).theta)


def realization_angles(curve, xi):
    return list(_realizations(curve, np.array([xi[0]]), np.array([xi[1]]))[0].theta)


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
def test_full_period_arc_area_is_twice_the_enclosed_area(name, enclosed_area):
    curve = STATES[name]
    for theta0 in np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 5):
        assert _arc_area(curve, theta0, theta0 + 2.0 * np.pi) == pytest.approx(
            2.0 * enclosed_area(curve), abs=1e-12)


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
# the solve's own backward error is about eps; the bound also absorbs the
# difference between the kernel's harmonics and np.fft's
BACKWARD_EPS = 16


def defect_samples(curve, xi_p, xi_q):
    """(samples, defect): both defects of a chord batch, tangency rows first,
    at the five sample angles as the kernel builds them, and as the one
    function of (row, theta) the kernel's Newton step evaluates."""
    count = xi_p.size

    def defect(row, theta):
        xi = (xi_p[row % count], xi_q[row % count])
        return np.where(row < count, parallel_defect(curve, xi, theta),
                        level_defect(curve, xi, theta))

    return defect(np.arange(2 * count)[:, np.newaxis], _ANGLES), defect


def unrefined(row, theta):
    """The defect of rows with no real root that takes a Newton step: never evaluated."""
    raise AssertionError("a well-conditioned root was refined")


def reference_polynomial(row):
    """z^2 f(z) of one defect row as its coefficients c_2 .. c_-2, round-off harmonics trimmed."""
    harmonics = np.fft.fft(row) / 5
    quartic = harmonics[[2, 1, 0, 4, 3]]
    size = np.abs(quartic)
    floor = ROUND_OFF * size.max()
    if max(size[0], size[4]) > floor:
        return quartic
    if max(size[1], size[3]) > floor:
        return quartic[1:4]
    return quartic[2:3]


def reference_roots(row):
    """(angles, miss) of one defect row from np.roots on the complex quartic z^2 f(z)."""
    quartic = reference_polynomial(row)
    if quartic.size == 1:
        return np.zeros(0), np.inf
    roots = np.roots(quartic)
    log_radius = np.abs(np.log(np.abs(roots)))
    on_circle = log_radius <= math.sqrt(ROUND_OFF)
    miss = np.min(log_radius[~on_circle], initial=np.inf)
    return np.sort(np.angle(roots[on_circle]) % (2.0 * np.pi)), miss


def assert_matches_reference(samples, defect, tol=1e-10):
    """Every row's real roots match np.roots within ``tol`` in angle, and each
    root's backward error, |z^2 f(z)| over the sum of |c_k|, is a few eps."""
    chord, theta, miss, _ = _unit_circle_roots(samples, defect)
    for k, row in enumerate(samples):
        want, want_miss = reference_roots(row)
        # the solve returns a row's roots in no particular order: compare them as sets
        got = np.sort(theta[chord == k])
        assert got.size == want.size, f"row {k}: {got} against {want}"
        # root by root, in order around the circle: a root at the seam may
        # read 0 or 2 pi, which shifts one list by a place
        gap = [np.max(np.abs(np.angle(np.exp(1j * (got - np.roll(want, shift))))))
               for shift in range(got.size)]
        assert min(gap, default=0.0) < tol, f"row {k}: {got} against {want}"
        assert (miss[k] < REL_CAUSTIC_TOL) == (want_miss < REL_CAUSTIC_TOL), f"row {k}"
        quartic = reference_polynomial(row)
        backward = np.abs(np.polyval(quartic, np.exp(1j * got))) / np.sum(np.abs(quartic))
        assert np.all(backward < BACKWARD_EPS * np.finfo(float).eps), f"row {k}: {backward}"


@pytest.mark.parametrize("name", ROOT_STATES)
def test_roots_match_np_roots_on_the_complex_quartic(name):
    curve = ROOT_STATES[name]
    scale = 2.6 * curve.radius
    chords = np.random.default_rng(10 + sorted(ROOT_STATES).index(name)).uniform(
        -scale, scale, size=(300, 2))
    chords[:20, 0] = 0.0
    samples, defect = defect_samples(curve, chords[:, 0], chords[:, 1])
    # every row is rotated to its largest sample: all five rotations occur
    assert set(np.argmax(np.abs(samples), axis=1)) == set(range(5))
    assert_matches_reference(samples, defect)


@pytest.mark.parametrize("name", ROOT_STATES)
def test_root_slopes_are_the_stationary_phase_denominators(name):
    """The slope the solve returns at each root is the defect's theta-derivative:
    h' = grad I(tip) . x'(theta) at a realization foot, and the curvature wedge
    x''(theta) ∧ xi at a tangency. Errors count against the row's largest sample."""
    curve = ROOT_STATES[name]
    scale = 2.6 * curve.radius
    chords = np.random.default_rng(20 + sorted(ROOT_STATES).index(name)).uniform(
        -scale, scale, size=(300, 2))
    samples, defect = defect_samples(curve, chords[:, 0], chords[:, 1])
    row, theta, _, slope = _unit_circle_roots(samples, defect)
    size = np.max(np.abs(samples), axis=1)[row]
    xi_p, xi_q = chords[row % len(chords)].T
    tangency = row < len(chords)

    foot_p, foot_q = curve.point(theta)
    grad_p, grad_q = curve.action_gradient((foot_p + xi_p, foot_q + xi_q))
    vel_p, vel_q = curve.velocity(theta)
    h_prime = grad_p * vel_p + grad_q * vel_q
    h = 1e-6
    ahead, behind = curve.velocity(theta + h), curve.velocity(theta - h)
    acc_p, acc_q = (ahead[0] - behind[0]) / (2 * h), (ahead[1] - behind[1]) / (2 * h)
    wedge_fd = acc_p * xi_q - acc_q * xi_p

    assert tangency.any() and (~tangency).any()
    level_err = np.abs(slope - h_prime)[~tangency] / size[~tangency]
    tangency_err = np.abs(slope - wedge_fd)[tangency] / size[tangency]
    assert np.max(level_err) < 1e-12
    assert np.max(tangency_err) < 1e-8


def test_every_rotation_gives_the_same_roots():
    """A cyclic shift of the samples is f(theta + 2 pi m / 5): it moves the
    largest sample, and so the rotation, through all five indices, and
    rotates the roots by -2 pi m / 5."""
    curve = STATES["t1"]
    samples, defect = defect_samples(curve, np.array([0.7]), np.array([-0.4]))
    for k, row in enumerate(samples):
        _, base, base_miss, _ = _unit_circle_roots(row[None, :], lambda _, theta: defect(k, theta))
        tops = set()
        for m in range(5):
            shifted = np.roll(row, -m)[None, :]
            tops.add(int(np.argmax(np.abs(shifted))))
            _, theta, miss, _ = _unit_circle_roots(
                shifted, lambda _, theta: defect(k, theta + 2.0 * np.pi * m / 5))
            assert theta.size == base.size
            moved = np.sort((base - 2.0 * np.pi * m / 5) % (2.0 * np.pi))
            gap = np.abs(np.angle(np.exp(1j * (theta[:, None] - moved[None, :]))))
            assert np.all(np.min(gap, axis=1) < 1e-12)
            assert miss[0] == pytest.approx(base_miss[0], rel=1e-9)
        assert tops == set(range(5))


# pi to 60 digits, for references that do not go through the code's closed
# forms of cos and sin at multiples of 2 pi / 5
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def decimal_cos_sin(x):
    """cos x and sin x by their Taylor series, x first reduced to [-pi, pi]."""
    x -= 2 * PI * round(x / (2 * PI))
    terms = [Decimal(1)]
    while abs(terms[-1]) > Decimal("1e-60"):
        terms.append(terms[-1] * x / len(terms))
    return (sum((-1) ** (n // 2) * term for n, term in enumerate(terms) if n % 2 == 0),
            sum((-1) ** (n // 2) * term for n, term in enumerate(terms) if n % 2 == 1))


def test_sample_maps_are_one_table_correctly_rounded():
    """Row m of _HARMONICS weighs sample m after the top one, g at
    s = pi + 2 pi m / 5, into the harmonics (a0, a1, b1, a2, b2) of g: 1/5,
    2/5 cos k s and 2/5 sin k s, each correctly rounded, and exactly 0 where
    sin k pi vanishes. Each _TAU[deg] is _HALF_ANGLE[deg] times the same
    table, correctly rounded, and exactly 0 where that product is 0. The
    references are 50-digit Taylor series."""
    assert _HARMONICS.shape == (5, 5)
    with localcontext() as context:
        context.prec = 50
        table = []
        for m in range(5):
            s = PI + 2 * PI * m / 5
            (cos1, sin1), (cos2, sin2) = decimal_cos_sin(s), decimal_cos_sin(2 * s)
            table.append([Decimal(1) / 5] + [2 * value / 5 for value in (cos1, sin1, cos2, sin2)])
        for m, row in enumerate(table):
            for h, value in enumerate(row):
                if m == 0 and h in (2, 4):  # sin pi and sin 2 pi
                    assert abs(value) < Decimal("1e-45") and _HARMONICS[m, h] == 0.0
                else:
                    assert _HARMONICS[m, h] == float(value), (m, h)
        for deg, half_angle in _HALF_ANGLE.items():
            assert _TAU[deg].shape == (5, deg + 1)
            for m, row in enumerate(table):
                for d, coefficient in enumerate(half_angle):
                    want = sum(Decimal(weight) * value for weight, value in zip(coefficient, row))
                    if abs(want) < Decimal("1e-45"):
                        assert _TAU[deg][m, d] == 0.0, (deg, m, d)
                    else:
                        assert _TAU[deg][m, d] == float(want), (deg, m, d)


# Rows on which a closed-form quartic solve can lose accuracy, with the
# function they sample and the angle tolerance each root is fixed to. The
# first two biquadratic rows are even about _ANGLES[3], their largest
# sample, so the rotated quartic in tau has no odd powers up to round-off
# (q ~ 1e-15 in Ferrari's split); in the second f(phi) and f(phi + pi)
# differ in sign, so the resolvent's largest root is about q^2 and the
# split's slope s = sqrt(S) about 1e-16.
EVEN = _ANGLES[3]


def trig_row(f):
    """(samples, defect) of the trig polynomial f as one row."""
    return f(_ANGLES)[np.newaxis, :], lambda row, theta: f(theta)


T5_CAUSTIC = defect_samples(ROOT_STATES["t5"], np.array([-1.40875]), np.array([1.46625]))
NEAR_TAU_ZERO = defect_samples(ROOT_STATES["t1"], np.array([-0.9903044602161104]),
                               np.array([-0.376633789790795]))


HARD_ROWS = {
    "biquadratic": (*trig_row(lambda th: np.cos(2 * (th - EVEN)) + 0.3 * np.cos(th - EVEN) - 0.2),
                    1e-10),
    "biquadratic with s ~ 1e-16": (
        *trig_row(lambda th: np.cos(th - EVEN) + 0.3 * np.cos(2 * (th - EVEN))), 1e-10),
    # even about its largest sample, angle 0, with b1 = b2 = 0 exactly: q = 0,
    # and since f(0) f(pi) < 0 the resolvent's largest root is 0, so q/s is 0/0;
    # given as samples alone, its roots are not near enough to be refined
    "exact biquadratic": (np.array([[-0.2551051925430211, -0.014356350703761858,
                                     0.11282986206319016, 0.11282986206319019,
                                     -0.014356350703761782]]), unrefined, 1e-10),
    # a double root is fixed only to sqrt(eps), by np.roots too
    "double root": (*trig_row(lambda th: (1 - np.cos(th - 0.7)) * (0.3 + np.cos(th - 2.9))),
                    1e-7),
    "near-double root": (
        *trig_row(lambda th: (np.cos(1e-5) - np.cos(th - 0.7)) * (0.3 + np.cos(th - 2.9))), 1e-10),
    "near-double pair off the circle": (
        *trig_row(lambda th: (1 + 1e-10 - np.cos(th - 0.7)) * (0.3 + np.cos(th - 2.9))), 1e-10),
    # both defects of the t = 5 chord whose two realizations lie 1.8e-4 apart in theta
    "t = 5 caustic chord": (*T5_CAUSTIC, 1e-10),
    # a t = 1 tangency defect with a root near tau = 0, which Ferrari's split
    # alone leaves 1e-8 off relative to its size
    "root near tau = 0": (NEAR_TAU_ZERO[0][:1], NEAR_TAU_ZERO[1], 1e-10),
    # c_2 = 1e-7 c_1: two roots near z = 0 and z = infinity, where tau is near -+i
    "roots near tau = +-i": (
        *trig_row(lambda th: np.cos(th - 1.1) + 0.3 + 1e-7 * np.cos(2 * th + 0.4)), 1e-10),
    # four roots 0.03 apart, at 1.3 + (-0.045, -0.015, 0.015, 0.045)
    "clustered quadruple root": (*trig_row(lambda th: (np.cos(0.03) - np.cos(th - 1.285))
                                           * (np.cos(0.03) - np.cos(th - 1.315))), 1e-10),
}


@pytest.mark.parametrize("name", HARD_ROWS)
def test_hard_rows_match_np_roots(name):
    samples, defect, tol = HARD_ROWS[name]
    assert_matches_reference(samples, defect, tol=tol)


@pytest.mark.parametrize("name", HARD_ROWS)
def test_quartic_roots_are_backward_stable(name):
    """Every root tau of a quartic row solves it to a few eps of its terms,
    |p(tau)| <= BACKWARD_EPS eps sum_k |c_k| |tau|^(4 - k): a relative test,
    which the angles hide for a root near tau = 0."""
    for row in HARD_ROWS[name][0]:
        rolled = row[_FROM_TOP[int(np.argmax(np.abs(row)))]]
        harmonics = rolled @ _HARMONICS
        pair = 0.5 * np.hypot(harmonics[1::2], harmonics[2::2])
        if pair[1] <= ROUND_OFF * max(abs(harmonics[0]), pair.max()):
            continue  # a quadratic row
        coeffs = rolled @ _TAU[4]
        pairs, real = _quartic_roots(coeffs[:, np.newaxis])
        # each pair as its two roots: real, or x +- i y
        tau = np.concatenate([pair if is_real else pair[0] + np.array([1j, -1j]) * pair[1]
                              for pair, is_real in zip(pairs[..., 0], real[:, 0])])
        backward = np.abs(np.polyval(coeffs, tau)) / np.polyval(np.abs(coeffs), np.abs(tau))
        assert np.all(backward < BACKWARD_EPS * np.finfo(float).eps), f"{tau}: {backward}"


# Chords whose two realizations nearly coalesce. At t = 5 the grid chord,
# 1.8e-4 apart in theta with h' = -+0.16, and one 6.0e-5 apart with
# h' = -+0.052; at t = 1 the grid chords whose sp_full moves most when only
# the ill-conditioned roots step: one 0.032 apart with h' = -+0.035, and one
# 0.045 apart with h' = -+0.069, which the slope rule leaves unstepped. Per
# chord its time, its 40-digit mpmath references on the exact curve (the
# roots of the level defect and the stationary-phase sum over them) and the
# bounds on the feet's and sp_full's errors.
CAUSTIC_CHORDS = {
    "t = 5, 1.8e-4 apart": (5.0, (-1.40875, 1.46625),
                            [5.062909530829972578474326, 5.063091242038196785684541], 5e-15,
                            -0.44131060676662443666 - 0.062024860540003245117j, 1e-11),
    "t = 5, 6.0e-5 apart": (5.0, (-1.4087619, 1.4662624),
                            [5.062976457657132695985629, 5.063035880309851574467481], 5e-15,
                            -0.77158626186933636511 - 0.10936665919808112143j, 2e-11),
    "t = 1, 0.032 apart": (1.0, (0.0575, -2.0125),
                           [1.753190616286284505886442, 1.785420165179968258086872], 2e-14,
                           -0.80674375436372942827 + 0.50145169634428650496j, 1e-12),
    "t = 1, 0.045 apart": (1.0, (0.23, 1.29375),
                           [0.771516073966486101156894, 0.8163767552819248011253197,
                            3.945953504207059426320222, 5.098897583819905242155193], 2e-14,
                           0.65645894976072783792 - 0.0096679408575683444258j, 1e-12),
}


def test_feet_near_a_caustic_match_a_40_digit_solve():
    """Off the float samples' harmonics the t = 5 feet are 1.2e-12 and
    1.5e-12 off, and sp_full 2.9e-9 and 1.9e-8. One Newton step on the level
    defect, evaluated on the curve, brings the feet to the last bits.
    sp_full's remaining error, 2.0e-12 and 1.2e-11, is the slope h' read
    off the harmonics: about 1e-12, 2e-11 relative at h' = 0.052, where the
    samples reach 1.3e3 (6.9e-12 on correctly rounded samples). At t = 1 the
    samples stay below 5, and the feet that do not step are within about
    _SHAKY eps of the curve's."""
    for name, (t, xi, want_feet, feet_bound, want_value, bound) in CAUSTIC_CHORDS.items():
        curve = CurveSpec(n=5, hbar=0.1, t=t)
        np.testing.assert_allclose(np.sort(realization_angles(curve, xi)), want_feet,
                                   rtol=0.0, atol=feet_bound, err_msg=name)
        assert abs(make_evaluator("sp_full", curve)(xi).value - want_value) < bound, name


def test_only_ill_conditioned_roots_take_the_newton_step():
    """Of the near-double root row's four real roots, only the two 2e-5
    apart near 0.7, whose slopes are below 1/_SHAKY of the top sample, take
    the Newton step: the defect is evaluated there and nowhere else."""
    samples, defect = HARD_ROWS["near-double root"][:2]
    evaluated = []

    def recording(row, theta):
        evaluated.append(theta.copy())
        return defect(row, theta)

    _, theta, _, _ = _unit_circle_roots(samples, recording)
    assert theta.size == 4
    np.testing.assert_allclose(np.sort(np.concatenate(evaluated)), [0.7 - 1e-5, 0.7 + 1e-5],
                               rtol=0.0, atol=1e-10)


SEVEN_STATES = {
    "ring": CurveSpec(n=5, hbar=0.1, t=0.0),
    "t0.1": CurveSpec(n=5, hbar=0.1, t=0.1),
    "t1": CurveSpec(n=5, hbar=0.1, t=1.0),
    "t5": CurveSpec(n=5, hbar=0.1, t=5.0),
    "a3_zero": CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 0.0), t=0.3),
    "n80": CurveSpec(n=80, hbar=0.006832298, t=0.1),
    "n3": CurveSpec(n=3, hbar=0.1, t=0.2),
}


@pytest.mark.parametrize("evaluator", ["sp_small", "sp_full", "semiclassical"])
@pytest.mark.parametrize("name", SEVEN_STATES)
def test_stationary_phase_runs_without_an_eigenvalue_solver(monkeypatch, name, evaluator):
    """The roots are in closed form: no chord needs np.linalg.eigvals."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    chords = np.random.default_rng(5).uniform(-2.5, 2.5, size=(400, 2))
    grid_axis = axis(-2.3, 2.3, 21)
    mesh_p, mesh_q = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    xi_p = np.concatenate([chords[:, 0], mesh_p.ravel()])
    xi_q = np.concatenate([chords[:, 1], mesh_q.ravel()])
    values, flags = make_evaluator(evaluator, SEVEN_STATES[name]).evaluate(xi_p, xi_q)
    assert np.all(np.isfinite(values))
    assert np.any(flags == FLAG_CODES[Flag.OK])


@pytest.mark.parametrize("name,xi_p", [("ring", (0.5, -0.2, 0.0, 1.0)),
                                       ("sheared", (0.0,) * 4), ("t5", (0.0,) * 4)])
def test_degree_two_rows(name, xi_p):
    """On the ring and on the xi_p = 0 row both defects have degree 1 in
    theta: two real roots or none, from the quadratic formula."""
    curve = ROOT_STATES[name]
    samples, defect = defect_samples(curve, np.array(xi_p), np.array([0.3, -1.1, 2.0, 5.0]))
    harmonics = np.fft.fft(samples, axis=1) / 5
    assert np.all(np.abs(harmonics[:, 2]) <= ROUND_OFF * np.max(np.abs(harmonics), axis=1))
    chord, _, _, _ = _unit_circle_roots(samples, defect)
    assert set(np.bincount(chord, minlength=len(samples))) <= {0, 2}
    assert_matches_reference(samples, defect)


def test_degree_zero_rows_have_no_roots():
    """Constant rows (xi = 0's tangency defect is all zeros) trim to degree 0."""
    samples = np.array([[0.0] * 5, [1.5] * 5, [-2.0 + 1e-15, -2.0, -2.0, -2.0, -2.0]])
    chord, theta, miss, _ = _unit_circle_roots(samples, unrefined)
    assert chord.size == 0 and theta.size == 0
    assert np.all(miss == np.inf)


def test_ill_scaled_chord_at_large_n():
    """A nearly vertical chord at n = 80 has a tangency harmonic c_2 ~ 1e-6
    |c_1|: besides the real roots near 0 and pi, the quartic keeps two roots
    near z = 0 and infinity."""
    curve = CurveSpec(n=80, hbar=0.006832298, t=0.1)
    xi = (7.97e-6, -2.5249)
    assert_matches_reference(*defect_samples(curve, np.array([xi[0]]), np.array([xi[1]])))
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
