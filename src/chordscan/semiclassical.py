"""Stationary-phase evaluators and the composite semiclassical chord function.

Geometry conventions (frozen; every phase below depends on them)
-----------------------------------------------------------------
* Phase-space vectors are (p, q); wedge(a, b) = a_p b_q - a_q b_p. The curve
  parameterization x(theta) runs counterclockwise, so wedge(x', x'') > 0 on
  convex curves and enclosed areas come out positive.
* A *tangency* is an angle where the curve velocity is parallel to the chord
  xi: x'(theta) ∧ xi = 0. Applying stationary phase to the classical average
  chi_s at these angles gives sp_small, the large-|xi| asymptotics of chi_s.
* A *realization* of the chord xi is a parameter theta_- whose point can be
  translated by xi without leaving the curve: the foot x(theta_-) and tip
  x(theta_-) + xi = x(theta_+) span an actual chord of the curve. theta_+ is
  always placed in (theta_-, theta_- + 2 pi].
* Each realization carries the action

      S = (1/2) [ \\int_{theta_-}^{theta_+} x ∧ x' dtheta + foot ∧ xi ],

  the symplectic area between the arc theta_- -> theta_+ and the straight
  chord back plus the midpoint term midpoint ∧ xi, and the transversality
  derivative h' = dI(x(theta) + xi)/dtheta at theta_- (I is the
  conserved-action function whose level set is the curve).
* The curve is parameterized by the flow of its own action,
  x'(theta) = (-dI/dq, dI/dp), so h' = grad I(tip) . x'(theta_-) is also the
  two-point bracket {I at tip, I at foot}: one denominator serves.
* The full stationary-phase weight of a realization is

      sqrt(2 pi hbar / |h'|) / (2 pi) exp[ i S / hbar + i (pi/4) (sigma - 2) ],

  with sigma = sign(h'). The Maslov phase (pi/4)(sigma - 2) is fixed by the
  geometry (Berry & Mount, Rep. Prog. Phys. 35, 1972). It is pinned
  analytically by matching both branches to the J_0 asymptotics on the
  unsheared ring (hermiticity forces the two branch constants to differ by
  pi), and the tests grid-search the integer quarter-turn offset of each
  branch against the closed-form ring chord function and land on this phase.

Closed-form geometry of the cubic shear
---------------------------------------
With p = r cos(theta), both defects are trig polynomials of degree <= 2 in
theta for any cubic H(p): the tangency defect x'(theta) ∧ xi, and the
realization defect I(x(theta) + xi) - I, which is u^2 + (p + xi_p)^2 - r^2
over 2 with u = r sin(theta) - A p + B, A = 6 t a3 xi_p and
B = xi_q - t (3 a3 xi_p^2 + 2 a2 xi_p). Their real roots are therefore the
unit-circle roots of a quartic in z = exp(i theta) (Boyd, J. Eng. Math. 56,
2006), or, since the defects are real, the real roots of a real quartic in
the half angle tau = tan((theta - phi) / 2). The arc integral has the
antiderivative

    \\int x ∧ x' dtheta = r^2 theta + t (a3 p^3 - a1 p).

Batched evaluation
------------------
Every sum is evaluated for a whole array of chords at once.
_unit_circle_roots samples a defect at five equispaced angles for all K
chords, a (K, 5) array. Each row is rotated to g(s) = f(phi + s), with
phi + pi the angle of its largest |sample|, and one gathered einsum reads
the exact real harmonics (a0, a1, b1, a2, b2) of g off the samples through
the fixed 5 x 5 map of the row's rotation. Harmonics that are round-off are
trimmed by their rotation-invariant moduli: c_2 and c_-2 go together, so
the degree is 4, 2 or 0 (it drops on t = 0 curves, on the xi_p = 0 row and
when a3 = 0). In tau = tan(s/2), (1 + tau^2)^(deg/2) g is a real polynomial
whose leading coefficient is g(pi), the largest sample, so no root is lost
at tau = infinity even where theta = phi + pi is a root. The rows are
grouped by degree, and each group takes one stacked real np.linalg.eigvals
call on its companion matrices. Each root maps back to
z = exp(i phi) (1 + i tau) / (1 - i tau), and counts as a real angle when
|ln|z|| <= sqrt(ROUND_OFF): a double root splits by the square root of the
coefficients' round-off. h' and x'' ∧ xi are the defects' slopes g'(s) at
their roots, read off the same harmonics. Each root is then one record
(chord, theta, action, slope), and one sum serves tangencies and
realizations alike: np.bincount folds
sqrt(2 pi hbar / |slope|) / (2 pi) exp[i action / hbar + i (pi/4) (sign(slope) + m)],
m = 0 for sp_small and -2 for sp_full, into per-chord sums in each chord's
root order. sp_small_values, sp_full_values and semiclassical_values are its
batch entry points, the evaluators' kernels. The one-chord calls
tangency_points, chord_realizations and chi_semiclassical stay only for the
benchmark's tracer, until it reads library counters (ROADMAP item 1).

The composite evaluator subtracts the asymptotics of the classical average
and adds the full stationary-phase value,

    chi_sc = chi_s - sp_small + sp_full,

so short chords inherit the classical average (the two stationary-phase terms
cancel) while long chords inherit sp_full (chi_s and its own asymptotics
cancel). Near caustics -- chords about to leave the curve, |h'| collapsing --
square-root amplitudes diverge; values there are flagged NEAR_CAUSTIC and no
uniform (Airy-type) repair is attempted. A caustic is two realizations
merging, two roots meeting on the unit circle; past it they leave the circle
as a complex pair (z, 1/conj(z)). A chord whose roots include such a pair
with |ln|z|| < REL_CAUSTIC_TOL grazes the curve (RealizationSet.grazing);
with no real realizations left its value is flagged NEAR_CAUSTIC, and
farther out, where no realization exists, sp_full is zero and the value is
flagged EVANESCENT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FLAG_CODES, FLAGS_BY_CODE, ChordValue, Flag, PhasePoint, worst_flag_codes
from .curves import CurveSpec
from .quadrature import NumericalError
from .smallchord import chi_small

TWO_PI = 2.0 * np.pi

# relative tolerance (against the curve's natural scale) below which a
# stationary-phase denominator is considered caustic
REL_CAUSTIC_TOL = 1e-3
# denominators below this are dropped from sums outright instead of producing
# overflowing amplitudes; the flag still records the caustic
DENOMINATOR_FLOOR = 1e-12
# harmonics below ROUND_OFF times the largest one are round-off of the
# five-point samples and are trimmed; a double root splits by the square
# root of a coefficient error, so roots within sqrt(ROUND_OFF) of the unit
# circle count as real
ROUND_OFF = 1e-12

# the five sample angles that fix a trig polynomial of degree <= 2
_ANGLES = TWO_PI * np.arange(5) / 5
# _HARMONICS[j] maps the five samples of f to the real harmonics
# (a0, a1, b1, a2, b2) of g(s) = f(_ANGLES[j] - pi + s), the row rotated so
# that its sample j sits at s = pi
_SHIFT = _ANGLES[np.newaxis, :] - _ANGLES[:, np.newaxis] + np.pi
_HARMONICS = np.stack([np.full_like(_SHIFT, 0.2), 0.4 * np.cos(_SHIFT), 0.4 * np.sin(_SHIFT),
                       0.4 * np.cos(2.0 * _SHIFT), 0.4 * np.sin(2.0 * _SHIFT)], axis=1)
# (1 + tau^2)^(deg/2) g(s) with tau = tan(s/2), as coefficients of tau^deg .. tau^0
# from the harmonics (a0, a1, b1, a2, b2) it keeps
_HALF_ANGLE = {4: np.array([[1.0, -1.0, 0.0, 1.0, 0.0],
                            [0.0, 0.0, 2.0, 0.0, -4.0],
                            [2.0, 0.0, 0.0, -6.0, 0.0],
                            [0.0, 0.0, 2.0, 0.0, 4.0],
                            [1.0, 1.0, 0.0, 1.0, 0.0]]),
               2: np.array([[1.0, -1.0, 0.0],
                            [0.0, 0.0, 2.0],
                            [1.0, 1.0, 0.0]])}
# exp(i phi) of each rotation: tau = 0 is the angle phi = _ANGLES[j] - pi
_ROTATION = np.exp(1j * (_ANGLES - np.pi))

_OK = FLAG_CODES[Flag.OK]
_NEAR_CAUSTIC = FLAG_CODES[Flag.NEAR_CAUSTIC]
_EVANESCENT = FLAG_CODES[Flag.EVANESCENT]


def _unit_circle_roots(samples):
    """Real roots of K trig polynomials of degree <= 2, and each one's nearest miss.

    Row k of the (K, 5) array ``samples`` holds defect k at the angles
    2 pi j / 5, which fix it exactly. Each row is rotated to
    g(s) = f(phi + s) with phi + pi at its largest |sample|; in the half
    angle tau = tan(s/2), (1 + tau^2)^2 g is a real quartic whose leading
    coefficient is that sample, so it never vanishes and no root runs off
    to tau = infinity. Leading harmonics that are round-off are trimmed
    first (a real defect loses c_2 and c_-2 together, leaving degree 4, 2
    or 0), and each degree group takes one stacked real eigenvalue call on
    its companion matrices. A root tau is the point
    z = exp(i phi) (1 + i tau) / (1 - i tau) of the unit-circle quartic
    z^2 f(z), and real angles are its roots on the circle.

    Returns (chord, theta, miss, slope): the row and the angle in [0, 2 pi)
    of every real root, the roots of each row in ascending angle (the order
    of its sums); per row the smallest |ln|z|| among the roots off the
    circle (inf if there are none); and per root its defect's slope there.
    """
    count = samples.shape[0]
    top = np.argmax(np.abs(samples), axis=1)
    harmonics = np.einsum("khj,kj->kh", _HARMONICS[top], samples)
    pair = 0.5 * np.hypot(harmonics[:, 1::2], harmonics[:, 2::2])  # |c_1|, |c_2|
    floor = ROUND_OFF * np.maximum(np.abs(harmonics[:, 0]), np.max(pair, axis=1))
    degree = np.where(pair[:, 1] > floor, 4, np.where(pair[:, 0] > floor, 2, 0))
    miss = np.full(count, np.inf)
    chords, thetas, slopes = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
    for deg in (4, 2):
        rows = np.flatnonzero(degree == deg)
        if rows.size == 0:
            continue
        coeffs = harmonics[rows, :deg + 1] @ _HALF_ANGLE[deg].T
        companion = np.zeros((rows.size, deg, deg))
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        tau = np.linalg.eigvals(companion)
        roots = _ROTATION[top[rows], np.newaxis] * (1.0 + 1j * tau) / (1.0 - 1j * tau)
        log_radius = np.abs(np.log(np.abs(roots)))
        on_circle = log_radius <= math.sqrt(ROUND_OFF)
        miss[rows] = np.min(np.where(on_circle, np.inf, log_radius), axis=1)
        # off-circle roots sort last as inf and are dropped
        theta = np.sort(np.where(on_circle, np.angle(roots) % TWO_PI, np.inf), axis=1)
        real = np.isfinite(theta)
        chord = np.broadcast_to(rows[:, np.newaxis], theta.shape)[real]
        # df/dtheta = g'(s) at s = theta - phi, from the harmonics the quartic kept
        _, a1, b1, a2, b2 = (harmonics[chord] * (np.arange(5) <= deg)).T
        s = (theta - _ANGLES[top[rows], np.newaxis] + np.pi)[real]
        cos, sin = np.cos(s), np.sin(s)
        slopes.append(b1 * cos - a1 * sin
                      + 2.0 * b2 * (cos + sin) * (cos - sin) - 4.0 * a2 * sin * cos)
        chords.append(chord)
        thetas.append(theta[real])
    return np.concatenate(chords), np.concatenate(thetas), miss, np.concatenate(slopes)


def _single(xi):
    """One chord as the pair of one-element component arrays the kernel takes."""
    return np.array([float(xi[0])]), np.array([float(xi[1])])


class _Roots(NamedTuple):
    """The stationary points of a chord batch, one entry per root."""

    chord: np.ndarray
    theta: np.ndarray
    action: np.ndarray  # hbar times the stationary phase
    slope: np.ndarray  # the defect's slope at the root: the stationary-phase denominator


def _caustic(curve: CurveSpec, slope):
    """Roots whose denominator is below REL_CAUSTIC_TOL times r^2, its natural size."""
    return np.abs(slope) < REL_CAUSTIC_TOL * 2.0 * curve.action


def _stationary_sum(curve: CurveSpec, roots: _Roots, maslov: int, xi_p, xi_q):
    """(values, caustic) of the chords (xi_p[k], xi_q[k]): per chord, the sum over its roots of

        sqrt(2 pi hbar / |slope|) / (2 pi) exp[i action / hbar + i (pi/4) (sign(slope) + maslov)],

    added in root order, roots with |slope| below DENOMINATOR_FLOOR left out;
    and whether any of its roots is caustic. A term that is not finite (the
    phase of a chord far past the curve overflows) raises NumericalError.
    """
    count = xi_p.size
    kept = np.abs(roots.slope) >= DENOMINATOR_FLOOR
    chord, slope = roots.chord[kept], roots.slope[kept]
    with np.errstate(over="ignore", invalid="ignore"):
        phase = roots.action[kept] / curve.hbar + 0.25 * np.pi * (np.copysign(1.0, slope) + maslov)
        terms = np.sqrt(TWO_PI * curve.hbar / np.abs(slope)) / TWO_PI * np.exp(1j * phase)
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        k = chord[bad[0]]
        raise NumericalError(f"stationary-phase term at chord ({xi_p[k]:.6g}, {xi_q[k]:.6g}) "
                             "is not finite")
    values = np.empty(count, dtype=complex)
    values.real = np.bincount(chord, weights=terms.real, minlength=count)
    values.imag = np.bincount(chord, weights=terms.imag, minlength=count)
    caustic = np.bincount(roots.chord[_caustic(curve, roots.slope)], minlength=count) > 0
    return values, caustic


# -- tangencies and the short-chord asymptotics ----------------------------


@dataclass(frozen=True)
class Tangency:
    """Angle where the curve velocity is parallel to the chord."""

    theta: float
    point: PhasePoint
    curvature_wedge: float  # x''(theta) ∧ xi, the stationary-phase denominator
    flag: Flag


def _tangencies(curve: CurveSpec, xi_p, xi_q) -> _Roots:
    """Every tangency of a chord batch, its action x ∧ xi and curvature wedge x'' ∧ xi."""
    dp, dq = curve.velocity(_ANGLES)
    # the slope of the defect x' ∧ xi is the curvature wedge x'' ∧ xi
    chord, theta, _, curv = _unit_circle_roots(dp * xi_q[:, None] - dq * xi_p[:, None])
    p, q = curve.point(theta)
    return _Roots(chord, theta, p * xi_q[chord] - q * xi_p[chord], curv)


def tangency_points(curve: CurveSpec, xi) -> list[Tangency]:
    roots = _tangencies(curve, *_single(xi))
    p, q = curve.point(roots.theta)
    return [Tangency(theta=float(theta), point=PhasePoint(float(p), float(q)),
                     curvature_wedge=float(curv),
                     flag=Flag.NEAR_CAUSTIC if caustic else Flag.OK)
            for theta, p, q, curv, caustic in zip(roots.theta, p, q, roots.slope,
                                                  _caustic(curve, roots.slope))]


def sp_small_values(curve: CurveSpec, xi_p, xi_q):
    """Stationary-phase asymptotics of the classical average chi_s: (values, flag codes).

    At every chord (xi_p[k], xi_q[k]) of two 1-d arrays, (1/2 pi) times the
    sum over tangencies of
        sqrt(2 pi hbar / |x'' ∧ xi|)
            exp[i x ∧ xi / hbar + i (pi/4) sign(x'' ∧ xi)].
    """
    roots = _tangencies(curve, xi_p, xi_q)
    values, caustic = _stationary_sum(curve, roots, 0, xi_p, xi_q)
    # a closed curve is tangent to every direction at least twice; no
    # tangency means xi = 0, where every angle is stationary
    caustic |= np.bincount(roots.chord, minlength=xi_p.size) == 0
    return values, np.where(caustic, _NEAR_CAUSTIC, _OK).astype(np.uint8)


# -- chord realizations and the full stationary phase ----------------------


@dataclass(frozen=True)
class Realization:
    """A chord of the curve equal to xi, with its stationary-phase data."""

    theta_foot: float
    theta_tip: float
    foot: PhasePoint
    tip: PhasePoint
    h_prime: float
    sigma: float
    action: float
    flag: Flag


@dataclass(frozen=True)
class RealizationSet:
    realizations: tuple[Realization, ...]
    grazing: bool  # a complex pair of roots lies within REL_CAUSTIC_TOL of the unit circle


def _tip_angle(curve: CurveSpec, tip_p, tip_q, theta_foot):
    """Parameters of the tip points, each folded into (theta_foot, theta_foot + 2 pi].

    The shear leaves p = r cos(theta) untouched and moves q by H'(p) t, so
    u = q - H'(p) t = r sin(theta) and theta = atan2(u, p), well conditioned
    at every angle.
    """
    u = tip_q - curve.drift(tip_p) * curve.t
    miss = np.abs(np.hypot(tip_p, u) - curve.radius)
    off = np.flatnonzero(miss > 1e-6 * curve.radius)
    if off.size:
        k = off[0]
        raise NumericalError(
            f"realization tip {(float(tip_p[k]), float(tip_q[k]))} is not on the "
            f"curve (radial miss {miss[k]:.3e})")
    theta = np.arctan2(u, tip_p)
    behind = theta <= theta_foot
    while behind.any():
        theta = np.where(behind, theta + TWO_PI, theta)
        behind = theta <= theta_foot
    return theta


def _arc_area(curve: CurveSpec, theta0, theta1):
    """\\int_{theta0}^{theta1} x ∧ x' dtheta in closed form.

    With p = r cos(theta) the integrand is r^2 + t (3 a3 p^2 - a1) dp/dtheta,
    so its antiderivative is r^2 theta + t (a3 p^3 - a1 p).
    """
    _, a1, _, a3 = curve.alpha
    p0 = curve.radius * np.cos(theta0)
    p1 = curve.radius * np.cos(theta1)
    return (2.0 * curve.action * (theta1 - theta0)
            + curve.t * (a3 * (p1 ** 3 - p0 ** 3) - a1 * (p1 - p0)))


def _realizations(curve: CurveSpec, xi_p, xi_q):
    """(roots, grazing): every realization foot of a chord batch, its action
    (1/2) [arc + foot ∧ xi] and h', and per chord whether a complex root pair
    lies within REL_CAUSTIC_TOL of the unit circle."""
    # at xi = 0 every foot is its own tip and the level defect is pure
    # round-off: no realizations, and the chord counts as grazing
    moving = np.flatnonzero((xi_p != 0.0) | (xi_q != 0.0))
    p, q = curve.point(_ANGLES)
    # far past the curve the defect's quartic overflows: those rows get
    # non-finite harmonics, which trim to degree 0, so no roots and no grazing
    with np.errstate(over="ignore", invalid="ignore"):
        level = curve.action_value((p + xi_p[moving, None], q + xi_q[moving, None])) - curve.action
        chord, theta, miss, h_prime = _unit_circle_roots(level)
    grazing = np.ones(xi_p.size, dtype=bool)
    grazing[moving] = miss < REL_CAUSTIC_TOL
    chord = moving[chord]
    foot_p, foot_q = curve.point(theta)
    dp, dq = xi_p[chord], xi_q[chord]
    theta_tip = _tip_angle(curve, foot_p + dp, foot_q + dq, theta)
    action = 0.5 * (_arc_area(curve, theta, theta_tip) + (foot_p * dq - foot_q * dp))
    return _Roots(chord, theta, action, h_prime), grazing


def chord_realizations(curve: CurveSpec, xi) -> RealizationSet:
    xi_p, xi_q = _single(xi)
    roots, grazing = _realizations(curve, xi_p, xi_q)
    foot_p, foot_q = curve.point(roots.theta)
    tip_p, tip_q = foot_p + xi_p, foot_q + xi_q
    theta_tip = _tip_angle(curve, tip_p, tip_q, roots.theta)
    caustic = _caustic(curve, roots.slope)
    return RealizationSet(
        realizations=tuple(
            Realization(theta_foot=float(roots.theta[k]), theta_tip=float(theta_tip[k]),
                        foot=PhasePoint(float(foot_p[k]), float(foot_q[k])),
                        tip=PhasePoint(float(tip_p[k]), float(tip_q[k])),
                        h_prime=float(roots.slope[k]),
                        sigma=math.copysign(1.0, roots.slope[k]),
                        action=float(roots.action[k]),
                        flag=Flag.NEAR_CAUSTIC if caustic[k] else Flag.OK)
            for k in range(roots.theta.size)),
        grazing=bool(grazing[0]))


def sp_full_values(curve: CurveSpec, xi_p, xi_q):
    """Full stationary-phase chord function, a sum over chord realizations: (values, flag codes).

    At every chord (xi_p[k], xi_q[k]) of two 1-d arrays, each realization
    weighted as in the module docstring, Maslov phase (pi/4)(sigma - 2)
    included.
    """
    roots, grazing = _realizations(curve, xi_p, xi_q)
    values, caustic = _stationary_sum(curve, roots, -2, xi_p, xi_q)
    found = np.bincount(roots.chord, minlength=xi_p.size) > 0
    flags = np.where(found, np.where(caustic, _NEAR_CAUSTIC, _OK),
                     np.where(grazing, _NEAR_CAUSTIC, _EVANESCENT)).astype(np.uint8)
    return values, flags


def semiclassical_values(curve: CurveSpec, xi_p, xi_q, classical):
    """The composite chi_s - sp_small + sp_full of two 1-d chord arrays: (values, flag codes).

    ``classical`` holds chi_s at the same chords.
    """
    asym, asym_flags = sp_small_values(curve, xi_p, xi_q)
    full, full_flags = sp_full_values(curve, xi_p, xi_q)
    # where both stationary-phase pieces are unreliable the classical average
    # is the only trustworthy value (and is accurate for short chords, which
    # is where this fires outside the caustic rim)
    both_caustic = (asym_flags == _NEAR_CAUSTIC) & (full_flags == _NEAR_CAUSTIC)
    values = np.where(both_caustic, classical, classical - asym + full)
    flags = worst_flag_codes(asym_flags, full_flags)
    origin = (xi_p == 0.0) & (xi_q == 0.0)
    values[origin] = 1.0
    flags[origin] = _OK
    return values, flags


def chi_semiclassical(curve: CurveSpec, xi) -> ChordValue:
    """Composite semiclassical chord function chi_s - sp_small + sp_full."""
    classical = chi_small(curve, xi).value
    values, flags = semiclassical_values(curve, *_single(xi), np.array([classical]))
    return ChordValue(complex(values[0]), FLAGS_BY_CODE[int(flags[0])])
