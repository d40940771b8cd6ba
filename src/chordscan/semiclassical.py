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
* Each realization carries the symplectic area A between the arc
  theta_- -> theta_+ and the straight chord back,

      A = (1/2) [ \\int_{theta_-}^{theta_+} x ∧ x' dtheta + tip ∧ foot ],

  the transversality derivative h' = dI(x(theta) + xi)/dtheta at theta_-
  (I is the conserved-action function whose level set is the curve), and the
  two-point bracket {I at tip, I at foot} (for a circle its modulus is chord
  length times distance of the chord from the center).
* The full stationary-phase weight of a realization is

      sqrt(2 pi hbar) / (2 pi) |bracket|^(-1/2)
          exp[ i (A + midpoint ∧ xi) / hbar + i (pi/4) (sigma - 2) ],

  with sigma = sign(h') and midpoint the chord midpoint. The quarter-turn
  offset (sigma - 2) is pinned two independent ways: analytically by matching
  both branches to the J_0 asymptotics on the unsheared ring (hermiticity
  forces the two branch constants to differ by pi), and numerically by
  calibrate_maslov_offsets, which grid-searches the integer offsets against
  the closed-form ring chord function.

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
coefficients' round-off. Tip angle, arc area, bracket, h', sigma, curvature
wedge and every flag rule are then computed over the flattened roots of the
batch, and np.bincount folds the terms into per-chord sums in each chord's
root order. sp_small_values, sp_full_values and semiclassical_values are its
batch entry points, the evaluators' kernels. The one-chord calls
tangency_points, chord_realizations and chi_semiclassical stay only for the
benchmark's tracer, until it reads library counters (ROADMAP item 1).

The composite evaluator subtracts the asymptotics of the classical average
and adds the full stationary-phase value,

    chi_sc = chi_s - sp_small + sp_full,

so short chords inherit the classical average (the two stationary-phase terms
cancel) while long chords inherit sp_full (chi_s and its own asymptotics
cancel). Near caustics -- chords about to leave the curve, |h'| or the
bracket collapsing -- square-root amplitudes diverge; values there are
flagged NEAR_CAUSTIC and no uniform (Airy-type) repair is attempted. A caustic
is two realizations merging, two roots meeting on the unit circle; past it
they leave the circle as a complex pair (z, 1/conj(z)). A chord whose roots
include such a pair with |ln|z|| < REL_CAUSTIC_TOL grazes the curve
(RealizationSet.grazing); with no real realizations left its value is flagged
NEAR_CAUSTIC, and farther out, where no realization exists, sp_full is zero
and the value is flagged EVANESCENT.
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

    Returns (chord, theta, miss): the row and the angle in [0, 2 pi) of every
    real root, the roots of each row in ascending angle (the order of its
    sums), and per row the smallest |ln|z|| among the roots off the circle
    (inf if there are none).
    """
    count = samples.shape[0]
    top = np.argmax(np.abs(samples), axis=1)
    harmonics = np.einsum("khj,kj->kh", _HARMONICS[top], samples)
    pair = 0.5 * np.hypot(harmonics[:, 1::2], harmonics[:, 2::2])  # |c_1|, |c_2|
    floor = ROUND_OFF * np.maximum(np.abs(harmonics[:, 0]), np.max(pair, axis=1))
    degree = np.where(pair[:, 1] > floor, 4, np.where(pair[:, 0] > floor, 2, 0))
    miss = np.full(count, np.inf)
    chords, thetas = [np.zeros(0, dtype=int)], [np.zeros(0)]
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
        chords.append(np.broadcast_to(rows[:, np.newaxis], theta.shape)[real])
        thetas.append(theta[real])
    return np.concatenate(chords), np.concatenate(thetas), miss


def _chord_sums(chord, terms, count: int) -> np.ndarray:
    """Per-chord sums of ``terms``, each added in its order in the array."""
    out = np.empty(count, dtype=complex)
    out.real = np.bincount(chord, weights=terms.real, minlength=count)
    out.imag = np.bincount(chord, weights=terms.imag, minlength=count)
    return out


def _any_per_chord(chord, mask, count: int) -> np.ndarray:
    """Per chord: does any of its roots satisfy ``mask``?"""
    return np.bincount(chord[mask], minlength=count) > 0


def _single(xi):
    """One chord as the pair of one-element component arrays the kernel takes."""
    return np.array([float(xi[0])]), np.array([float(xi[1])])


# -- tangencies and the short-chord asymptotics ----------------------------


@dataclass(frozen=True)
class Tangency:
    """Angle where the curve velocity is parallel to the chord."""

    theta: float
    point: PhasePoint
    curvature_wedge: float  # x''(theta) ∧ xi, the stationary-phase denominator
    flag: Flag


class _Tangencies(NamedTuple):
    """Every tangency of a chord batch, one entry per root."""

    chord: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    q: np.ndarray
    curvature_wedge: np.ndarray
    caustic: np.ndarray


def _tangencies(curve: CurveSpec, xi_p, xi_q) -> _Tangencies:
    dp, dq = curve.velocity(_ANGLES)
    chord, theta, _ = _unit_circle_roots(dp * xi_q[:, None] - dq * xi_p[:, None])
    ddp, ddq = curve.acceleration(theta)
    curv = ddp * xi_q[chord] - ddq * xi_p[chord]
    p, q = curve.point(theta)
    tol = REL_CAUSTIC_TOL * 2.0 * curve.action  # fraction of r^2
    return _Tangencies(chord, theta, p, q, curv, np.abs(curv) < tol)


def tangency_points(curve: CurveSpec, xi) -> list[Tangency]:
    tan = _tangencies(curve, *_single(xi))
    return [Tangency(theta=float(theta), point=PhasePoint(float(p), float(q)),
                     curvature_wedge=float(curv),
                     flag=Flag.NEAR_CAUSTIC if caustic else Flag.OK)
            for theta, p, q, curv, caustic in zip(tan.theta, tan.p, tan.q,
                                                  tan.curvature_wedge, tan.caustic)]


def sp_small_values(curve: CurveSpec, xi_p, xi_q):
    """Stationary-phase asymptotics of the classical average chi_s: (values, flag codes).

    At every chord (xi_p[k], xi_q[k]) of two 1-d arrays, (1/2 pi) times the
    sum over tangencies of
        sqrt(2 pi hbar / |x'' ∧ xi|)
            exp[i x ∧ xi / hbar + i (pi/4) sign(x'' ∧ xi)].
    """
    count = xi_p.size
    tan = _tangencies(curve, xi_p, xi_q)
    kept = np.abs(tan.curvature_wedge) >= DENOMINATOR_FLOOR
    chord, curv = tan.chord[kept], tan.curvature_wedge[kept]
    phase = ((tan.p[kept] * xi_q[chord] - tan.q[kept] * xi_p[chord]) / curve.hbar
             + 0.25 * np.pi * np.copysign(1.0, curv))
    terms = np.sqrt(TWO_PI * curve.hbar / np.abs(curv)) / TWO_PI * np.exp(1j * phase)
    # a closed curve is tangent to every direction at least twice; no
    # tangency means xi = 0, where every angle is stationary
    caustic = (_any_per_chord(tan.chord, tan.caustic, count)
               | (np.bincount(tan.chord, minlength=count) == 0))
    flags = np.where(caustic, _NEAR_CAUSTIC, _OK).astype(np.uint8)
    return _chord_sums(chord, terms, count), flags


# -- chord realizations and the full stationary phase ----------------------


@dataclass(frozen=True)
class Realization:
    """A chord of the curve equal to xi, with its stationary-phase data."""

    theta_foot: float
    theta_tip: float
    foot: PhasePoint
    tip: PhasePoint
    midpoint: PhasePoint
    h_prime: float
    sigma: float
    area: float
    bracket: float
    flag: Flag


@dataclass(frozen=True)
class RealizationSet:
    realizations: tuple[Realization, ...]
    grazing: bool  # a complex pair of roots lies within REL_CAUSTIC_TOL of the unit circle


class _Geometry(NamedTuple):
    """Stationary-phase data of realization feet, one entry per foot."""

    theta_foot: np.ndarray
    theta_tip: np.ndarray
    foot_p: np.ndarray
    foot_q: np.ndarray
    tip_p: np.ndarray
    tip_q: np.ndarray
    h_prime: np.ndarray
    area: np.ndarray
    bracket: np.ndarray
    caustic: np.ndarray


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


def _geometry(curve: CurveSpec, theta_foot, xi_p, xi_q) -> _Geometry:
    """Stationary-phase data of the feet theta_foot[k] of the chords (xi_p[k], xi_q[k])."""
    foot_p, foot_q = curve.point(theta_foot)
    tip_p, tip_q = foot_p + xi_p, foot_q + xi_q
    theta_tip = _tip_angle(curve, tip_p, tip_q, theta_foot)
    area = 0.5 * (_arc_area(curve, theta_foot, theta_tip) + (tip_p * foot_q - tip_q * foot_p))

    grad_tip = curve.action_gradient((tip_p, tip_q))
    grad_foot = curve.action_gradient((foot_p, foot_q))
    bracket = grad_tip[1] * grad_foot[0] - grad_tip[0] * grad_foot[1]
    vel_p, vel_q = curve.velocity(theta_foot)
    h_prime = grad_tip[0] * vel_p + grad_tip[1] * vel_q

    scale = 2.0 * curve.action  # r^2, the natural size of both denominators
    caustic = np.minimum(np.abs(bracket), np.abs(h_prime)) < REL_CAUSTIC_TOL * scale
    return _Geometry(theta_foot, theta_tip, foot_p, foot_q, tip_p, tip_q,
                     h_prime, area, bracket, caustic)


def _realization(geo: _Geometry, k: int, xi) -> Realization:
    foot = PhasePoint(float(geo.foot_p[k]), float(geo.foot_q[k]))
    h_prime = float(geo.h_prime[k])
    return Realization(
        theta_foot=float(geo.theta_foot[k]), theta_tip=float(geo.theta_tip[k]),
        foot=foot, tip=PhasePoint(float(geo.tip_p[k]), float(geo.tip_q[k])),
        midpoint=PhasePoint(foot.p + 0.5 * float(xi[0]), foot.q + 0.5 * float(xi[1])),
        h_prime=h_prime, sigma=math.copysign(1.0, h_prime),
        area=float(geo.area[k]), bracket=float(geo.bracket[k]),
        flag=Flag.NEAR_CAUSTIC if geo.caustic[k] else Flag.OK)


def _realizations(curve: CurveSpec, xi_p, xi_q):
    """(chord, geometry, grazing): every realization of a chord batch, and per chord
    whether a complex root pair lies within REL_CAUSTIC_TOL of the unit circle."""
    # at xi = 0 every foot is its own tip and the level defect is pure
    # round-off: no realizations, and the chord counts as grazing
    moving = np.flatnonzero((xi_p != 0.0) | (xi_q != 0.0))
    p, q = curve.point(_ANGLES)
    # far past the curve the defect's quartic overflows: those rows get
    # non-finite harmonics, which trim to degree 0, so no roots and no grazing
    with np.errstate(over="ignore", invalid="ignore"):
        level = curve.action_value((p + xi_p[moving, None], q + xi_q[moving, None])) - curve.action
        chord, theta, miss = _unit_circle_roots(level)
    grazing = np.ones(xi_p.size, dtype=bool)
    grazing[moving] = miss < REL_CAUSTIC_TOL
    chord = moving[chord]
    return chord, _geometry(curve, theta, xi_p[chord], xi_q[chord]), grazing


def chord_realizations(curve: CurveSpec, xi) -> RealizationSet:
    _, geo, grazing = _realizations(curve, *_single(xi))
    return RealizationSet(
        realizations=tuple(_realization(geo, k, xi) for k in range(geo.theta_foot.size)),
        grazing=bool(grazing[0]))


def sp_full_values(curve: CurveSpec, xi_p, xi_q, offsets=(-2.0, -2.0)):
    """Full stationary-phase chord function, a sum over chord realizations: (values, flag codes).

    At every chord (xi_p[k], xi_q[k]) of two 1-d arrays. ``offsets`` are the
    quarter-turn constants added to the phase on the sigma = +1 and
    sigma = -1 branches; the default (-2, -2) is validated by
    calibrate_maslov_offsets and the closed-form ring tests.
    """
    count = xi_p.size
    chord, geo, grazing = _realizations(curve, xi_p, xi_q)
    kept = np.abs(geo.bracket) >= DENOMINATOR_FLOOR
    sel = chord[kept]
    sigma = np.copysign(1.0, geo.h_prime[kept])
    offset = np.where(sigma > 0, offsets[0], offsets[1])
    mid_p = geo.foot_p[kept] + 0.5 * xi_p[sel]
    mid_q = geo.foot_q[kept] + 0.5 * xi_q[sel]
    phase = ((geo.area[kept] + (mid_p * xi_q[sel] - mid_q * xi_p[sel])) / curve.hbar
             + 0.25 * np.pi * (sigma + offset))
    terms = (np.sqrt(TWO_PI * curve.hbar) / TWO_PI / np.sqrt(np.abs(geo.bracket[kept]))
             * np.exp(1j * phase))
    found = np.bincount(chord, minlength=count) > 0
    caustic = _any_per_chord(chord, geo.caustic, count)
    flags = np.where(found, np.where(caustic, _NEAR_CAUSTIC, _OK),
                     np.where(grazing, _NEAR_CAUSTIC, _EVANESCENT)).astype(np.uint8)
    return _chord_sums(sel, terms, count), flags


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


def calibrate_maslov_offsets(n: int = 5, hbar: float = 0.1,
                             search: range = range(-3, 4)) -> tuple[int, int]:
    """Recover the branch quarter-turn offsets from the closed-form ring.

    Evaluates sp_full with every integer offset pair on mid-ring chords of
    the unsheared state and returns the pair minimizing the worst-case error
    against the closed form. Development/validation tool; the winner is
    hard-coded into sp_full_values' default.
    """
    from .exact import fock_chi_radial

    state = CurveSpec(n=n, hbar=hbar)
    radii, angles = np.meshgrid(np.linspace(0.55, 1.45, 5) * state.radius, (0.3, 2.1),
                                indexing="ij")
    xi_p, xi_q = (radii * np.cos(angles)).ravel(), (radii * np.sin(angles)).ravel()
    reference = fock_chi_radial(n, hbar, np.hypot(xi_p, xi_q))
    best, best_err = None, np.inf
    for k_plus in search:
        for k_minus in search:
            values, _ = sp_full_values(state, xi_p, xi_q, offsets=(k_plus, k_minus))
            err = np.max(np.abs(values - reference))
            if err < best_err:
                best, best_err = (k_plus, k_minus), err
    return best
