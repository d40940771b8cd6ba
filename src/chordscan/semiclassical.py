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
unit-circle roots of a quartic in z = exp(i theta). _trig_roots samples a
defect at five equispaced angles, reads off its exact harmonics by FFT,
trims the coefficients that vanish (the degree drops on t = 0 curves, on the
xi_p = 0 row and when a3 = 0) and takes the companion-matrix eigenvalues
(Boyd, J. Eng. Math. 56, 2006). A root counts as a real angle when
|ln|z|| <= sqrt(ROUND_OFF): a double root splits by the square root of the
coefficients' round-off. The arc integral has the antiderivative

    \\int x ∧ x' dtheta = r^2 theta + t (a3 p^3 - a1 p).

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

import numpy as np

from .core import Chord, ChordValue, Flag, PhasePoint, wedge, worst_flag
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
# five-point transform and are trimmed; a double root splits by the square
# root of a coefficient error, so roots within sqrt(ROUND_OFF) of the unit
# circle count as real
ROUND_OFF = 1e-12


def _trig_roots(defect):
    """Real roots of a trig polynomial of degree <= 2, and its nearest miss.

    Five equispaced samples of ``defect`` fix its harmonics c_-2 .. c_2
    exactly, and the roots of f(theta) = sum c_m exp(i m theta) are the
    unit-circle roots of the quartic z^2 f(z), the eigenvalues of its
    companion matrix. Leading and trailing coefficients that are round-off
    are trimmed first (for a real defect they vanish in pairs). Returns
    (angles, miss): the real roots sorted in [0, 2 pi), and the smallest
    |ln|z|| among the roots off the circle (inf if there are none).
    """
    harmonics = np.fft.fft(defect(TWO_PI * np.arange(5) / 5)) / 5
    quartic = harmonics[[2, 1, 0, 4, 3]]  # c_2 .. c_-2: powers z^4 .. z^0
    scale = np.max(np.abs(quartic))
    while quartic.size > 1 and max(abs(quartic[0]), abs(quartic[-1])) <= ROUND_OFF * scale:
        quartic = quartic[1:-1]
    roots = np.roots(quartic)
    log_radius = np.abs(np.log(np.abs(roots)))
    on_circle = log_radius <= math.sqrt(ROUND_OFF)
    angles = np.sort(np.angle(roots[on_circle]) % TWO_PI)
    return [float(a) for a in angles], float(np.min(log_radius[~on_circle], initial=np.inf))


# -- tangencies and the short-chord asymptotics ----------------------------


@dataclass(frozen=True)
class Tangency:
    """Angle where the curve velocity is parallel to the chord."""

    theta: float
    point: PhasePoint
    curvature_wedge: float  # x''(theta) ∧ xi, the stationary-phase denominator
    flag: Flag


def tangency_points(curve: CurveSpec, xi) -> list[Tangency]:
    xi = np.asarray(xi, dtype=float)

    def parallel_defect(theta):
        dp, dq = curve.velocity(theta)
        return dp * xi[1] - dq * xi[0]

    roots, _ = _trig_roots(parallel_defect)
    tol = REL_CAUSTIC_TOL * 2.0 * curve.action  # fraction of r^2
    out = []
    for theta in roots:
        ddp, ddq = curve.acceleration(theta)
        curv = float(ddp * xi[1] - ddq * xi[0])
        p, q = curve.point(theta)
        flag = Flag.NEAR_CAUSTIC if abs(curv) < tol else Flag.OK
        out.append(Tangency(theta=float(theta), point=PhasePoint(float(p), float(q)),
                            curvature_wedge=curv, flag=flag))
    return out


def sp_small(curve: CurveSpec, xi) -> ChordValue:
    """Stationary-phase asymptotics of the classical average chi_s.

    (1/2 pi) sum over tangencies of
        sqrt(2 pi hbar / |x'' ∧ xi|)
            exp[i x ∧ xi / hbar + i (pi/4) sign(x'' ∧ xi)].
    """
    xi = np.asarray(xi, dtype=float)
    tangencies = tangency_points(curve, xi)
    total = 0.0 + 0.0j
    # a closed curve is tangent to every direction at least twice; no
    # tangency means xi = 0, where every angle is stationary
    flag = Flag.OK if tangencies else Flag.NEAR_CAUSTIC
    for tan in tangencies:
        flag = worst_flag(flag, tan.flag)
        if abs(tan.curvature_wedge) < DENOMINATOR_FLOOR:
            continue
        phase = (wedge(tan.point, xi) / curve.hbar
                 + 0.25 * np.pi * math.copysign(1.0, tan.curvature_wedge))
        total += (np.sqrt(TWO_PI * curve.hbar / abs(tan.curvature_wedge)) / TWO_PI
                  * np.exp(1j * phase))
    return ChordValue(complex(total), flag)


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


def _tip_angle(curve: CurveSpec, tip, theta_foot: float) -> float:
    """Parameter of the tip point, folded into (theta_foot, theta_foot + 2 pi].

    The shear leaves p = r cos(theta) untouched and moves q by H'(p) t, so
    u = q - H'(p) t = r sin(theta) and theta = atan2(u, p), well conditioned
    at every angle.
    """
    p = float(tip[0])
    u = float(tip[1] - curve.drift(p) * curve.t)
    miss = abs(math.hypot(p, u) - curve.radius)
    if miss > 1e-6 * curve.radius:
        raise NumericalError(
            f"realization tip {tuple(tip)} is not on the curve (radial miss {miss:.3e})")
    theta = math.atan2(u, p)
    while theta <= theta_foot:
        theta += TWO_PI
    return theta


def _arc_area(curve: CurveSpec, theta0: float, theta1: float) -> float:
    """\\int_{theta0}^{theta1} x ∧ x' dtheta in closed form.

    With p = r cos(theta) the integrand is r^2 + t (3 a3 p^2 - a1) dp/dtheta,
    so its antiderivative is r^2 theta + t (a3 p^3 - a1 p).
    """
    _, a1, _, a3 = curve.alpha
    p0 = curve.radius * math.cos(theta0)
    p1 = curve.radius * math.cos(theta1)
    return (2.0 * curve.action * (theta1 - theta0)
            + curve.t * (a3 * (p1 ** 3 - p0 ** 3) - a1 * (p1 - p0)))


def realization_geometry(curve: CurveSpec, theta_foot: float, xi) -> Realization:
    """Assemble the full stationary-phase data of one realization foot."""
    xi = np.asarray(xi, dtype=float)
    foot = np.array(curve.point(theta_foot), dtype=float)
    tip = foot + xi
    theta_tip = _tip_angle(curve, tip, theta_foot)
    area = 0.5 * (_arc_area(curve, theta_foot, theta_tip) + wedge(tip, foot))

    grad_tip = np.array(curve.action_gradient(tip), dtype=float)
    grad_foot = np.array(curve.action_gradient(foot), dtype=float)
    bracket = float(grad_tip[1] * grad_foot[0] - grad_tip[0] * grad_foot[1])
    velocity_foot = np.array(curve.velocity(theta_foot), dtype=float)
    h_prime = float(grad_tip @ velocity_foot)

    scale = 2.0 * curve.action  # r^2, the natural size of both denominators
    flag = (Flag.NEAR_CAUSTIC
            if min(abs(bracket), abs(h_prime)) < REL_CAUSTIC_TOL * scale
            else Flag.OK)
    return Realization(
        theta_foot=float(theta_foot), theta_tip=float(theta_tip),
        foot=PhasePoint(*foot), tip=PhasePoint(*tip),
        midpoint=PhasePoint(*(foot + 0.5 * xi)),
        h_prime=h_prime, sigma=math.copysign(1.0, h_prime),
        area=float(area), bracket=bracket, flag=flag)


def chord_realizations(curve: CurveSpec, xi) -> RealizationSet:
    xi = np.asarray(xi, dtype=float)
    if not xi.any():
        # every foot is its own tip; the level defect is pure round-off
        return RealizationSet(realizations=(), grazing=True)
    target = curve.action

    def level_defect(theta):
        p, q = curve.point(theta)
        return curve.action_value((p + xi[0], q + xi[1])) - target

    roots, miss = _trig_roots(level_defect)
    return RealizationSet(
        realizations=tuple(realization_geometry(curve, th, xi) for th in roots),
        grazing=miss < REL_CAUSTIC_TOL)


def sp_full(curve: CurveSpec, xi, _offsets: tuple[float, float] = (-2.0, -2.0)) -> ChordValue:
    """Full stationary-phase chord function: a sum over chord realizations.

    ``_offsets`` are the quarter-turn constants added to the phase on the
    sigma = +1 and sigma = -1 branches; the production value (-2, -2) is
    validated by calibrate_maslov_offsets and the closed-form ring tests.
    """
    xi = np.asarray(xi, dtype=float)
    found = chord_realizations(curve, xi)
    if not found.realizations:
        flag = Flag.NEAR_CAUSTIC if found.grazing else Flag.EVANESCENT
        return ChordValue(0.0 + 0.0j, flag)
    total = 0.0 + 0.0j
    flag = Flag.OK
    for real in found.realizations:
        flag = worst_flag(flag, real.flag)
        if abs(real.bracket) < DENOMINATOR_FLOOR:
            continue
        offset = _offsets[0] if real.sigma > 0 else _offsets[1]
        phase = ((real.area + wedge(real.midpoint, xi)) / curve.hbar
                 + 0.25 * np.pi * (real.sigma + offset))
        total += (np.sqrt(TWO_PI * curve.hbar) / TWO_PI / np.sqrt(abs(real.bracket))
                  * np.exp(1j * phase))
    return ChordValue(complex(total), flag)


def chi_semiclassical(curve: CurveSpec, xi, tol: float = 1e-10,
                      _classical: complex | None = None) -> ChordValue:
    """Composite semiclassical chord function chi_s - sp_small + sp_full.

    ``_classical`` lets grid drivers pass in a vectorized-batch value of the
    classical average instead of recomputing it chord by chord.
    """
    xi = np.asarray(xi, dtype=float)
    if float(np.hypot(xi[0], xi[1])) == 0.0:
        return ChordValue(1.0 + 0.0j, Flag.OK)
    classical = complex(_classical) if _classical is not None \
        else chi_small(curve, xi, tol=tol).value
    asym = sp_small(curve, xi)
    full = sp_full(curve, xi)
    if asym.flag is Flag.NEAR_CAUSTIC and full.flag is Flag.NEAR_CAUSTIC:
        # both stationary-phase pieces are unreliable; the classical average
        # is the only trustworthy value (and is accurate for short chords,
        # which is where this fires outside the caustic rim)
        return ChordValue(classical, Flag.NEAR_CAUSTIC)
    value = classical - asym.value + full.value
    return ChordValue(value, worst_flag(asym.flag, full.flag))


def calibrate_maslov_offsets(n: int = 5, hbar: float = 0.1,
                             search: range = range(-3, 4)) -> tuple[int, int]:
    """Recover the branch quarter-turn offsets from the closed-form ring.

    Evaluates sp_full with every integer offset pair on mid-ring chords of
    the unsheared state and returns the pair minimizing the worst-case error
    against the closed form. Development/validation tool; the winner is
    hard-coded into sp_full's default.
    """
    from .exact import fock_chi_closed

    state = CurveSpec(n=n, hbar=hbar)
    chords = [Chord(s * math.cos(a), s * math.sin(a))
              for s in np.linspace(0.55, 1.45, 5) * state.radius
              for a in (0.3, 2.1)]
    reference = [complex(fock_chi_closed(n, hbar, c)) for c in chords]
    best, best_err = None, np.inf
    for k_plus in search:
        for k_minus in search:
            err = max(abs(complex(sp_full(state, c, _offsets=(k_plus, k_minus))) - ref)
                      for c, ref in zip(chords, reference))
            if err < best_err:
                best, best_err = (k_plus, k_minus), err
    return best
