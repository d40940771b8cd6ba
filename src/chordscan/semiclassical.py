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
phi + pi the angle of its largest |sample|, and read once: its samples in
order from that top one are g at s = pi + 2 pi m / 5 in every rotation,
and one einsum reads the exact real harmonics (a0, a1, b1, a2, b2) of g
off them through one fixed 5 x 5 map. Harmonics that are round-off are
trimmed by their rotation-invariant moduli: c_2 and c_-2 go together, so
the degree is 4, 2 or 0 (it drops on t = 0 curves, on the xi_p = 0 row and
when a3 = 0). In tau = tan(s/2), (1 + tau^2)^(deg/2) g is a real polynomial
whose leading coefficient is g(pi), the largest sample, so no root is lost
at tau = infinity even where theta = phi + pi is a root. Its coefficients
come off the same samples through one fixed map per degree, and its roots
in closed form: a quartic row splits by Ferrari's resolvent cubic
into two real quadratics, a quadratic row is one, each is solved by the
quadratic formula without cancellation, and a quartic's roots take one
Newton step on it. A real root that the coefficients' round-off could move
by more than _SHAKY eps (next to a double root: near caustics) takes one
more Newton step, against coefficients kept to twice double precision
and with a compensated residual, so its angle answers to the samples. No
iterative eigenvalue solve (and no BLAS or LAPACK call) is involved. Each
root maps back to z = exp(i phi) (1 + i tau) / (1 - i tau), and counts as a
real angle when |ln|z|| <= sqrt(ROUND_OFF): a double root splits by the
square root of the coefficients' round-off. h' and x'' ∧ xi are the
defects' slopes g'(s) at their roots, read off the same harmonics. Each
root is then one record (chord, theta, action, slope), and one sum serves
tangencies and realizations alike: np.bincount folds
sqrt(2 pi hbar / |slope|) / (2 pi) exp[i action / hbar + i (pi/4) (sign(slope) + m)],
m = 0 for sp_small and -2 for sp_full, into per-chord sums in each chord's
root order. sp_small_values, sp_full_values and semiclassical_values are its
batch entry points, the evaluators' kernels. The one-chord calls
tangency_points, chord_realizations and chi_semiclassical stay only for the
benchmark's tracer, until it reads library counters (ROADMAP item 1); the
first two return one _Roots record per root of their chord, from the same
batch solves.

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
with |ln|z|| < REL_CAUSTIC_TOL grazes the curve (_realizations' grazing);
with no real realizations left its value is flagged NEAR_CAUSTIC, and
farther out, where no realization exists, sp_full is zero and the value is
flagged EVANESCENT.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from .core import (FLAG_CODES, FLAGS_BY_CODE, ChordValue, Flag, two_product, two_sum,
                   worst_flag_codes)
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
# _FROM_TOP[j] lists the samples in order from sample j
_FROM_TOP = (np.arange(5)[:, np.newaxis] + np.arange(5)) % 5
# exp(i phi) of each rotation: tau = 0 is the angle phi = _ANGLES[j] - pi
_ROTATION = np.exp(1j * (_ANGLES - np.pi))
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
# a real root that its coefficients' round-off could move by more than
# _SHAKY eps is refined against coefficients kept to twice double precision
_SHAKY = 100.0


def _sample_maps():
    """The fixed maps from a row's five samples, in order from its top one,
    to the harmonics (a0, a1, b1, a2, b2) of g and to the tau-coefficients
    of each degree, both from one 40-digit table of the harmonics, built
    from the closed forms of cos and sin at multiples of 2 pi / 5.

    Returns (harmonics, tau): harmonics (5, 5), the table rounded once, and
    tau[deg] = (hi, lo), each (5, deg + 1), _HALF_ANGLE[deg] times the table
    to about 32 digits as hi + lo. Row m is for the sample m after the top.
    """
    with localcontext() as context:
        context.prec = 40
        root5 = Decimal(5).sqrt()
        cos = [Decimal(1), (root5 - 1) / 4, -(root5 + 1) / 4, -(root5 + 1) / 4, (root5 - 1) / 4]
        sin = [Decimal(0), (10 + 2 * root5).sqrt() / 4, (10 - 2 * root5).sqrt() / 4,
               -(10 - 2 * root5).sqrt() / 4, -(10 + 2 * root5).sqrt() / 4]
        # (a0, a1, b1, a2, b2) per sample m at s = pi + 2 pi m / 5, where
        # cos k s and sin k s are (-1)^k times their values at 2 pi k m / 5
        table = [[Decimal(1) / 5] + [Decimal(2 * sign) / 5 * values[k * m % 5]
                                     for k, sign in ((1, -1), (2, 1)) for values in (cos, sin)]
                 for m in range(5)]
        tau = {}
        for deg, half_angle in _HALF_ANGLE.items():
            exact = [[sum(int(weight) * harmonic for weight, harmonic in zip(coefficient, row))
                      for coefficient in half_angle] for row in table]
            low = [[value - Decimal(float(value)) for value in row] for row in exact]
            tau[deg] = np.array(exact, dtype=float), np.array(low, dtype=float)
    return np.array(table, dtype=float), tau


# the maps from a row's samples to its harmonics and tau-coefficients
_HARMONICS, _TAU = _sample_maps()

_OK = FLAG_CODES[Flag.OK]
_NEAR_CAUSTIC = FLAG_CODES[Flag.NEAR_CAUSTIC]
_EVANESCENT = FLAG_CODES[Flag.EVANESCENT]


def _quadratic_roots(b, c):
    """Both roots of tau^2 + b tau + c for real arrays b and c: complex, shape b.shape + (2,).

    The root of larger modulus, -b/2 - sign(b) sqrt(b^2/4 - c), adds terms
    of one sign, and the other is c over it, so neither cancels.
    """
    big = -0.5 * b - np.copysign(1.0, b) * np.sqrt(0.25 * b * b - c + 0j)
    return np.stack([big, np.where(big == 0.0, 0.0, c / big)], axis=-1)


def _resolvent_root(p, q, r):
    """The largest real root S of Ferrari's resolvent cubic S^3 + 2p S^2 + (p^2 - 4r) S - q^2.

    The cubic is -q^2 <= 0 at S = 0, so S >= 0. With three real roots the
    trigonometric form gives the largest; with one, Cardano's form with the
    cube root whose terms do not cancel. One Newton step on the cubic, kept
    where it lowers |cubic|, then settles the last digits.
    """
    c2, c1, c0 = 2.0 * p, p * p - 4.0 * r, -q * q
    # S = x - c2/3 gives the depressed cubic x^3 + P x + Q
    big_p = c1 - c2 * c2 / 3.0
    big_q = c2 * (2.0 * c2 * c2 - 9.0 * c1) / 27.0 + c0
    disc = 0.25 * big_q * big_q + big_p * big_p * big_p / 27.0
    m = np.sqrt(np.maximum(-big_p / 3.0, 0.0))
    cosine = np.minimum(np.maximum(-0.5 * big_q / (m * m * m), -1.0), 1.0)
    trig = 2.0 * m * np.cos(np.arccos(cosine) / 3.0)
    u = np.cbrt(-0.5 * big_q - np.copysign(np.sqrt(np.maximum(disc, 0.0)), big_q))
    cardano = np.where(u == 0.0, 0.0, u - big_p / (3.0 * u))
    s = np.where((disc <= 0.0) & (m > 0.0), trig, cardano) - c2 / 3.0
    value = ((s + c2) * s + c1) * s + c0
    step = s - value / ((3.0 * s + 2.0 * c2) * s + c1)
    better = np.abs(((step + c2) * step + c1) * step + c0) < np.abs(value)
    return np.maximum(np.where(better, step, s), 0.0)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _quartic_roots(coeffs):
    """The four complex roots of each real quartic coeffs[k, 0] tau^4 + ... + coeffs[k, 4].

    Ferrari: with tau = y - a/4 the monic quartic becomes y^4 + p y^2 + q y + r,
    which splits into the real quadratics (y^2 + s y + u)(y^2 - s y + v) with
    s^2 = S, the largest root of the resolvent cubic, u + v = p + S,
    s (v - u) = q and uv = r. As s -> 0 (q -> 0, a biquadratic) v - u = q/s
    is ill-conditioned; u and v are then better read as the roots of
    x^2 - (p + S) x + r, v - u with the sign of q. Each row keeps the pair
    that misses its unused relation (uv = r, or s (v - u) = q) least: a
    simplified form of Orellana & De Michele's Algorithm 1010 (ACM TOMS
    46(2), 2020), which picks among split formulas by the error each leaves
    in the quartic's coefficients. One Newton step on the quartic, kept
    where it lowers the residual, then polishes each root: the split's
    roots can be off by far more than the quartic's round-off relative to
    their own size, which a root near tau = 0 shows.
    """
    monic = coeffs[:, 1:] / coeffs[:, :1]
    a, b, c, d = monic.T
    a2 = a * a
    p = b - 0.375 * a2
    q = c - 0.5 * a * b + 0.125 * a2 * a
    r = d - 0.25 * a * c + a2 * (b / 16.0 - 3.0 * a2 / 256.0)
    big_s = _resolvent_root(p, q, r)
    s = np.sqrt(big_s)
    half = 0.5 * (p + big_s)
    gap = 0.5 * q / s
    # x^2 - (p + S) x + r without cancellation: far = half + sign(half) root
    # is the root of larger modulus, and it is v where half and q agree in sign
    far = half + np.copysign(np.sqrt(np.maximum(half * half - r, 0.0)), half)
    near = np.where(far == 0.0, 0.0, r / far)
    agree = np.signbit(q) == np.signbit(half)
    u2, v2 = np.where(agree, near, far), np.where(agree, far, near)
    split = np.abs((half - gap) * (half + gap) - r) <= np.abs(s * (v2 - u2) - q)
    factors = np.stack([np.where(split, half - gap, u2), np.where(split, half + gap, v2)], axis=1)
    tau = _quadratic_roots(np.stack([s, -s], axis=1), factors).reshape(-1, 4) - 0.25 * a[:, None]
    # the quartic and its slope at tau, by Horner
    a, b, c, d = (column[:, None] for column in (a, b, c, d))
    value, slope = tau + a, 1.0
    for coefficient in (b, c, d):
        slope = slope * tau + value
        value = value * tau + coefficient
    step = tau - value / slope
    moved = (((step + a) * step + b) * step + c) * step + d
    return np.where(np.abs(moved) < np.abs(value), step, tau)


def _tau_coefficients(rolled, deg):
    """The tau-coefficients of the rows ``rolled`` (K, 5), samples in order from
    the top one, as (high, low), each (K, deg + 1).

    high + low is the samples' exact image under _TAU[deg] to about twice
    double precision: every product's rounding error is recovered exactly
    (core.two_product), every addition's too (core.two_sum), and the map's
    own low part is added, as in Ogita, Rump and Oishi's Dot2. The map's
    sums cancel where the defect is small next to its samples, which is
    where a near-double root needs them.
    """
    hi, lo = (part[:, np.newaxis] for part in _TAU[deg])
    x = rolled.T[:, :, np.newaxis]
    product, carry = two_product(hi, x)
    total, carry = product[0], (carry + lo * x).sum(axis=0)
    for term in product[1:]:
        total, error = two_sum(total, term)
        carry += error
    high = total + carry
    return high, carry - (high - total)


def _shaky(tau):
    """Rows of ``tau`` (K, R), the roots of polynomials of degree R, with a real
    root that their coefficients' round-off could move by more than _SHAKY eps.

    The leading coefficient c_0 is the row's largest sample, the scale of
    every coefficient's round-off, so a root tau_i moves by up to about
    eps |c_0| sum_k |tau_i|^k / |p'(tau_i)|, and p'(tau_i) is
    c_0 prod_{j != i} (tau_i - tau_j): at most eps (1 + |tau_i|)^R over the
    product of its distances to the other roots.
    """
    gap = np.abs(tau[:, :, np.newaxis] - tau[:, np.newaxis, :])
    spread = np.prod(np.where(np.eye(tau.shape[1], dtype=bool), 1.0, gap), axis=2)
    return np.any((tau.imag == 0.0) & ((1.0 + np.abs(tau.real)) ** tau.shape[1] > _SHAKY * spread),
                  axis=1)


def _polish(high, low, tau):
    """Each real root in ``tau`` (K, R) after one Newton step on the polynomials
    high + low, their coefficients in two (K, R + 1) parts.

    The residual is Horner's sum with every product's and every addition's
    rounding error carried along (core.two_product and core.two_sum, in
    Graillat, Langlois and Louvet's compensated Horner), so next to a double
    root, where a plain residual is round-off, it still measures high + low.
    A step is kept where it is under half the distance to the row's nearest
    other root, so no two roots can meet; complex roots are returned as they
    are.
    """
    x = tau.real
    value, carry, slope = high[:, :1], low[:, :1], 0.0
    for k in range(1, high.shape[1]):
        slope = slope * x + (value + carry)
        product, error = two_product(value, x)
        value, sum_error = two_sum(product, high[:, k:k + 1])
        carry = carry * x + (error + sum_error) + low[:, k:k + 1]
    step = (value + carry) / slope
    gap = np.abs(tau[:, :, np.newaxis] - tau[:, np.newaxis, :])
    nearest = np.min(np.where(np.eye(tau.shape[1], dtype=bool), np.inf, gap), axis=2)
    return np.where((tau.imag == 0.0) & (np.abs(step) < 0.5 * nearest), x - step, tau)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _unit_circle_roots(samples):
    """Real roots of K trig polynomials of degree <= 2, and each one's nearest miss.

    Row k of the (K, 5) array ``samples`` holds defect k at the angles
    2 pi j / 5, which fix it exactly. Each row is rotated to
    g(s) = f(phi + s) with phi + pi at its largest |sample|; in the half
    angle tau = tan(s/2), (1 + tau^2)^2 g is a real quartic whose leading
    coefficient is that sample, so it never vanishes and no root runs off
    to tau = infinity. Each row is read once, its samples gathered in order
    from the top one, and its harmonics and tau-coefficients come off them
    through the fixed maps _HARMONICS and _TAU[deg], the same for every
    rotation. Leading harmonics that are round-off are trimmed first (a
    real defect loses c_2 and c_-2 together, leaving degree 4, 2 or 0).
    Quartic rows are solved in closed form by Ferrari's split into two real
    quadratics (_quartic_roots), quadratic rows by the quadratic formula,
    and rows with a root that round-off could move far (_shaky) are refined
    in twice double precision (_tau_coefficients, _polish). A root tau is
    the point z = exp(i phi) (1 + i tau) / (1 - i tau) of the unit-circle
    quartic z^2 f(z), and real angles are its roots on the circle.

    Returns (chord, theta, miss, slope): the row and the angle in [0, 2 pi)
    of every real root, the roots of each row in ascending angle (the order
    of its sums); per row the smallest |ln|z|| among the roots off the
    circle (inf if there are none); and per root its defect's slope there.
    """
    count = samples.shape[0]
    top = np.argmax(np.abs(samples), axis=1)
    rolled = np.take_along_axis(samples, _FROM_TOP[top], axis=1)
    harmonics = np.einsum("kj,jh->kh", rolled, _HARMONICS)
    pair = 0.5 * np.hypot(harmonics[:, 1::2], harmonics[:, 2::2])  # |c_1|, |c_2|
    floor = ROUND_OFF * np.maximum(np.abs(harmonics[:, 0]), np.max(pair, axis=1))
    degree = np.where(pair[:, 1] > floor, 4, np.where(pair[:, 0] > floor, 2, 0))
    miss = np.full(count, np.inf)
    chords, thetas, slopes = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
    for deg in (4, 2):
        rows = np.flatnonzero(degree == deg)
        if rows.size == 0:
            continue
        coeffs = np.einsum("kj,jd->kd", rolled[rows], _TAU[deg][0])
        if deg == 4:
            tau = _quartic_roots(coeffs)
        else:
            tau = _quadratic_roots(coeffs[:, 1] / coeffs[:, 0], coeffs[:, 2] / coeffs[:, 0])
        shaky = np.flatnonzero(_shaky(tau))
        if shaky.size:
            tau[shaky] = _polish(*_tau_coefficients(rolled[rows[shaky]], deg), tau[shaky])
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
    """The stationary points of a chord batch, one entry per root: the one
    record of a tangency and of a realization foot alike."""

    chord: np.ndarray
    theta: np.ndarray
    action: np.ndarray  # hbar times the stationary phase
    slope: np.ndarray  # the defect's slope at the root: the stationary-phase denominator


def _per_root(roots):
    """The batch records of one chord, split into one _Roots record per root."""
    return tuple(map(_Roots._make, zip(*roots)))


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


def _tangencies(curve: CurveSpec, xi_p, xi_q) -> _Roots:
    """Every tangency of a chord batch, its action x ∧ xi and curvature wedge x'' ∧ xi."""
    dp, dq = curve.velocity(_ANGLES)
    # the slope of the defect x' ∧ xi is the curvature wedge x'' ∧ xi
    chord, theta, _, curv = _unit_circle_roots(dp * xi_q[:, None] - dq * xi_p[:, None])
    p, q = curve.point(theta)
    return _Roots(chord, theta, p * xi_q[chord] - q * xi_p[chord], curv)


def tangency_points(curve: CurveSpec, xi) -> tuple[_Roots, ...]:
    return _per_root(_tangencies(curve, *_single(xi)))


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


class RealizationSet(NamedTuple):
    realizations: tuple[_Roots, ...]  # one record per realization


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
    return RealizationSet(_per_root(_realizations(curve, *_single(xi))[0]))


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
