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
in closed form, in real arithmetic (no complex array is formed): a quartic
row splits by Ferrari's resolvent cubic into two real quadratics, a
quadratic row is one, and each quadratic gives a pair, two real roots by
the quadratic formula without cancellation or a conjugate pair x +- i y.
A quartic's real roots take one Newton step on it, and one root x + i y of
each conjugate pair takes its own. A real root that the coefficients'
round-off could move by more than _SHAKY eps (next to a double root: near
caustics; its spread is read from the pairs) takes one more Newton step,
against coefficients kept to twice double precision and with a
compensated residual, so its angle answers to the samples. No iterative
eigenvalue solve (and no BLAS or LAPACK call) is involved. A real root is
the angle theta = phi + 2 arctan(tau). A conjugate pair stands for two
roots z and 1/conj(z) of the unit-circle quartic, at one angle and
|ln|z|| = |ln(((1 - y)^2 + x^2) / ((1 + y)^2 + x^2))| / 2 off the circle;
within sqrt(ROUND_OFF) it counts as a double real angle, since a double
root splits by the square root of the coefficients' round-off. h' and
x'' ∧ xi are the defects' slopes g'(s) at their roots, read off the same
harmonics. Each row's roots depend on that row alone, so the composite
solves its chords' tangency and level defects as rows of one call and
splits the roots by row. Each root is then one record (chord, theta,
action, slope), and one sum serves tangencies and realizations alike:
np.bincount folds
sqrt(2 pi hbar / |slope|) / (2 pi) exp[i action / hbar + i (pi/4) (sign(slope) + m)],
m = 0 for sp_small and -2 for sp_full, into per-chord sums in each chord's
root order. sp_small_values, sp_full_values and semiclassical_values are its
batch entry points, the evaluators' kernels, and refuse a non-finite chord
as evaluate does. The one-chord calls tangency_points, chord_realizations
and chi_semiclassical stay only for the benchmark's tracer, until it reads
library counters (ROADMAP item 1); the first two return one _Roots record
per root of their chord, from the same batch solves.

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

from .core import (FLAG_CODES, FLAGS_BY_CODE, ChordValue, Flag, refuse_non_finite,
                   two_product, two_sum, worst_flag_codes)
from .curves import CurveSpec
from .quadrature import NumericalError
from .smallchord import chi_small_points

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
# the two quadratic factors of a quartic, as rows: (y^2 + s y + u)(y^2 - s y + v)
_SIGN = np.array([[1.0], [-1.0]])
_SECOND = np.array([[False], [True]])


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
    """The roots of tau^2 + b tau + c for real (P, K) arrays b and c, as
    pairs (tau, real): tau (P, 2, K) and real (P, K).

    Where ``real``, tau[j, :, k] holds two real roots: the one of larger
    modulus, -b/2 - sign(b) sqrt(b^2/4 - c), adds terms of one sign, and the
    other is c over it, so neither cancels. Elsewhere it holds (x, y), y > 0,
    of the conjugate pair x +- i y.
    """
    half = -0.5 * b
    disc = half * half - c
    real = disc >= 0.0
    root = np.sqrt(np.abs(disc))
    big = half - np.copysign(root, b)
    return (np.stack([np.where(real, big, half),
                      np.where(real, np.where(big == 0.0, 0.0, c / big), root)], axis=1), real)


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


def _divide_by_pair(monic, x, y):
    """The monic quartics tau^4 + a tau^3 + b tau^2 + c tau + d, (a, b, c, d)
    the rows of ``monic`` (4, K), divided by (tau - z)(tau - conj z) =
    tau^2 - S tau + P for z = x + i y, x and y (P, K) arrays: the remainder
    r1 tau + r0 and the quotient Q(z) = lead z + rest, in real arithmetic.

    So p(z) = r1 z + r0 and p'(z) = (z - conj z) Q(z) + r1 = 2 i y Q(z) + r1.
    """
    a, b, c, d = monic
    s, p = 2.0 * x, x * x + y * y
    q1 = a + s
    q0 = b + s * q1 - p
    r1 = c + s * q0 - p * q1
    return r1, d - p * q0, s + q1, q0 - p


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _quartic_roots(coeffs):
    """The roots of the real quartics coeffs[0, k] tau^4 + ... + coeffs[4, k]
    as two pairs (tau, real) per quartic, laid out as _quadratic_roots has
    them: tau (2, 2, K), real (2, K).

    Ferrari: with tau = y - a/4 the monic quartic becomes y^4 + p y^2 + q y + r,
    which splits into the real quadratics (y^2 + s y + u)(y^2 - s y + v) with
    s^2 = S, the largest root of the resolvent cubic, u + v = p + S,
    s (v - u) = q and uv = r. As s -> 0 (q -> 0, a biquadratic) v - u = q/s
    is ill-conditioned; u and v are then better read as the roots of
    x^2 - (p + S) x + r, v - u with the sign of q. Each quartic keeps the
    pair that misses its unused relation (uv = r, or s (v - u) = q) least: a
    simplified form of Orellana & De Michele's Algorithm 1010 (ACM TOMS
    46(2), 2020), which picks among split formulas by the error each leaves
    in the quartic's coefficients. One Newton step on the quartic then
    polishes each real root, kept where it lowers the residual, and one root
    x + i y of each conjugate pair (_divide_by_pair): the split's roots can
    be off by far more than the quartic's round-off relative to their own
    size, which a root near tau = 0 and a near-double pair show.
    """
    monic = coeffs[1:] / coeffs[0]
    a, b, c, d = monic
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
    # rows u and v of the two factors, the first with slope s
    uv = np.where(agree ^ _SECOND, near, far)
    split = np.abs((half - gap) * (half + gap) - r) <= np.abs(s * (uv[1] - uv[0]) - q)
    tau, real = _quadratic_roots(_SIGN * s, np.where(split, half - _SIGN * gap, uv))
    shift = 0.25 * a
    tau[:, 0] -= shift
    tau[:, 1] -= shift * real
    # the real roots: the quartic and its slope at tau, by Horner
    value, slope = tau + a, 1.0
    for coefficient in (b, c, d):
        slope = slope * tau + value
        value = value * tau + coefficient
    step = tau - value / slope
    moved = (((step + a) * step + b) * step + c) * step + d
    tau = np.where(real[:, np.newaxis] & (np.abs(moved) < np.abs(value)), step, tau)
    # one root x + i y of each conjugate pair: Newton's step p(z) / p'(z),
    # kept where it is under half the distance to x - i y, so the pair cannot
    # merge; a longer step is the round-off of a near-double pair
    x, y = tau[:, 0], tau[:, 1]
    r1, r0, lead, rest = _divide_by_pair(monic, x, y)
    value_re, value_im = r1 * x + r0, r1 * y
    slope_re, slope_im = r1 - 2.0 * y * (lead * y), 2.0 * y * (lead * x + rest)
    size = slope_re * slope_re + slope_im * slope_im
    step_x = (value_re * slope_re + value_im * slope_im) / size
    step_y = (value_im * slope_re - value_re * slope_im) / size
    better = ~real & (step_x * step_x + step_y * step_y < y * y)
    tau[:, 0], tau[:, 1] = np.where(better, x - step_x, x), np.where(better, y - step_y, y)
    return tau, real


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


def _shaky(tau, real):
    """Rows of the root pairs ``tau`` (P, 2, K), ``real`` (P, K), the roots of
    K polynomials of degree R = 2P, with a real root that their
    coefficients' round-off could move by more than _SHAKY eps.

    The leading coefficient c_0 is the row's largest sample, the scale of
    every coefficient's round-off, so a root tau_i moves by up to about
    eps |c_0| sum_k |tau_i|^k / |p'(tau_i)|, and p'(tau_i) is
    c_0 prod_{j != i} (tau_i - tau_j): at most eps (1 + |tau_i|)^R over the
    product of its distances to the other roots: its partner's, and the
    other pair's, (tau_i - o_0)(tau_i - o_1) for real roots o_0 and o_1, and
    (tau_i - x)^2 + y^2 for x +- i y.
    """
    spread = np.abs(tau[:, :1] - tau[:, 1:])
    size = (1.0 + np.abs(tau)) ** 2
    if tau.shape[0] == 2:
        other = tau[::-1, np.newaxis]
        apart = tau[:, :, np.newaxis] - other
        spread = spread * np.abs(np.where(real[::-1, np.newaxis], apart[:, :, 0] * apart[:, :, 1],
                                          apart[:, :, 0] ** 2 + other[:, :, 1] ** 2))
        size = size * size
    shaky = real[:, np.newaxis] & (size > _SHAKY * spread)
    return shaky.reshape(-1, tau.shape[2]).any(axis=0)


def _polish(high, low, tau, real):
    """Each real root of the pairs ``tau`` (P, 2, K), ``real`` (P, K), after
    one Newton step on the polynomials high + low, their coefficients in two
    (K, 2P + 1) parts.

    The residual is Horner's sum with every product's and every addition's
    rounding error carried along (core.two_product and core.two_sum, in
    Graillat, Langlois and Louvet's compensated Horner), so next to a double
    root, where a plain residual is round-off, it still measures high + low.
    A step is kept where it is under half the distance to the row's nearest
    other root, so no two roots can meet; conjugate pairs are returned as
    they are.
    """
    x = tau.reshape(-1, tau.shape[2])
    value, carry, slope = high[:, 0], low[:, 0], 0.0
    for k in range(1, high.shape[1]):
        slope = slope * x + (value + carry)
        product, error = two_product(value, x)
        value, sum_error = two_sum(product, high[:, k])
        carry = carry * x + (error + sum_error) + low[:, k]
    step = ((value + carry) / slope).reshape(tau.shape)
    nearest = np.abs(tau[:, :1] - tau[:, 1:])  # the partner
    if tau.shape[0] == 2:
        other = tau[::-1, np.newaxis]
        apart = tau[:, :, np.newaxis] - other
        # x +- i y lie at one distance from a real root
        to_other = np.where(real[::-1, np.newaxis, np.newaxis], np.abs(apart),
                            np.hypot(apart[:, :, :1], other[:, :, 1:]))
        nearest = np.minimum(nearest, np.min(to_other, axis=2))
    return np.where(real[:, np.newaxis] & (np.abs(step) < 0.5 * nearest), tau - step, tau)


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
    quadratics (_quartic_roots), quadratic rows by the quadratic formula;
    each quadratic gives a real pair or a conjugate pair x +- i y, and
    rows with a real root that round-off could move far (_shaky) are
    refined in twice double precision (_tau_coefficients, _polish). A real
    root is the angle theta = phi + 2 arctan(tau). A conjugate pair is the
    roots z = exp(i phi) (1 + i tau) / (1 - i tau) and 1 / conj(z) of the
    unit-circle quartic z^2 f(z), both at the angle
    phi + atan2(2x, 1 - x^2 - y^2) and
    |ln|z|| = |ln(((1 - y)^2 + x^2) / ((1 + y)^2 + x^2))| / 2 off the circle:
    within sqrt(ROUND_OFF) it is a double root that round-off split, two
    real angles, and otherwise a miss. No complex array is formed.

    Returns (chord, theta, miss, slope): the row and the angle in [0, 2 pi)
    of every real root, the roots of each row in ascending angle (the order
    of its sums); per row the smallest |ln|z|| among the roots off the
    circle (inf if there are none); and per root its defect's slope there.
    Each row's roots depend on that row alone.
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
        coeffs = np.einsum("kj,jd->kd", rolled[rows], _TAU[deg][0]).T
        if deg == 4:
            tau, real = _quartic_roots(coeffs)
        else:
            tau, real = _quadratic_roots(coeffs[1:2] / coeffs[0], coeffs[2:] / coeffs[0])
        shaky = np.flatnonzero(_shaky(tau, real))
        if shaky.size:
            tau[..., shaky] = _polish(*_tau_coefficients(rolled[rows[shaky]], deg),
                                      tau[..., shaky], real[:, shaky])
        x, y = tau[:, 0], tau[:, 1]
        log_radius = 0.5 * np.abs(np.log1p(-4.0 * y / ((1.0 + y) * (1.0 + y) + x * x)))
        double = ~real & (log_radius <= math.sqrt(ROUND_OFF))
        on_circle = real | double
        miss[rows] = np.min(np.where(on_circle, np.inf, log_radius), axis=0)
        # theta - phi of each real root, and of both roots of a double pair
        turn = 2.0 * np.arctan(tau)
        if double.any():
            x, y = x[double], y[double]
            turn.transpose(0, 2, 1)[double] = np.arctan2(
                2.0 * x, (1.0 - x) * (1.0 + x) - y * y)[:, np.newaxis]
        theta = turn + (_ANGLES[top[rows]] - np.pi)
        theta += TWO_PI * (theta < 0.0)
        # roots off the circle sort last as inf and are dropped; the rows'
        # first roots come first, then their second, ...
        theta = np.sort(np.where(on_circle[:, np.newaxis], theta, np.inf).reshape(-1, rows.size),
                        axis=0)
        found = np.isfinite(theta)
        chord = np.broadcast_to(rows, theta.shape)[found]
        # df/dtheta = g'(s) at s = theta - phi, from the harmonics the quartic kept
        _, a1, b1, a2, b2 = (harmonics[chord] * (np.arange(5) <= deg)).T
        s = (theta - _ANGLES[top[rows]] + np.pi)[found]
        cos, sin = np.cos(s), np.sin(s)
        slopes.append(b1 * cos - a1 * sin
                      + 2.0 * b2 * (cos + sin) * (cos - sin) - 4.0 * a2 * sin * cos)
        chords.append(chord)
        thetas.append(theta[found])
    return np.concatenate(chords), np.concatenate(thetas), miss, np.concatenate(slopes)


def _single(xi):
    """One chord as the pair of one-element component arrays the kernel takes;
    a non-finite chord is a ValueError (core.refuse_non_finite), as in evaluate."""
    xi_p, xi_q = np.array([float(xi[0])]), np.array([float(xi[1])])
    refuse_non_finite(xi_p, xi_q)
    return xi_p, xi_q


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
    phase of a chord far past the curve overflows) raises NumericalError,
    naming the first such chord of the batch.
    """
    count = xi_p.size
    kept = np.abs(roots.slope) >= DENOMINATOR_FLOOR
    chord, slope = roots.chord[kept], roots.slope[kept]
    with np.errstate(over="ignore", invalid="ignore"):
        phase = roots.action[kept] / curve.hbar + 0.25 * np.pi * (np.copysign(1.0, slope) + maslov)
        amplitude = np.sqrt(TWO_PI * curve.hbar / np.abs(slope)) / TWO_PI
        real, imag = amplitude * np.cos(phase), amplitude * np.sin(phase)
    bad = ~(np.isfinite(real) & np.isfinite(imag))
    if bad.any():
        k = np.min(chord[bad])
        raise NumericalError(f"stationary-phase term at chord ({xi_p[k]:.6g}, {xi_q[k]:.6g}) "
                             "is not finite")
    values = np.empty(count, dtype=complex)
    values.real = np.bincount(chord, weights=real, minlength=count)
    values.imag = np.bincount(chord, weights=imag, minlength=count)
    caustic = np.bincount(roots.chord[_caustic(curve, roots.slope)], minlength=count) > 0
    return values, caustic


# -- tangencies and the short-chord asymptotics ----------------------------


def _tangency_samples(curve: CurveSpec, xi_p, xi_q):
    """The tangency defect x' ∧ xi of each chord at the five sample angles, (K, 5)."""
    dp, dq = curve.velocity(_ANGLES)
    return dp * xi_q[:, None] - dq * xi_p[:, None]


def _tangency_records(curve: CurveSpec, xi_p, xi_q, chord, theta, slope) -> _Roots:
    """The tangencies at the roots (chord, theta) of the tangency defect, with
    their action x ∧ xi; the defect's slope is the curvature wedge x'' ∧ xi."""
    p, q = curve.point(theta)
    return _Roots(chord, theta, p * xi_q[chord] - q * xi_p[chord], slope)


def _tangencies(curve: CurveSpec, xi_p, xi_q) -> _Roots:
    """Every tangency of a chord batch, its action x ∧ xi and curvature wedge x'' ∧ xi."""
    chord, theta, _, slope = _unit_circle_roots(_tangency_samples(curve, xi_p, xi_q))
    return _tangency_records(curve, xi_p, xi_q, chord, theta, slope)


def tangency_points(curve: CurveSpec, xi) -> tuple[_Roots, ...]:
    return _per_root(_tangencies(curve, *_single(xi)))


def _sp_small(curve: CurveSpec, tangencies: _Roots, xi_p, xi_q):
    """sp_small's (values, flag codes) from the batch's tangencies."""
    values, caustic = _stationary_sum(curve, tangencies, 0, xi_p, xi_q)
    # a closed curve is tangent to every direction at least twice; no
    # tangency means xi = 0, where every angle is stationary
    caustic |= np.bincount(tangencies.chord, minlength=xi_p.size) == 0
    return values, np.where(caustic, _NEAR_CAUSTIC, _OK).astype(np.uint8)


def sp_small_values(curve: CurveSpec, xi_p, xi_q):
    """Stationary-phase asymptotics of the classical average chi_s: (values, flag codes).

    At every chord (xi_p[k], xi_q[k]) of two 1-d arrays, (1/2 pi) times the
    sum over tangencies of
        sqrt(2 pi hbar / |x'' ∧ xi|)
            exp[i x ∧ xi / hbar + i (pi/4) sign(x'' ∧ xi)].
    A non-finite chord is a ValueError (core.refuse_non_finite).
    """
    refuse_non_finite(xi_p, xi_q)
    return _sp_small(curve, _tangencies(curve, xi_p, xi_q), xi_p, xi_q)


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


def _level_samples(curve: CurveSpec, xi_p, xi_q):
    """(moving, samples): the chords other than xi = 0, and their realization
    defect I(x(theta) + xi) - I at the five sample angles, (moving.size, 5)."""
    # at xi = 0 every foot is its own tip and the level defect is pure
    # round-off: that chord is not solved
    moving = np.flatnonzero((xi_p != 0.0) | (xi_q != 0.0))
    p, q = curve.point(_ANGLES)
    # far past the curve the defect's quartic overflows: those rows get
    # non-finite harmonics, which trim to degree 0, so no roots and no grazing
    with np.errstate(over="ignore", invalid="ignore"):
        level = curve.action_value((p + xi_p[moving, None], q + xi_q[moving, None])) - curve.action
    return moving, level


def _realization_records(curve: CurveSpec, xi_p, xi_q, moving, chord, theta, miss, slope):
    """(roots, grazing) from the roots of the level defects of the chords
    ``moving``, numbered as its rows: every realization foot with its action
    (1/2) [arc + foot ∧ xi] and its slope h', and per chord whether a complex
    root pair lies within REL_CAUSTIC_TOL of the unit circle (xi = 0 grazes)."""
    grazing = np.ones(xi_p.size, dtype=bool)
    grazing[moving] = miss < REL_CAUSTIC_TOL
    chord = moving[chord]
    foot_p, foot_q = curve.point(theta)
    dp, dq = xi_p[chord], xi_q[chord]
    theta_tip = _tip_angle(curve, foot_p + dp, foot_q + dq, theta)
    action = 0.5 * (_arc_area(curve, theta, theta_tip) + (foot_p * dq - foot_q * dp))
    return _Roots(chord, theta, action, slope), grazing


def _realizations(curve: CurveSpec, xi_p, xi_q):
    """(roots, grazing): every realization foot of a chord batch, its action
    and h', and per chord whether it grazes the curve (_realization_records)."""
    moving, level = _level_samples(curve, xi_p, xi_q)
    return _realization_records(curve, xi_p, xi_q, moving, *_unit_circle_roots(level))


def chord_realizations(curve: CurveSpec, xi) -> RealizationSet:
    return RealizationSet(_per_root(_realizations(curve, *_single(xi))[0]))


def _sp_full(curve: CurveSpec, realizations: _Roots, grazing, xi_p, xi_q):
    """sp_full's (values, flag codes) from the batch's realizations and grazing."""
    values, caustic = _stationary_sum(curve, realizations, -2, xi_p, xi_q)
    found = np.bincount(realizations.chord, minlength=xi_p.size) > 0
    flags = np.where(found, np.where(caustic, _NEAR_CAUSTIC, _OK),
                     np.where(grazing, _NEAR_CAUSTIC, _EVANESCENT)).astype(np.uint8)
    return values, flags


def sp_full_values(curve: CurveSpec, xi_p, xi_q):
    """Full stationary-phase chord function, a sum over chord realizations: (values, flag codes).

    At every chord (xi_p[k], xi_q[k]) of two 1-d arrays, each realization
    weighted as in the module docstring, Maslov phase (pi/4)(sigma - 2)
    included. A non-finite chord is a ValueError (core.refuse_non_finite).
    """
    refuse_non_finite(xi_p, xi_q)
    return _sp_full(curve, *_realizations(curve, xi_p, xi_q), xi_p, xi_q)


def _stationary_points(curve: CurveSpec, xi_p, xi_q):
    """(tangencies, realizations, grazing) of a chord batch from one root
    solve: its tangency defects and its level defects are rows of one
    _unit_circle_roots call, whose roots are then split by row. Each row's
    roots depend on that row alone, so the records are those of
    _tangencies and _realizations."""
    count = xi_p.size
    moving, level = _level_samples(curve, xi_p, xi_q)
    chord, theta, miss, slope = _unit_circle_roots(
        np.concatenate([_tangency_samples(curve, xi_p, xi_q), level]))
    tangency = chord < count
    foot = ~tangency
    return (_tangency_records(curve, xi_p, xi_q, chord[tangency], theta[tangency],
                              slope[tangency]),
            *_realization_records(curve, xi_p, xi_q, moving, chord[foot] - count, theta[foot],
                                  miss[count:], slope[foot]))


def semiclassical_values(curve: CurveSpec, xi_p, xi_q, classical):
    """The composite chi_s - sp_small + sp_full of two 1-d chord arrays: (values, flag codes).

    ``classical`` holds chi_s at the same chords. A non-finite chord is a
    ValueError (core.refuse_non_finite).
    """
    refuse_non_finite(xi_p, xi_q)
    tangencies, realizations, grazing = _stationary_points(curve, xi_p, xi_q)
    asym, asym_flags = _sp_small(curve, tangencies, xi_p, xi_q)
    full, full_flags = _sp_full(curve, realizations, grazing, xi_p, xi_q)
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
    xi_p, xi_q = _single(xi)
    values, flags = semiclassical_values(curve, xi_p, xi_q, chi_small_points(curve, xi_p, xi_q))
    return ChordValue(complex(values[0]), FLAGS_BY_CODE[int(flags[0])])
