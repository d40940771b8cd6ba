"""Short-chord route: classical curve average, moments, blind-spot ellipse.

For chords short against the curve's geometry the chord function is the plain
classical average over the quantized curve,

    chi_s(xi) = (1/2 pi) \\oint dtheta exp[i x(theta) ∧ xi / hbar],

(J_0(r |xi| / hbar) for an unsheared ring), one trapezoid pass per chord on
a node count its phase's Bessel tail fixes in advance. Its Taylor
coefficients at the origin are classical moments of the curve, each one
exact trapezoid sum. The quantum moments are the state's own: state_moments
gives them in closed form, and moments_from_chi, which differentiates an
evaluated chord function at the origin, cross-checks it. Truncating the
expansion at second order and solving for the nearest zero along the mean
direction yields the blind-spot ellipse estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .core import Chord, ChordValue, PhasePoint, plane_wave, refuse_non_finite
from .curves import CurveSpec
from .quadrature import ConvergenceError, NumericalError, richardson_derivative

AVERAGE_MAX_NODES = 64 * 2 ** 12  # classical average: a chord whose rule needs more is refused
DERIVATIVE_TOL = 1e-8  # moments_from_chi: m-th derivative of chi at 0, relative to (R / hbar)^m


def _average_nodes(curve: CurveSpec, xi_p, xi_q) -> np.ndarray:
    """Trapezoid nodes for chi_s at each chord (xi_p[k], xi_q[k]), from its phase's Bessel tail.

    On the curve x ∧ xi / hbar = -c + a cos(theta + phi) - b cos 2 theta, with
    c = t (a1 + 3 a3 r^2 / 2) xi_p / hbar, a = r |(xi_q - 2 t a2 xi_p, xi_p)| / hbar
    and b = 3 t a3 r^2 xi_p / 2 hbar, so its slope is at most omega = a + 2 |b|.
    By Jacobi-Anger an N-node rule errs by the plane wave's Fourier coefficients
    at multiples of N, which past omega fall like a Bessel tail (Trefethen &
    Weideman, SIAM Rev. 56, 2014); N = 2^ceil(log2(omega + 10 omega^(1/3) + 32)),
    largest over a rectangle at a corner, omega being convex in xi. A phase
    bound |c| + omega that is not finite is a NumericalError, and N past
    AVERAGE_MAX_NODES a ConvergenceError.
    """
    _, a1, a2, a3 = curve.alpha
    r, t = curve.radius, curve.t
    with np.errstate(over="ignore", invalid="ignore"):
        omega = (r * np.hypot(xi_q - 2.0 * t * a2 * xi_p, xi_p)
                 + 3.0 * abs(t * a3) * r * r * np.abs(xi_p)) / curve.hbar
        offset = t * (a1 + 1.5 * a3 * r * r) * xi_p / curve.hbar
        bad = np.flatnonzero(~np.isfinite(omega + np.abs(offset)))
        if bad.size:
            raise NumericalError(f"plane-wave phase at chord ({xi_p[bad[0]]:.6g}, "
                                 f"{xi_q[bad[0]]:.6g}) is not finite")
        nodes = 2.0 ** np.ceil(np.log2(omega + 10.0 * np.cbrt(omega) + 32.0))
    far = np.flatnonzero(nodes > AVERAGE_MAX_NODES)
    if far.size:
        raise ConvergenceError(f"classical average at chord ({xi_p[far[0]]:.6g}, "
                               f"{xi_q[far[0]]:.6g}) needs more than {AVERAGE_MAX_NODES} nodes")
    return nodes.astype(int)


def chi_small_points(curve: CurveSpec, xi_p, xi_q) -> np.ndarray:
    """Classical curve average of the chord plane wave at the chords (xi_p[k], xi_q[k]).

    One trapezoid pass per node count, in blocks of at most AVERAGE_MAX_NODES
    samples; each row is summed alone, so a chord reads the same bits in any batch.
    """
    xi_p, xi_q = np.asarray(xi_p, dtype=float), np.asarray(xi_q, dtype=float)
    nodes = _average_nodes(curve, xi_p, xi_q)
    mean = np.empty(xi_p.shape, dtype=complex)
    for n in np.unique(nodes):
        p, q = curve.point(2.0 * np.pi * np.arange(n) / n)
        chords = np.flatnonzero(nodes == n)
        for lo in range(0, chords.size, AVERAGE_MAX_NODES // n):
            k = chords[lo:lo + AVERAGE_MAX_NODES // n, np.newaxis]
            mean[k[:, 0]] = plane_wave((1.0 / curve.hbar) * (p * xi_q[k] - q * xi_p[k])).sum(-1) / n
    return mean


def chi_small(curve: CurveSpec, xi) -> ChordValue:
    """Classical curve average of the chord plane wave at one chord."""
    return ChordValue(complex(chi_small_points(curve, [float(xi[0])], [float(xi[1])])[0]))


def chi_small_grid(curve: CurveSpec, xi_p_axis, xi_q_axis) -> np.ndarray:
    """chi_s on a tensor grid by rank-one accumulation.

    Each curve sample contributes the separable factor exp(-i q xi_p / hbar)
    ⊗ exp(i p xi_q / hbar), so the one trapezoid pass, on the largest node
    count of the grid's chords (a corner's), is a matrix product, summed in
    blocks of at most AVERAGE_MAX_NODES // max(rows, cols) nodes so that no
    factor holds more than AVERAGE_MAX_NODES samples. A non-finite chord is a
    ValueError (core.refuse_non_finite), as in evaluate.
    """
    xi_p_axis, xi_q_axis = np.asarray(xi_p_axis, dtype=float), np.asarray(xi_q_axis, dtype=float)
    refuse_non_finite(xi_p_axis[:, None], xi_q_axis)
    corner_p, corner_q = np.meshgrid([xi_p_axis.min(), xi_p_axis.max()],
                                     [xi_q_axis.min(), xi_q_axis.max()])
    n = np.max(_average_nodes(curve, corner_p.ravel(), corner_q.ravel()))
    p, q = curve.point(2.0 * np.pi * np.arange(n) / n)
    block = AVERAGE_MAX_NODES // max(xi_p_axis.size, xi_q_axis.size)
    parts = (plane_wave((-1.0 / curve.hbar) * np.outer(xi_p_axis, q[lo:lo + block]))
             @ plane_wave((1.0 / curve.hbar) * np.outer(p[lo:lo + block], xi_q_axis))
             for lo in range(0, n, block))
    return reduce(np.add, parts) / n


# -- classical moments ----------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Raw classical moments m[j, k] = <q^j p^k> over the curve.

    ``table[j, k]`` is valid for j + k <= order and NaN beyond.
    """

    order: int
    table: np.ndarray

    def raw(self, j: int, k: int) -> float:
        if j < 0 or k < 0 or j + k > self.order:
            raise ValueError(f"moment ({j}, {k}) outside table of order {self.order}")
        return float(self.table[j, k])

    @property
    def mean(self) -> PhasePoint:
        return PhasePoint(self.raw(0, 1), self.raw(1, 0))


def classical_moments(curve: CurveSpec, order: int = 4) -> MomentTable:
    """Uniform-angle averages <q^j p^k> for all j + k <= order, in one trapezoid sum.

    On the curve p is a trigonometric polynomial of degree 1 in theta and q,
    through H'(p), one of degree 2, so q^j p^k has degree at most 2 order. The
    trapezoid sum on 2 order + 1 equispaced nodes is exact for such a
    polynomial, since the first frequency that aliases onto the mean is
    2 order + 1: each moment is that sum, with round-off its only error.
    """
    if order < 1:
        raise ValueError("need order >= 1")
    nodes = 2 * order + 1
    p, q = curve.point(2.0 * np.pi * np.arange(nodes) / nodes)
    table = np.full((order + 1, order + 1), np.nan)
    for j in range(order + 1):
        for k in range(order + 1 - j):
            table[j, k] = np.sum(q ** j * p ** k) / nodes
    return MomentTable(order=order, table=table)


def taylor_values(moments: MomentTable, hbar: float, xi_p, xi_q, order: int | None = None):
    """Taylor polynomial of the chord function built from raw moments.

    chi(xi) = sum_n (1/n!) (i/hbar)^n <(x ∧ xi)^n>, with the wedge-power
    averages expanded binomially into the moment table. Feeding classical
    moments gives the short-chord expansion; the order is capped by the table.
    ``xi_p`` and ``xi_q`` are numbers or same-shape arrays.
    """
    if order is None:
        order = moments.order
    if order > moments.order:
        raise ValueError(f"table of order {moments.order} cannot support order {order}")
    total = 0.0 + 0.0j
    for n in range(order + 1):
        # (x ∧ xi)^n = sum_k C(n,k) (p xi_q)^k (-q xi_p)^(n-k)
        wedge_mean = sum(math.comb(n, k) * (-1.0) ** (n - k)
                         * moments.raw(n - k, k)
                         * xi_q ** k * xi_p ** (n - k)
                         for k in range(n + 1))
        total += (1j / hbar) ** n / math.factorial(n) * wedge_mean
    return total


# -- quantum moments: from the state, and from an evaluated chord function --


@dataclass(frozen=True)
class SecondOrderMoments:
    """Mean vector and raw second moments of the state behind a chord function.

    ``pq`` is the symmetrized cross moment <(qp + pq)/2>; for commuting
    (classical) inputs it is the plain <q p>.
    """

    mean: PhasePoint
    p2: float
    q2: float
    pq: float
    errors: dict = field(default_factory=dict, compare=False)

    def matrix(self) -> np.ndarray:
        """Quadratic form M with <(x ∧ xi)^2> = xi · M xi on (xi_p, xi_q)."""
        return np.array([[self.q2, -self.pq], [-self.pq, self.p2]])

    def covariance(self) -> np.ndarray:
        """Centered covariance [[var p, cov], [cov, var q]]."""
        mp, mq = self.mean
        return np.array([[self.p2 - mp * mp, self.pq - mp * mq],
                         [self.pq - mp * mq, self.q2 - mq * mq]])

    def uncertainty_det(self) -> float:
        """det of the centered covariance; >= (hbar/2)^2 for genuine states."""
        return float(np.linalg.det(self.covariance()))


def second_order_from_table(moments: MomentTable) -> SecondOrderMoments:
    return SecondOrderMoments(mean=moments.mean, p2=moments.raw(0, 2),
                              q2=moments.raw(2, 0), pq=moments.raw(1, 1))


def state_moments(state: CurveSpec) -> SecondOrderMoments:
    """Mean and raw second moments of the sheared number state, in closed form.

    In the Heisenberg picture p is conserved and q_t = q + t H'(p). The number
    state's Wigner function is rotationally symmetric, so the odd moments of p
    vanish and <{q, f(p)}> = 0. With P2 = <p^2> = hbar (n + 1/2) and
    P4 = <p^4> = (3/4) hbar^2 (2 n^2 + 2 n + 1):

        <p> = 0,  <q> = t (a1 + 3 a3 P2),  <pq>_sym = 2 a2 t P2,
        <q^2> = P2 + t^2 [a1^2 + (4 a2^2 + 6 a1 a3) P2 + 9 a3^2 P4].

    The classical curve has <p^4> = (3/8) r^4, smaller than P4 by
    (3/8) hbar^2, so its <q^2> falls short of this one by
    (27/8) (a3 t hbar)^2; its other moments here are equal.
    """
    n, hbar, t = state.n, state.hbar, state.t
    _, a1, a2, a3 = state.alpha
    p2 = hbar * (n + 0.5)
    p4 = 0.75 * hbar * hbar * (2 * n * n + 2 * n + 1)
    return SecondOrderMoments(
        mean=PhasePoint(0.0, t * (a1 + 3.0 * a3 * p2)), p2=p2,
        q2=p2 + t * t * (a1 * a1 + (4.0 * a2 * a2 + 6.0 * a1 * a3) * p2 + 9.0 * a3 * a3 * p4),
        pq=2.0 * a2 * t * p2)


def moments_from_chi(evaluator) -> SecondOrderMoments:
    """Extract mean and raw second moments by differentiating chi at 0.

    The cross-check of state_moments: it reads the moments off an evaluated
    chord function, so it tests that function's derivatives at the origin.

    <q^m> = (i hbar)^m d^m chi / d xi_p^m |_0 and
    <p^m> = (-i hbar)^m d^m chi / d xi_q^m |_0; the symmetrized cross moment
    comes from the diagonal direction, 2 chi_pq = chi_dd - chi_pp - chi_qq.
    ``evaluator`` needs ``evaluate(xi_p, xi_q)`` and ``state``, which gives
    hbar and the classical curve: each of the five derivatives takes every
    Richardson stencil point along its direction in one call.

    chi varies on the scale hbar / R of the curve's RMS distance from the
    origin, R = sqrt(<p^2> + <q^2>) over the classical curve, so an m-th
    derivative is of size (R / hbar)^m: the first step is (1/2) sqrt(11)
    hbar / R (sqrt(hbar) / 2 on the n = 5 ring, where R is the radius r), and
    each m-th derivative is asked to DERIVATIVE_TOL (R / hbar)^m. A shear
    moves the mean to |<q>| of order t, and R follows it where r does not.
    """
    hbar = evaluator.state.hbar
    classical = classical_moments(evaluator.state, order=2)
    scale = math.sqrt(classical.raw(0, 2) + classical.raw(2, 0)) / hbar
    h0 = 0.5 * math.sqrt(11.0) / scale

    errors = {}

    def deriv(direction, m, key):
        def along(s):
            values, _ = evaluator.evaluate(s * direction[0], s * direction[1])
            return values

        d, err = richardson_derivative(along, order=m, h0=h0, tol=DERIVATIVE_TOL * scale ** m)
        errors[key] = err
        return d

    d1_p = deriv((1.0, 0.0), 1, "d1_xi_p")
    d1_q = deriv((0.0, 1.0), 1, "d1_xi_q")
    d2_p = deriv((1.0, 0.0), 2, "d2_xi_p")
    d2_q = deriv((0.0, 1.0), 2, "d2_xi_q")
    d2_d = deriv((1.0, 1.0), 2, "d2_diag")

    mean_q = (1j * hbar * d1_p).real
    mean_p = (-1j * hbar * d1_q).real
    q2 = (-hbar * hbar * d2_p).real
    p2 = (-hbar * hbar * d2_q).real
    pq = (hbar * hbar * 0.5 * (d2_d - d2_p - d2_q)).real

    # hermiticity leaves first derivatives imaginary and second ones real;
    # leakage into the other component signals a bad evaluator or step size
    leak = max(abs(d1_p.real), abs(d1_q.real)) * hbar
    leak2 = max(abs(d2_p.imag), abs(d2_q.imag), abs(d2_d.imag)) * hbar * hbar
    scale = max(p2, q2, hbar)
    if leak > 1e-4 * scale or leak2 > 1e-4 * scale:
        raise NumericalError(
            f"moment extraction inconsistent with a hermitian field "
            f"(leakage {leak:.2e}, {leak2:.2e} against scale {scale:.2e})")

    return SecondOrderMoments(mean=PhasePoint(mean_p, mean_q),
                              p2=p2, q2=q2, pq=pq, errors=errors)


# -- blind-spot ellipse ----------------------------------------------------


@dataclass(frozen=True)
class BlindSpotEstimate:
    """Second-order estimate of the blind spots nearest the origin.

    The second-order zero condition splits into <x> ∧ xi = 0 (chord aligned
    with the mean) and xi · M xi = 2 hbar^2 (the ellipse); ``spots`` holds the
    aligned ellipse crossings +/- s u. When the mean vanishes no direction is
    singled out and ``spots`` is empty.
    """

    matrix: np.ndarray
    level: float
    spots: tuple[Chord, ...]

    @property
    def radius(self) -> float:
        """Distance |s| of the estimated spots from the origin."""
        if not self.spots:
            raise ValueError("an estimate without a mean direction has no spots")
        return self.spots[0].norm


def closest_blind_spot_estimate(moments: SecondOrderMoments,
                                hbar: float) -> BlindSpotEstimate:
    level = 2.0 * hbar * hbar
    m = moments.matrix()
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0.0:
        raise ValueError(f"second-moment form is not positive definite (eigenvalues {eigs})")
    mp, mq = moments.mean
    norm = math.hypot(mp, mq)
    if norm < 1e-8 * math.sqrt(moments.p2 + moments.q2):
        return BlindSpotEstimate(matrix=m, level=level, spots=())
    u = np.array([mp, mq]) / norm
    s = math.sqrt(level / float(u @ m @ u))
    spots = (Chord(s * u[0], s * u[1]), Chord(-s * u[0], -s * u[1]))
    return BlindSpotEstimate(matrix=m, level=level, spots=spots)
