"""Short-chord route: classical curve average, moments, blind-spot ellipse.

For chords short against the curve's geometry the chord function is the plain
classical average over the quantized curve,

    chi_s(xi) = (1/2 pi) \\oint dtheta exp[i x(theta) ∧ xi / hbar],

(J_0(r |xi| / hbar) for an unsheared ring). Its Taylor coefficients at the
origin are classical moments of the curve; the quantum moments come instead
from differentiating an evaluated chord function at the origin. Truncating
either expansion at second order and solving for the nearest zero along the
mean direction yields the blind-spot ellipse estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Chord, ChordValue, PhasePoint
from .curves import CurveSpec
from .quadrature import NumericalError, periodic_mean, richardson_derivative

AVERAGE_NODES = 64  # first rule of the classical average, on chord lists and grids alike
AVERAGE_TOL = 1e-10  # on chi_s between successive doublings, uniform over a batch
AVERAGE_DOUBLINGS = 12  # before ConvergenceError: at most 64 * 2**12 nodes
MOMENT_TOL = 1e-12  # on each classical moment <q^j p^k>
DERIVATIVE_TOL = 1e-8  # on the m-th derivative of chi at 0, relative to its size (R / hbar)^m


def _finite_phase(compute, name):
    """The plane-wave phase i x ∧ xi / hbar that ``compute()`` returns, computed
    without warnings. A chord far past the curve overflows it, and no doubling
    of the average would settle, so a phase that is not finite raises
    NumericalError for the chord ``name(i, j)`` of its element (i, j)."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = compute()
    bad = np.argwhere(~np.isfinite(phase))
    if bad.size:
        raise NumericalError(f"plane-wave phase at {name(*bad[0])} is not finite")
    return phase


def chi_small_points(curve: CurveSpec, xi_p, xi_q) -> np.ndarray:
    """Classical curve average of the chord plane wave at the chords (xi_p[k], xi_q[k]).

    One stacked periodic_mean over the 1-d chord arrays.
    """
    xi_p = np.asarray(xi_p, dtype=float)[:, np.newaxis]
    xi_q = np.asarray(xi_q, dtype=float)[:, np.newaxis]

    def plane_wave(theta):
        p, q = curve.point(theta)
        return np.exp(_finite_phase(lambda: 1j / curve.hbar * (p * xi_q - q * xi_p),
                                    lambda k, _: f"chord ({xi_p[k, 0]:.6g}, {xi_q[k, 0]:.6g})"))

    mean, _ = periodic_mean(plane_wave, n0=AVERAGE_NODES, tol=AVERAGE_TOL,
                            max_doublings=AVERAGE_DOUBLINGS)
    return mean


def chi_small(curve: CurveSpec, xi) -> ChordValue:
    """Classical curve average of the chord plane wave at one chord."""
    return ChordValue(complex(chi_small_points(curve, [float(xi[0])], [float(xi[1])])[0]))


def chi_small_grid(curve: CurveSpec, xi_p_axis, xi_q_axis) -> np.ndarray:
    """chi_s on a tensor grid by rank-one accumulation.

    Each curve sample contributes the separable factor
    exp(-i q xi_p / hbar) ⊗ exp(i p xi_q / hbar), so a pass over theta nodes
    is a single matrix product; periodic_mean sees it as one stacked sample
    on a trailing node axis of length 1 and certifies the doubling.
    """
    xi_p_axis = np.asarray(xi_p_axis, dtype=float)
    xi_q_axis = np.asarray(xi_q_axis, dtype=float)

    def node_sum(theta):
        p, q = curve.point(theta)
        left = np.exp(_finite_phase(lambda: -1j / curve.hbar * np.outer(xi_p_axis, q),
                                    lambda k, _: f"xi_p = {xi_p_axis[k]:.6g}"))
        right = np.exp(_finite_phase(lambda: 1j / curve.hbar * np.outer(p, xi_q_axis),
                                     lambda _, k: f"xi_q = {xi_q_axis[k]:.6g}"))
        return (left @ right)[..., np.newaxis]

    mean, _ = periodic_mean(node_sum, n0=AVERAGE_NODES, tol=AVERAGE_TOL,
                            max_doublings=AVERAGE_DOUBLINGS)
    return mean


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
    """Uniform-angle averages <q^j p^k> for all j + k <= order."""
    if order < 1:
        raise ValueError("need order >= 1")
    pairs = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]

    def monomials(theta):
        p, q = curve.point(theta)
        return np.stack([q ** j * p ** k for j, k in pairs])

    means, _ = periodic_mean(monomials, n0=64, tol=MOMENT_TOL)
    table = np.full((order + 1, order + 1), np.nan)
    for (j, k), m in zip(pairs, means.real):
        table[j, k] = m
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


# -- quantum moments from an evaluated chord function ----------------------


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


def moments_from_chi(evaluator) -> SecondOrderMoments:
    """Extract mean and raw second moments by differentiating chi at 0.

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
    aligned ellipse crossings +/- s u. When the mean vanishes every direction
    is equivalent and no spot is singled out: ``degenerate`` is set and
    ``spots`` is empty.
    """

    matrix: np.ndarray
    level: float
    spots: tuple[Chord, ...]
    degenerate: bool

    @property
    def radius(self) -> float:
        """Distance |s| of the estimated spots from the origin."""
        if not self.spots:
            raise ValueError("degenerate estimate has no spots")
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
        return BlindSpotEstimate(matrix=m, level=level, spots=(), degenerate=True)
    u = np.array([mp, mq]) / norm
    s = math.sqrt(level / float(u @ m @ u))
    spots = (Chord(s * u[0], s * u[1]), Chord(-s * u[0], -s * u[1]))
    return BlindSpotEstimate(matrix=m, level=level, spots=spots, degenerate=False)
