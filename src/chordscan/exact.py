"""Exact reference evaluators for the chord function.

Two independent routes to the same object live here and cross-check each
other: a closed form for the unsheared number state, and a direct overlap
quadrature that also covers the sheared state,

    chi(xi) = \\int dp  psi_n*(p + xi_p/2)
                 exp(-(i/hbar) (t [H(p+xi_p/2) - H(p-xi_p/2)] - p xi_q))
              psi_n(p - xi_p/2),

with psi_n the momentum-representation oscillator eigenfunction. Every
quadrature goes through one batched kernel: the chords of a call share one p
window and one nested trapezoid rule, run by quadrature.periodic_mean over
the window mapped onto [0, 2 pi). The integrand is entire and decays like a
Gaussian well inside the window, so the rule converges geometrically and each
doubling reuses every node. A tensor grid is one (xi_p x nodes) @
(nodes x xi_q) product per node pass, and one certificate covers the whole
batch. ``ExactEvaluator.evaluate`` takes chord arrays; the pointwise and grid
entry points wrap the same kernel. Grid-level certificates (the symplectic
Fourier invariance of |chi|^2 and the chord correlation) are also implemented
here because they only make sense against the exact field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_laguerre

from .core import Chord, ChordValue, Flag, chord_arrays
from .curves import CurveSpec
from .quadrature import ConvergenceError, NumericalError, periodic_mean

_MODULUS_SLACK = 1e-8  # |chi| may exceed 1 only by the quadrature tolerance


class GridTooSmallError(ValueError):
    """The scanned region does not contain the support of |chi|^2."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the overlap quadrature.

    nodes            least starting trapezoid node count (doubled, reusing
                     every node, until the estimate settles)
    half_width_mult  integration half-width in units of the classical radius
                     sqrt(hbar (2n+1)); the window is widened by max|xi_p|/2
                     over the batch so every shifted wavefunction stays covered
    tol              absolute convergence tolerance on chi, uniform over a batch
    max_doublings    refinement budget before ConvergenceError
    """

    nodes: int = 128
    half_width_mult: float = 6.0
    tol: float = 1e-10
    max_doublings: int = 8

    def __post_init__(self):
        if self.nodes < 8 or self.half_width_mult <= 1.0 or self.tol <= 0:
            raise ValueError(f"unusable quadrature controls: {self}")


def hermite_psi(n: int, hbar: float, p):
    """Momentum-representation oscillator eigenfunction psi_n(p).

    Evaluated through the recurrence for *normalized* Hermite functions
    h_k(u) = H_k(u) exp(-u^2/2) / sqrt(2^k k! sqrt(pi)), which keeps every
    intermediate O(1); no factorials or bare polynomial values appear. The
    Gaussian underflows harmlessly to zero far outside the classical region.

    psi_n(p) = (-i)^n hbar^(-1/4) h_n(p / sqrt(hbar)).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"need a non-negative integer index, got {n!r}")
    p = np.asarray(p, dtype=float)
    u = p / np.sqrt(hbar)
    expo = 0.5 * u * u
    gauss = np.where(expo > 700.0, 0.0, np.exp(-np.minimum(expo, 700.0)))
    h_prev = np.zeros_like(u)
    h = np.pi ** -0.25 * gauss
    for k in range(int(n)):
        h, h_prev = (np.sqrt(2.0 / (k + 1)) * u * h
                     - np.sqrt(k / (k + 1.0)) * h_prev), h
    return (-1j) ** int(n) * hbar ** -0.25 * h


def fock_chi_radial(n: int, hbar: float, rho):
    """Vectorized |xi| -> chi_n profile of the closed form.

    chi_n(xi) = exp(-|xi|^2 / 4 hbar) L_n(|xi|^2 / 2 hbar); the Laguerre
    argument |xi|^2 / 2 hbar is pinned by the t = 0 overlap quadrature.
    """
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    return np.exp(-rho2 / (4.0 * hbar)) * eval_laguerre(n, rho2 / (2.0 * hbar))


def fock_chi_closed(n: int, hbar: float, xi) -> ChordValue:
    """Closed-form chord function of the number state (no shear) at one chord."""
    return ChordValue(complex(fock_chi_radial(n, hbar, np.hypot(xi[0], xi[1]))))


ROW_BLOCK = 16  # chords per profile block: a (block x nodes) array stays <= 1 MB at 4096 nodes


def _profile(state: CurveSpec, p, xi_p):
    """xi_q-independent factor of the integrand: rows xi_p, columns the nodes p."""
    # both shifts p +- xi_p/2 in one flat array, so psi_n and H each take one
    # pass of elementwise calls: their set-up is most of a one-chord batch
    shifted = (p + np.multiply.outer((0.5, -0.5), xi_p)[..., None]).ravel()
    psi = hermite_psi(state.n, state.hbar, shifted).reshape(2, xi_p.size, p.size)
    profile = np.conj(psi[0]) * psi[1]
    if state.t != 0.0:
        h = state.hamiltonian(shifted).reshape(psi.shape)
        profile *= np.exp(-1j / state.hbar * state.t * (h[0] - h[1]))
    return profile


def _overlap(state: CurveSpec, xi_p, xi_q, quad: QuadratureSpec, tensor: bool):
    """Certified overlap quadrature for a batch of chords.

    With ``tensor`` the chords are the grid xi_p x xi_q, of shape
    (xi_p.size, xi_q.size); otherwise xi_p[k] pairs with xi_q[k].

    The integrand is a xi_q-independent profile times the plane wave
    exp(i p xi_q / hbar). One window [-L, L), L = half_width_mult r +
    max|xi_p| / 2 with r = sqrt(hbar (2n+1)), covers every shifted
    wavefunction, so all chords share the nodes and one certificate: a grid
    costs one (xi_p x nodes) @ (nodes x xi_q) product per node pass.

    By Poisson summation an m-node rule returns the sum of chi(xi_p, xi_q + j D)
    over integers j, with D = pi hbar m / L. Doubling removes only the odd j,
    so when a j = +-2 alias of a far chord lands on the state both rules agree
    on a wrong value. m therefore starts where D >= max|xi_q| + 4r: every
    alias lies 4r or more from the origin, and the nearest one is odd.
    """
    xi_p = np.asarray(xi_p, dtype=float).ravel()
    xi_q = np.asarray(xi_q, dtype=float).ravel()
    shape = (xi_p.size, xi_q.size) if tensor else xi_p.shape
    if 0 in shape:
        return np.zeros(shape, dtype=complex)
    radius = np.sqrt(state.hbar * (2 * state.n + 1))
    half_width = quad.half_width_mult * radius + 0.5 * np.max(np.abs(xi_p))
    n0 = quad.nodes
    while np.pi * state.hbar * n0 / half_width < np.max(np.abs(xi_q)) + 4.0 * radius:
        n0 *= 2

    def node_sums(theta):
        p = half_width * (theta / np.pi - 1.0)
        if tensor:
            wave = np.exp(1j / state.hbar * np.outer(p, xi_q))
        sums = np.empty(shape, dtype=complex)
        for lo in range(0, xi_p.size, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            profile = _profile(state, p, xi_p[rows])
            if tensor:
                sums[rows] = profile @ wave
            else:
                wave = np.exp(1j / state.hbar * np.outer(xi_q[rows], p))
                sums[rows] = np.einsum("kn,kn->k", profile, wave)
        return (2.0 * half_width * sums)[..., np.newaxis]

    try:
        est, _ = periodic_mean(node_sums, n0=n0, tol=quad.tol,
                               max_doublings=quad.max_doublings)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"overlap quadrature over {xi_p.size} xi_p values "
            f"(max |xi_p| {np.max(np.abs(xi_p)):g}) stalled: {err}",
            last=err.last, previous=err.previous,
        ) from err
    peak = np.max(np.abs(est))
    if peak > 1.0 + _MODULUS_SLACK:
        raise NumericalError(f"max |chi| = {peak} exceeds 1: quadrature is inconsistent")
    return est


def evolved_chi(state: CurveSpec, xi, quad: QuadratureSpec | None = None) -> ChordValue:
    """Chord function of the sheared number state by certified quadrature."""
    quad = quad or QuadratureSpec()
    return ChordValue(complex(_overlap(state, xi[0], xi[1], quad, tensor=False)[0]))


def evolved_chi_grid(state: CurveSpec, xi_p_axis, xi_q_axis,
                     quad: QuadratureSpec | None = None) -> np.ndarray:
    """Chord-function values on the tensor grid xi_p_axis x xi_q_axis."""
    return _overlap(state, xi_p_axis, xi_q_axis, quad or QuadratureSpec(), tensor=True)


class ExactEvaluator:
    """Callable chord-function oracle for a given state."""

    name = "exact"

    def __init__(self, state: CurveSpec, quad: QuadratureSpec | None = None):
        self.state = state
        self.quad = quad or QuadratureSpec()

    def evaluate(self, xi_p, xi_q):
        """(values, flags) at the chords (xi_p[k], xi_q[k]) of two same-shape arrays."""
        xi_p, xi_q = chord_arrays(xi_p, xi_q)
        values = _overlap(self.state, xi_p, xi_q, self.quad, tensor=False).reshape(xi_p.shape)
        return values, np.zeros(values.shape, dtype=np.uint8)  # FLAG_CODES[Flag.OK] == 0

    def __call__(self, xi) -> ChordValue:
        return evolved_chi(self.state, Chord(float(xi[0]), float(xi[1])), self.quad)

    def grid(self, xi_p_axis, xi_q_axis):
        values = evolved_chi_grid(self.state, xi_p_axis, xi_q_axis, self.quad)
        flags = np.zeros(values.shape, dtype=np.uint8)  # FLAG_CODES[Flag.OK] == 0
        return values, flags


# -- grid-level certificates ---------------------------------------------


def _symplectic_dft(g, xi_p_axis, xi_q_axis, hbar: float, sign: int):
    """Discrete F[g](xi) = (1/2 pi hbar) \\int d^2 eta g(eta) e^{sign i xi∧eta / hbar}.

    The kernel separates, exp(sign*i xi_p eta_q / hbar) * exp(-sign*i xi_q
    eta_p / hbar), so the double Riemann sum is two dense matrix products;
    output lands on the input grid. Exact for any centered grid, no
    reciprocal-grid constraint.
    """
    xi_p_axis = np.asarray(xi_p_axis, dtype=float)
    xi_q_axis = np.asarray(xi_q_axis, dtype=float)
    dp = xi_p_axis[1] - xi_p_axis[0]
    dq = xi_q_axis[1] - xi_q_axis[0]
    kernel = np.exp(sign * 1j / hbar * np.outer(xi_p_axis, xi_q_axis))
    scale = dp * dq / (2.0 * np.pi * hbar)
    # F[a, b] = scale * sum_{m,n} kernel[a, n] g[m, n] conj(kernel)[m, b]
    return scale * (kernel @ g.T @ np.conj(kernel))


def _require_contained(abs2, boundary_tol: float):
    edge = max(abs2[0, :].max(), abs2[-1, :].max(), abs2[:, 0].max(), abs2[:, -1].max())
    if edge > boundary_tol:
        raise GridTooSmallError(
            f"grid too small: |chi|^2 reaches {edge:.3e} on the boundary "
            f"(tolerance {boundary_tol:g}); enlarge the region")


def fourier_invariance_residual(grid, boundary_tol: float = 1e-8) -> float:
    """Relative L2 defect of the self-reciprocity of |chi|^2.

    For a pure state, |chi|^2 is its own symplectic Fourier transform; the
    residual ||F[|chi|^2] - |chi|^2|| / |||chi|^2|| is a purity certificate
    for the scanned field (shape only; the normalization certificate is
    correlation_C at xi = 0).
    """
    abs2 = np.abs(grid.values) ** 2
    _require_contained(abs2, boundary_tol)
    transformed = _symplectic_dft(abs2, grid.xi_p_axis, grid.xi_q_axis,
                                  grid.hbar, sign=+1)
    return float(np.linalg.norm(transformed - abs2) / np.linalg.norm(abs2))


def correlation_C(grid, boundary_tol: float = 1e-8) -> np.ndarray:
    """Chord autocorrelation C(xi) = (1/2 pi hbar) \\int d^2 eta |chi(eta)|^2 e^{-i xi∧eta / hbar}.

    Real and even; C(0) equals the state purity (1 for a normalized pure
    field). For a pure state C coincides with |chi|^2 pointwise.
    """
    abs2 = np.abs(grid.values) ** 2
    _require_contained(abs2, boundary_tol)
    c = _symplectic_dft(abs2, grid.xi_p_axis, grid.xi_q_axis, grid.hbar, sign=-1)
    imag_peak = np.max(np.abs(c.imag))
    scale = max(np.max(np.abs(c.real)), 1e-300)
    if imag_peak > 1e-9 * scale:
        raise NumericalError(f"correlation came out non-real (max imag {imag_peak:.3e})")
    return c.real
