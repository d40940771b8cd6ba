"""Reference values computed apart from chordscan.

Nothing here imports the package under test. The overlap quadrature uses its
own oscillator eigenfunctions (scipy's Hermite polynomials, not the
package's normalized recurrence) and a doubling trapezoid rule on a uniform
grid (not Gauss-Legendre), so agreement with the package is evidence, not
an echo.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.laguerre import lagroots
from scipy.special import eval_hermite, eval_laguerre


def oscillator_psi(n: int, hbar: float, p):
    """Real momentum eigenfunction of the oscillator; the phase (-i)^n cancels in chi."""
    u = np.asarray(p, dtype=float) / math.sqrt(hbar)
    norm = (math.pi * hbar) ** -0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    return norm * eval_hermite(n, u) * np.exp(-0.5 * u * u)


def hamiltonian(alpha, p):
    a0, a1, a2, a3 = alpha
    return a0 + a1 * p + a2 * p ** 2 + a3 * p ** 3


def overlap_chi(n: int, hbar: float, alpha, t: float, xi, tol: float = 1e-12,
                max_doublings: int = 12) -> complex:
    """chi(xi) = int dp psi(p + xi_p/2) psi(p - xi_p/2) exp(-i(t dH - p xi_q)/hbar).

    Trapezoid rule on the window where both shifted eigenfunctions exceed
    ~1e-14 of their peak, doubled until two estimates agree to ``tol``.
    """
    xi_p, xi_q = float(xi[0]), float(xi[1])
    reach = math.sqrt(hbar) * (math.sqrt(2 * n + 1) + 7.0)
    half = reach - 0.5 * abs(xi_p)
    if half <= 0.0:
        return 0j

    def integrand(p):
        pp, pm = p + 0.5 * xi_p, p - 0.5 * xi_p
        phase = -(t * (hamiltonian(alpha, pp) - hamiltonian(alpha, pm)) - p * xi_q) / hbar
        return oscillator_psi(n, hbar, pp) * oscillator_psi(n, hbar, pm) * np.exp(1j * phase)

    count = 256
    prev = None
    for _ in range(max_doublings):
        p, step = np.linspace(-half, half, count + 1, retstep=True)
        est = complex(step * np.sum(integrand(p)))  # endpoints are ~0
        if prev is not None and abs(est - prev) < tol:
            return est
        prev = est
        count *= 2
    raise ArithmeticError(f"reference quadrature did not settle at xi={xi}")


def ring_chi(n: int, hbar: float, rho):
    """Closed form exp(-rho^2/4hbar) L_n(rho^2/2hbar) of the unsheared number state."""
    rho2 = np.asarray(rho, dtype=float) ** 2
    return np.exp(-rho2 / (4.0 * hbar)) * eval_laguerre(n, rho2 / (2.0 * hbar))


def ring_node_radii(n: int, hbar: float) -> np.ndarray:
    """Radii sqrt(2 hbar x_k) of the n nodal circles, x_k the roots of L_n."""
    return np.sqrt(2.0 * hbar * np.sort(lagroots([0.0] * n + [1.0])))


def ladder_moments(n: int, hbar: float, alpha, t: float) -> dict:
    """<p>, <p^2>, <q> of the sheared number state from ladder-operator algebra."""
    p2 = hbar * (n + 0.5)
    return {"mean_p": 0.0, "p2": p2, "mean_q": t * (3.0 * alpha[3] * p2 + alpha[1])}


def curve_diameter(n: int, hbar: float, alpha, t: float, samples: int = 2048) -> float:
    """Largest distance between two points of the sheared Bohr circle, from samples.

    Row by row, so the benchmark's own memory stays small next to the
    program's peak resident size.
    """
    r = math.sqrt(2.0 * hbar * (n + 0.5))
    theta = 2.0 * np.pi * np.arange(samples) / samples
    p = r * np.cos(theta)
    _, a1, a2, a3 = alpha
    q = r * np.sin(theta) + t * (3.0 * a3 * p * p + 2.0 * a2 * p + a1)
    return float(max(np.max(np.hypot(p - pk, q - qk)) for pk, qk in zip(p, q)))
