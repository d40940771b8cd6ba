"""Convergence-certified quadrature and differentiation helpers.

Every estimate in the package that comes from a refined integral or a
finite difference goes through one of two routines: periodic_mean for the
overlap quadrature, the one integral certified by refinement, and
richardson_derivative for every derivative. Each certifies its value by the
difference of two successive refinements and raises ConvergenceError (with
the last two estimates attached) if none is within tolerance, so callers
never get an uncertified number. Curve averages need neither: the classical
moments are trigonometric polynomials, which one trapezoid sum integrates
exactly, and chi_s is one trapezoid pass on a node count fixed in advance.
_gl_nodes, a Gauss-Legendre rule, serves only as the tests' reference.

NumericalError is the one type for a numerical result the package refuses to
hand out: a stalled refinement (its subclass ConvergenceError) or a computed
value that breaks a property it must have, such as |chi| <= 1. The CLI turns
it into exit code 3.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
# Gauss-Legendre nodes and weights on [-1, 1], under numpy's name for them.
# numpy's leggauss solves a dense companion eigenproblem: at 4096 nodes it took
# 7 s and 312 MB on a 2-core x86 machine, against 0.6 s and 78 MB here.
from scipy.special import roots_legendre as leggauss


class NumericalError(RuntimeError):
    """A numerical result broke a property it must have, or did not settle."""


class ConvergenceError(NumericalError):
    """Refinement budget exhausted before two estimates agreed."""

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    """Gauss-Legendre rule: the tests' reference, kept by name for the benchmark tracer."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def periodic_mean(f, n0: int, tol: float, max_doublings: int):
    """Mean over [0, 2pi) of a smooth periodic integrand, by nested trapezoid doubling.

    The integrand may also decay to round-off at both ends of a window mapped
    onto [0, 2pi), as the overlap quadrature's does. ``f`` maps an array of
    angles to samples whose *last* axis is the node axis (stacked integrands
    are averaged together). From ``n0`` nodes each doubling adds the
    interleaved ones, until two estimates differ by less than ``tol`` over
    every component; after ``max_doublings`` it raises ConvergenceError.
    Returns (mean, nodes). The trapezoid rule converges geometrically for both
    kinds of integrand (Trefethen & Weideman, SIAM Rev. 56, 2014); the
    certificate compares n and 2n nodes only, so ``n0`` must resolve the
    integrand's fastest oscillation.
    """
    n = n0
    theta = 2.0 * np.pi * np.arange(n) / n
    total = np.sum(f(theta), axis=-1, dtype=complex)
    est = total / n
    prev = None
    for _ in range(max_doublings):
        # refine: new nodes interleave the old ones, so reuse the running sum
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        total = total + np.sum(f(theta), axis=-1, dtype=complex)
        n *= 2
        prev, est = est, total / n
        if np.max(np.abs(est - prev)) < tol:
            return est, n
    raise ConvergenceError(
        f"periodic mean did not settle to {tol:g} within {n} nodes",
        last=est, previous=prev,
    )


# Central-difference stencils for the n-th derivative, error O(h^2).
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}
# rows of the Richardson table: the starting step and five halvings of it
RICHARDSON_LEVELS = 6


def richardson_derivative(f, order: int, h0: float, tol: float = 1e-8):
    """n-th derivative of ``f`` at 0 by central differences + Richardson table.

    ``f`` is vectorized over offsets: it maps an array of offsets s to the
    array of f(s), and is called once, on the stencil points of every level.
    The step is halved RICHARDSON_LEVELS - 1 times. Each level's error
    estimate is the difference of its diagonal entry from the previous
    level's, and, as in Ridders' method, the entry with the smallest estimate
    is returned, with that estimate, once it is below ``tol``. Raises ConvergenceError
    (suggesting a different starting step) if no level's is.
    """
    if order not in _STENCILS:
        raise ValueError(f"derivative order {order} not supported (1..4)")
    stencil = _STENCILS[order]
    steps = [h0 / 2 ** i for i in range(RICHARDSON_LEVELS)]
    samples = np.asarray(f(np.array([[k * h for k, _ in stencil] for h in steps])))

    diag = []
    rows = []
    best = (None, np.inf)
    for i, h in enumerate(steps):
        row = [sum(c * v for (_, c), v in zip(stencil, samples[i])) / h ** order]
        for j in range(1, i + 1):
            fac = 4.0 ** j
            row.append((fac * row[j - 1] - rows[i - 1][j - 1]) / (fac - 1.0))
        rows.append(row)
        diag.append(row[-1])
        if i >= 1 and abs(diag[-1] - diag[-2]) < best[1]:
            best = (diag[-1], abs(diag[-1] - diag[-2]))
    if best[1] < tol:
        return best
    raise ConvergenceError(
        f"derivative (order {order}) did not converge to {tol:g}; "
        f"try a starting step different from {h0:g}",
        last=diag[-1], previous=diag[-2],
    )
