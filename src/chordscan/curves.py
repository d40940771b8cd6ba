"""Bohr-quantized curves: a Fock circle sheared by a cubic momentum flow.

The state with quantum number ``n`` corresponds classically to the circle
``p^2 + q^2 = 2 hbar (n + 1/2)``; evolution under a Hamiltonian that depends
only on momentum, ``H(p) = a3 p^3 + a2 p^2 + a1 p + a0``, shears each point
horizontally: ``q(t) = q(0) + H'(p) t`` with ``H'(p) = 3 a3 p^2 + 2 a2 p + a1``
and ``p`` conserved. The shear has unit Jacobian, so the enclosed area (and
with it the Bohr action) is invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidStateError(ValueError):
    """State or curve parameters outside the supported domain."""


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of a Bohr-quantized curve (equally: of the quantum state).

    Attributes
    ----------
    n : int
        Quantum number (non-negative integer); fixes the action
        ``I = hbar (n + 1/2)`` and radius ``r = sqrt(2 I)``.
    hbar : float
        Scale of the quantum of action (> 0).
    alpha : tuple
        Hamiltonian coefficients ``(a0, a1, a2, a3)`` of
        ``H(p) = a3 p^3 + a2 p^2 + a1 p + a0``.
    t : float
        Evolution time of the shear.
    """

    n: int
    hbar: float
    alpha: tuple[float, float, float, float] = (0.0, 1.0, 1.0, 1.0)
    t: float = 0.0

    def __post_init__(self):
        # a bool is an int to isinstance, but True is no quantum number
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)
                and self.n >= 0):
            raise InvalidStateError(f"quantum number must be a non-negative integer, got {self.n!r}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidStateError(f"hbar must be finite and positive, got {self.hbar!r}")
        if len(self.alpha) != 4 or not all(math.isfinite(a) for a in self.alpha):
            raise InvalidStateError(f"alpha must be 4 finite coefficients, got {self.alpha!r}")
        if not math.isfinite(self.t):
            raise InvalidStateError(f"time must be finite, got {self.t!r}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    @property
    def action(self) -> float:
        """Bohr action I = hbar (n + 1/2); the curve encloses area 2 pi I."""
        return self.hbar * (self.n + 0.5)

    @property
    def radius(self) -> float:
        return math.sqrt(2.0 * self.action)

    # -- Hamiltonian flow ------------------------------------------------

    def hamiltonian(self, p):
        a0, a1, a2, a3 = self.alpha
        return ((a3 * p + a2) * p + a1) * p + a0

    def drift(self, p):
        """Shear velocity H'(p) = 3 a3 p^2 + 2 a2 p + a1."""
        _, a1, a2, a3 = self.alpha
        return (3.0 * a3 * p + 2.0 * a2) * p + a1

    def drift_d1(self, p):
        _, _, a2, a3 = self.alpha
        return 6.0 * a3 * p + 2.0 * a2

    # -- parameterization ------------------------------------------------
    #
    # theta runs over [0, 2pi); the orientation is the one that makes
    # (1/2) \oint x ∧ dx positive (counterclockwise in the (p, q) chart).

    def point(self, theta):
        """Curve point x(theta) = (r cos(theta), r sin(theta) + H'(p) t)."""
        theta = np.asarray(theta, dtype=float)
        p = self.radius * np.cos(theta)
        q = self.radius * np.sin(theta) + self.drift(p) * self.t
        return p, q

    def velocity(self, theta):
        """d x / d theta."""
        theta = np.asarray(theta, dtype=float)
        r = self.radius
        p = r * np.cos(theta)
        dp = -r * np.sin(theta)
        dq = r * np.cos(theta) + self.drift_d1(p) * dp * self.t
        return dp, dq

    # -- action function ---------------------------------------------------

    def action_value(self, x):
        """Action of the level curve through x: I(p,q) = ((q - H'(p) t)^2 + p^2) / 2.

        The curve itself is the level set action_value(x) == self.action.
        """
        p, q = x[0], x[1]
        u = q - self.drift(p) * self.t
        return 0.5 * (u * u + p * p)

    def action_gradient(self, x):
        """Gradient (dI/dp, dI/dq) of the action function at x."""
        p, q = x[0], x[1]
        u = q - self.drift(p) * self.t
        return (p - u * self.drift_d1(p) * self.t, u)
