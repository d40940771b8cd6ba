import numpy as np
import pytest

from chordscan import CurveSpec

# Reference states used throughout the suite: quantum number 5 at hbar = 0.1,
# as the bare ring and after a shear of duration 0.1 under H = p + p^2 + p^3.
RING = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.0)
SHEARED = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)


@pytest.fixture
def ring():
    return RING


@pytest.fixture
def sheared():
    return SHEARED


@pytest.fixture
def enclosed_area():
    """(1/2) ∮ x ∧ dx of a curve by the 16-node trapezoid rule, exact here:
    x ∧ x' is a trig polynomial of degree 3 in theta."""
    def area(curve):
        theta = 2.0 * np.pi * np.arange(16) / 16
        p, q = curve.point(theta)
        dp, dq = curve.velocity(theta)
        return np.pi * np.mean(p * dq - q * dp)
    return area
