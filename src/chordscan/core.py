"""Shared phase-space primitives and conventions.

Every module in the package builds on the conventions fixed here:

* 2-vectors are ordered ``(p, q)``; phase points are ``x = (p, q)`` and
  chords (phase-space displacements) are ``xi = (xi_p, xi_q)``.
* The symplectic wedge is ``wedge(a, b) = a_p * b_q - a_q * b_p``, so
  ``wedge(xi, x) = xi_p * q - xi_q * p``.
* Units put the oscillator mass and frequency at 1; ``hbar`` is the only
  scale parameter and enters everywhere explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class PhasePoint(NamedTuple):
    """Point of the classical phase plane, ordered (p, q)."""

    p: float
    q: float


class Chord(NamedTuple):
    """Phase-space displacement (the argument of the chord function)."""

    xi_p: float
    xi_q: float

    @property
    def norm(self) -> float:
        return math.hypot(self.xi_p, self.xi_q)


class Flag(enum.Enum):
    """Qualifier attached to evaluated chord-function values, least severe first.

    OK                   value trusted at the evaluator's stated accuracy
    EVANESCENT           chord longer than any chord of the curve (no real
                         realizations; semiclassical value decays)
    NEAR_CAUSTIC         a stationary-phase denominator fell below tolerance
    DEGENERATE_SYMMETRY  a quantity is identically zero by symmetry, so a
                         derived object (nodal line, blind-spot direction)
                         is not defined
    """

    OK = "ok"
    EVANESCENT = "evanescent"
    NEAR_CAUSTIC = "near_caustic"
    DEGENERATE_SYMMETRY = "degenerate_symmetry"


# Small-int codes used when flags are stored in arrays. A flag's code is its
# severity (the declaration order above); outputs carry the flag names.
FLAG_CODES = {flag: code for code, flag in enumerate(Flag)}
FLAGS_BY_CODE = {code: flag for flag, code in FLAG_CODES.items()}


def worst_flag(*flags: Flag) -> Flag:
    """The most severe of the given flags (OK < EVANESCENT < NEAR_CAUSTIC < ...)."""
    return max(flags, key=FLAG_CODES.__getitem__)


def worst_flag_codes(a, b) -> np.ndarray:
    """Elementwise worst_flag of two arrays of flag codes."""
    return np.maximum(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def chord_arrays(xi_p, xi_q) -> tuple[np.ndarray, np.ndarray]:
    """The components of a chord batch as two float arrays of one shape."""
    xi_p = np.asarray(xi_p, dtype=float)
    xi_q = np.asarray(xi_q, dtype=float)
    if xi_p.shape != xi_q.shape:
        raise ValueError(f"chord components differ in shape: {xi_p.shape} and {xi_q.shape}")
    return xi_p, xi_q


@dataclass(frozen=True)
class ChordValue:
    """A chord-function value together with its quality flag.

    The real part is the even ("cosine") component and the imaginary part the
    odd ("sine") component of the chord function; both are exposed as short
    properties because downstream code reasons about them separately.
    """

    value: complex
    flag: Flag = Flag.OK

    @property
    def c(self) -> float:
        return self.value.real

    @property
    def s(self) -> float:
        return self.value.imag

    def __complex__(self) -> complex:
        return complex(self.value)


def wedge(a, b):
    """Symplectic wedge a ∧ b = a_p * b_q - a_q * b_p of two (p, q) vectors.

    Antisymmetric and bilinear; accepts any indexable pair, including numpy
    arrays in the components, and broadcasts elementwise in that case.
    """
    return a[0] * b[1] - a[1] * b[0]

