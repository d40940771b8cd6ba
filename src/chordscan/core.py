"""Shared phase-space primitives and conventions.

Every module in the package builds on the conventions fixed here:

* 2-vectors are ordered ``(p, q)``; phase points are ``x = (p, q)`` and
  chords (phase-space displacements) are ``xi = (xi_p, xi_q)``.
* The symplectic wedge is ``wedge(a, b) = a_p * b_q - a_q * b_p``, so
  ``wedge(xi, x) = xi_p * q - xi_q * p``.
* Units put the oscillator mass and frequency at 1; ``hbar`` is the only
  scale parameter and enters everywhere explicitly.
* Every sum carried to twice double precision is built on two error-free
  transformations, ``two_sum`` (Knuth's TwoSum) and ``two_product`` (Dekker's).
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

    OK            value trusted at the evaluator's stated accuracy
    EVANESCENT    chord longer than any chord of the curve (no real
                  realizations; semiclassical value decays)
    NEAR_CAUSTIC  a stationary-phase denominator fell below tolerance
    """

    OK = "ok"
    EVANESCENT = "evanescent"
    NEAR_CAUSTIC = "near_caustic"


# Small-int codes used when flags are stored in arrays. A flag's code is its
# severity (the declaration order above); outputs carry the flag names.
FLAG_CODES = {flag: code for code, flag in enumerate(Flag)}
FLAGS_BY_CODE = {code: flag for flag, code in FLAG_CODES.items()}


def worst_flag(*flags: Flag) -> Flag:
    """The most severe of the given flags (OK < EVANESCENT < NEAR_CAUSTIC)."""
    return max(flags, key=FLAG_CODES.__getitem__)


def worst_flag_codes(a, b) -> np.ndarray:
    """Elementwise worst_flag of two arrays of flag codes."""
    return np.maximum(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


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


def unflagged(values) -> tuple[np.ndarray, np.ndarray]:
    """``(values, flag codes)`` with every value flagged OK."""
    return values, np.zeros(values.shape, dtype=np.uint8)  # FLAG_CODES[Flag.OK] == 0


def plane_wave(phase) -> np.ndarray:
    """exp(i phase) of a real array as a complex array, from one np.cos and
    one np.sin pass: the bits of np.exp(1j * phase), without its complex
    product and complex exponential."""
    wave = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=wave.real)
    np.sin(phase, out=wave.imag)
    return wave


def real_by_symmetry(state, values, xi_p) -> None:
    """Set Im to +0.0, in place, wherever a symmetry makes the chord function real.

    On xi_p = 0, chi is the characteristic function of the momentum
    distribution, which the shear q -> q + t H'(p) leaves at the even
    |psi_n(p)|^2: chi is real there for every state. Where t H'(p) is odd
    (t = 0, or a1 = a3 = 0), the shear keeps the Wigner function even under
    (p, q) -> (-p, -q), so chi is real everywhere. Every route leaves
    round-off of either sign in Im there, and np.angle reads a negative Re
    with Im = -0.0 as -pi, so the rule writes +0.0. ``xi_p`` matches the
    leading axis of ``values``: the chords' own xi_p for a batch, the xi_p
    axis for a tensor grid.
    """
    if state.t == 0.0 or state.alpha[1] == state.alpha[3] == 0.0:
        values.imag[...] = 0.0
    else:
        values.imag[np.asarray(xi_p) == 0.0] = 0.0


def refuse_non_finite(xi_p, xi_q) -> None:
    """Refuse chords with a NaN or infinite component: a ValueError naming
    the first, in C order of xi_p and xi_q broadcast together. Every route
    refuses them alike, before any of its own work."""
    finite = np.isfinite(xi_p) & np.isfinite(xi_q)
    if not finite.all():
        k = np.argmin(finite)  # the first False
        xi_p, xi_q = np.broadcast_arrays(xi_p, xi_q)
        raise ValueError(f"chord ({xi_p.flat[k]:.6g}, {xi_q.flat[k]:.6g}) is not finite")


class Evaluator:
    """One route to the chord function of ``state``: a name plus a batch kernel.

    ``kernel(xi_p, xi_q) -> (values, flag codes)`` evaluates the chords
    (xi_p[k], xi_q[k]) of two 1-d float arrays, with complex values and uint8
    flag codes (FLAG_CODES). ``grid(xi_p_axis, xi_q_axis)``, when not None,
    does the same for the tensor grid xi_p_axis x xi_q_axis, and scan_grid
    takes it instead of one ``evaluate`` call on the mesh.
    """

    def __init__(self, name: str, state, kernel, grid=None):
        self.name = name
        self.state = state
        self.kernel = kernel
        self.grid = grid

    def evaluate(self, xi_p, xi_q) -> tuple[np.ndarray, np.ndarray]:
        """(values, flag codes) at the chords (xi_p[k], xi_q[k]) of two same-shape arrays.

        Mismatched shapes and a non-finite chord (refuse_non_finite) are a
        ValueError; an empty batch gives empty arrays.
        """
        xi_p, xi_q = np.asarray(xi_p, dtype=float), np.asarray(xi_q, dtype=float)
        if xi_p.shape != xi_q.shape:
            raise ValueError(f"chord components differ in shape: {xi_p.shape} and {xi_q.shape}")
        refuse_non_finite(xi_p, xi_q)
        if xi_p.size == 0:
            return unflagged(np.zeros(xi_p.shape, dtype=complex))
        values, flags = self.kernel(xi_p.ravel(), xi_q.ravel())
        real_by_symmetry(self.state, values, xi_p.ravel())
        return values.reshape(xi_p.shape), flags.reshape(xi_p.shape)

    def __call__(self, xi) -> ChordValue:
        """The chord xi = (xi_p, xi_q) alone, as a batch of one."""
        values, flags = self.evaluate(xi[0], xi[1])
        return ChordValue(complex(values), FLAGS_BY_CODE[int(flags)])


def wedge(a, b):
    """Symplectic wedge a ∧ b = a_p * b_q - a_q * b_p of two (p, q) vectors.

    Antisymmetric and bilinear; accepts any indexable pair, including numpy
    arrays in the components, and broadcasts elementwise in that case.
    """
    return a[0] * b[1] - a[1] * b[0]


# Veltkamp's factor 2^27 + 1: x * _SPLITTER - (x * _SPLITTER - x) is x's upper half
_SPLITTER = 134217729.0


def veltkamp_split(x):
    """x as high + low, halves of 26 bits or fewer whose products with other
    such halves are exact in double precision (Veltkamp). Exact where
    (2^27 + 1) x does not overflow."""
    scaled = _SPLITTER * x
    high = scaled - (scaled - x)
    return high, x - high


def two_sum(a, b):
    """a + b as s + e exactly, with s = fl(a + b) (Knuth's TwoSum). Exact for
    all finite a and b whose sum does not overflow."""
    s = a + b
    back = s - a
    return s, (a - (s - back)) + (b - back)


def two_product(a, b):
    """a b as p + e exactly, with p = fl(a b) (Dekker). Exact where a and b
    split without overflow (veltkamp_split) and the error e is not
    subnormal, which |a b| >= 2^-969 ensures."""
    p = a * b
    a_big, a_small = veltkamp_split(a)
    b_big, b_small = veltkamp_split(b)
    return p, ((a_big * b_big - p) + a_big * b_small + a_small * b_big) + a_small * b_small
