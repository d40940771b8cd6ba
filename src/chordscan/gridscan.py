"""Chord-function fields on rectangular grids of chords.

Translations invert as T(-xi) = T(xi)^dagger, so every state's chord function
obeys chi(-xi) = chi(xi)*. scan_grid uses this on a grid whose two axes are
both exactly antisymmetric (``axis(-h, h, n)`` always makes one): it
evaluates the rows xi_p >= 0 and writes the others as the conjugates of
their -xi partners, so each +-xi pair costs one evaluation and its two cells
agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FLAGS_BY_CODE, Flag, real_by_symmetry, refuse_non_finite


@dataclass(frozen=True)
class ChordFieldGrid:
    """A chord-function field sampled on the tensor grid xi_p_axis x xi_q_axis.

    ``values[i, j]`` belongs to the chord (xi_p_axis[i], xi_q_axis[j]);
    ``flags`` stores the matching quality codes (see core.FLAG_CODES).
    """

    xi_p_axis: np.ndarray
    xi_q_axis: np.ndarray
    values: np.ndarray
    flags: np.ndarray
    hbar: float

    def __post_init__(self):
        nshape = (self.xi_p_axis.size, self.xi_q_axis.size)
        if self.values.shape != nshape or self.flags.shape != nshape:
            raise ValueError(
                f"field shape {self.values.shape}/{self.flags.shape} does not "
                f"match axes {nshape}")

    @property
    def worst_flag(self) -> Flag:
        return FLAGS_BY_CODE[int(np.max(self.flags))]  # codes ascend with severity

    def flag_counts(self) -> dict[Flag, int]:
        codes, counts = np.unique(self.flags, return_counts=True)
        return {FLAGS_BY_CODE[int(c)]: int(k) for c, k in zip(codes, counts)}

    def component(self, name: str) -> np.ndarray:
        if name == "real":
            return self.values.real
        if name == "imag":
            return self.values.imag
        raise ValueError(f"unknown component {name!r} (want real/imag)")


def axis(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` evenly spaced samples from ``lo`` to ``hi`` inclusive; hi - lo > 0
    and finite, and ``count`` an integer of at least 2.

    Samples are placed symmetrically about the midpoint, so a symmetric axis
    is exactly antisymmetric and, for an odd count, its middle sample is
    exactly 0 (``np.linspace(-0.45, 0.45, 41)`` puts it at -5.55e-17).
    """
    if (not isinstance(count, (int, np.integer)) or count < 2
            or not (hi > lo and np.isfinite(hi - lo))):
        raise ValueError(f"bad axis [{lo}, {hi}] x {count}")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    m = 0.5 * (count - 1)
    out = mid + half * ((np.arange(count) - m) / m)
    out[0], out[-1] = lo, hi
    return out


def scan_grid(evaluator, xi_p_axis, xi_q_axis) -> ChordFieldGrid:
    """Evaluate a chord-function evaluator over a chord grid.

    Uses the evaluator's tensor-grid fast path ``grid`` when it has one that
    is not None, and otherwise one ``evaluate`` call on the whole mesh. The
    evaluator must expose ``state`` (a CurveSpec).

    When both axes are exactly antisymmetric, only the rows i >= N // 2
    (xi_p >= 0) are evaluated. Row i < N // 2 is the conjugate of row
    N - 1 - i read backwards, with the same flags, since chi(-xi) =
    chi(xi)* holds exactly for every state; for odd N the xi_q < 0 half of
    the xi_p = 0 row is mirrored from its other half the same way. Any other
    grid is evaluated in full. A non-finite chord is a ValueError
    (core.refuse_non_finite), as in ``evaluate``.
    """
    xi_p_axis = np.asarray(xi_p_axis, dtype=float)
    xi_q_axis = np.asarray(xi_q_axis, dtype=float)
    refuse_non_finite(xi_p_axis[:, None], xi_q_axis)
    symmetric = all(np.array_equal(a, -a[::-1]) for a in (xi_p_axis, xi_q_axis))
    lower = xi_p_axis.size // 2 if symmetric else 0
    rows = xi_p_axis[lower:]
    if getattr(evaluator, "grid", None) is not None:
        computed, computed_flags = evaluator.grid(rows, xi_q_axis)
    else:
        computed, computed_flags = evaluator.evaluate(*np.meshgrid(rows, xi_q_axis,
                                                                   indexing="ij"))
    shape = (xi_p_axis.size, xi_q_axis.size)
    values = np.empty(shape, dtype=complex)
    flags = np.empty(shape, dtype=np.uint8)
    values[lower:] = computed
    flags[lower:] = computed_flags
    if symmetric:
        values[:lower] = np.conj(values[::-1, ::-1][:lower])
        flags[:lower] = flags[::-1, ::-1][:lower]
        if xi_p_axis.size % 2:
            half = xi_q_axis.size // 2
            values[lower, :half] = np.conj(values[lower, ::-1][:half])
            flags[lower, :half] = flags[lower, ::-1][:half]
    # a grid kernel bypasses evaluate, which applies the rule to its batches
    real_by_symmetry(evaluator.state, values, xi_p_axis)
    return ChordFieldGrid(xi_p_axis=xi_p_axis, xi_q_axis=xi_q_axis,
                          values=values, flags=flags, hbar=evaluator.state.hbar)
