"""Chord-function fields on rectangular grids of chords."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FLAGS_BY_CODE, Flag, real_by_symmetry


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
        if name == "abs":
            return np.abs(self.values)
        raise ValueError(f"unknown component {name!r} (want real/imag/abs)")


def axis(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` evenly spaced samples from ``lo`` to ``hi`` inclusive; hi - lo > 0 and finite.

    Samples are placed symmetrically about the midpoint, so a symmetric axis
    is exactly antisymmetric and, for an odd count, its middle sample is
    exactly 0 (``np.linspace(-0.45, 0.45, 41)`` puts it at -5.55e-17).
    """
    if count < 2 or not (hi > lo and np.isfinite(hi - lo)):
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
    """
    xi_p_axis = np.asarray(xi_p_axis, dtype=float)
    xi_q_axis = np.asarray(xi_q_axis, dtype=float)
    if getattr(evaluator, "grid", None) is not None:
        values, flags = evaluator.grid(xi_p_axis, xi_q_axis)
    else:
        values, flags = evaluator.evaluate(*np.meshgrid(xi_p_axis, xi_q_axis, indexing="ij"))
    values = np.asarray(values, dtype=complex)
    # a grid kernel bypasses evaluate, which applies the rule to its batches
    real_by_symmetry(evaluator.state, values, xi_p_axis)
    flags = np.asarray(flags, dtype=np.uint8)
    return ChordFieldGrid(xi_p_axis=xi_p_axis, xi_q_axis=xi_q_axis,
                          values=values, flags=flags, hbar=evaluator.state.hbar)
