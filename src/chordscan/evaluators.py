"""Uniform access to every chord-function evaluator.

The evaluator protocol:

* ``name`` and ``state`` (a CurveSpec) attributes;
* ``evaluate(xi_p, xi_q) -> (values, flag_codes)`` (required): the chords
  (xi_p[k], xi_q[k]) of two same-shape arrays, evaluated in one batch, with
  complex values and uint8 flag codes (core.FLAG_CODES) of that shape;
  mismatched shapes are a ValueError and an empty batch gives empty arrays.
  It is the one evaluation path.
* ``evaluator((xi_p, xi_q)) -> ChordValue``: one chord, through the same
  kernel;
* ``grid(xi_p_axis, xi_q_axis) -> (values, flag_codes)`` (optional): a fast
  path for the tensor grid xi_p_axis x xi_q_axis, which scan_grid uses when
  present. The exact oracle and the classical average factor over the grid
  into one matrix product per node count.
"""

from __future__ import annotations

import numpy as np

from .core import ChordValue, chord_arrays
from .curves import CurveSpec
from .exact import ExactEvaluator
from .semiclassical import (chi_semiclassical, semiclassical_values, sp_full,
                            sp_full_values, sp_small, sp_small_values)
from .smallchord import (chi_small, chi_small_grid, chi_small_points, chi_taylor,
                         classical_moments, taylor_values)

EVALUATOR_NAMES = ("exact", "small", "semiclassical", "sp_small", "sp_full", "taylor")


def _batch(kernel, xi_p, xi_q):
    """Run ``kernel`` on the flattened chord arrays and restore their shape."""
    xi_p, xi_q = chord_arrays(xi_p, xi_q)
    if xi_p.size == 0:
        return np.zeros(xi_p.shape, dtype=complex), np.zeros(xi_p.shape, dtype=np.uint8)
    values, flags = kernel(xi_p.ravel(), xi_q.ravel())
    return values.reshape(xi_p.shape), flags.reshape(xi_p.shape)


class SmallChordEvaluator:
    """Classical curve average; vectorized over grids."""

    name = "small"

    def __init__(self, state: CurveSpec):
        self.state = state

    def evaluate(self, xi_p, xi_q):
        def kernel(xi_p, xi_q):
            values = chi_small_points(self.state, xi_p, xi_q)
            return values, np.zeros(values.shape, dtype=np.uint8)

        return _batch(kernel, xi_p, xi_q)

    def __call__(self, xi) -> ChordValue:
        return chi_small(self.state, xi)

    def grid(self, xi_p_axis, xi_q_axis):
        values = chi_small_grid(self.state, xi_p_axis, xi_q_axis)
        return values, np.zeros(values.shape, dtype=np.uint8)


class TaylorEvaluator:
    """Short-chord Taylor polynomial from classical moments."""

    def __init__(self, state: CurveSpec, order: int = 4):
        self.state = state
        self.order = order
        self.name = f"taylor:{order}"
        self._moments = classical_moments(state, order=order)

    def evaluate(self, xi_p, xi_q):
        xi_p, xi_q = chord_arrays(xi_p, xi_q)
        values = np.asarray(taylor_values(self._moments, self.state.hbar, xi_p, xi_q),
                            dtype=complex)
        return values, np.zeros(xi_p.shape, dtype=np.uint8)

    def __call__(self, xi) -> ChordValue:
        return chi_taylor(self._moments, self.state.hbar, xi)


class StationaryPhaseEvaluator:
    """One bare stationary-phase sum: ``sp_small`` or ``sp_full``."""

    _KERNELS = {"sp_small": (sp_small_values, sp_small), "sp_full": (sp_full_values, sp_full)}

    def __init__(self, state: CurveSpec, name: str):
        self.state = state
        self.name = name
        self._values, self._point = self._KERNELS[name]

    def evaluate(self, xi_p, xi_q):
        return _batch(lambda xi_p, xi_q: self._values(self.state, xi_p, xi_q), xi_p, xi_q)

    def __call__(self, xi) -> ChordValue:
        return self._point(self.state, xi)


class SemiclassicalEvaluator:
    """Composite chi_s - sp_small + sp_full.

    A chord batch takes its classical average from one stacked periodic
    mean, a tensor grid from the rank-one accumulation of chi_small_grid;
    the stationary-phase sums run once over the whole batch.
    """

    name = "semiclassical"

    def __init__(self, state: CurveSpec):
        self.state = state

    def evaluate(self, xi_p, xi_q):
        def kernel(xi_p, xi_q):
            classical = chi_small_points(self.state, xi_p, xi_q)
            return semiclassical_values(self.state, xi_p, xi_q, classical)

        return _batch(kernel, xi_p, xi_q)

    def __call__(self, xi) -> ChordValue:
        return chi_semiclassical(self.state, xi)

    def grid(self, xi_p_axis, xi_q_axis):
        classical = chi_small_grid(self.state, xi_p_axis, xi_q_axis)
        mesh_p, mesh_q = np.meshgrid(xi_p_axis, xi_q_axis, indexing="ij")
        values, flags = semiclassical_values(self.state, mesh_p.ravel(), mesh_q.ravel(),
                                             classical.ravel())
        return values.reshape(classical.shape), flags.reshape(classical.shape)


def make_evaluator(name: str, state: CurveSpec):
    """Build an evaluator by name; Taylor orders spell ``taylor:K``."""
    if name == "exact":
        return ExactEvaluator(state)
    if name == "small":
        return SmallChordEvaluator(state)
    if name == "semiclassical":
        return SemiclassicalEvaluator(state)
    if name in ("sp_small", "sp-small"):
        return StationaryPhaseEvaluator(state, "sp_small")
    if name in ("sp_full", "sp-full"):
        return StationaryPhaseEvaluator(state, "sp_full")
    if name.startswith("taylor"):
        _, _, suffix = name.partition(":")
        order = int(suffix) if suffix else 4
        return TaylorEvaluator(state, order=order)
    raise ValueError(f"unknown evaluator {name!r}; known: {', '.join(EVALUATOR_NAMES)}")
