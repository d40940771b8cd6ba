"""Every chord-function route by name: ``make_evaluator(name, state)``.

Each route is one core.Evaluator, a name plus a batch kernel (exact, small
and semiclassical add a tensor-grid kernel), so shape checks, empty batches,
the Im = +0.0 rule where chi is real and the one-chord call are written once.
``evaluate`` is the one evaluation path: scan_grid, the blind-spot polish and
moments_from_chi need nothing else. small and semiclassical size chi_s's
trapezoid rule per chord, so a chord reads the same bits alone as in any
batch; their grid kernels take the grid's largest rule. A blind-spot
report's moments come from smallchord.state_moments; ``taylor:K`` is the
Taylor polynomial of the classical curve's moments. A kernel looks library
functions up when it runs, so a wrapper installed later sees every call: the
benchmark's tracer wraps evolved_chi, evolved_chi_grid and chi_small_grid.
Those names, with chi_small, chi_semiclassical, tangency_points and
chord_realizations, stay only until the benchmark reads counters kept by the
library (ROADMAP item 1).
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np

from . import exact, semiclassical, smallchord
from .core import Evaluator, unflagged
from .curves import CurveSpec
from .quadrature import NumericalError

EVALUATOR_NAMES = ("exact", "small", "semiclassical", "sp_small", "sp_full", "taylor")


def _semiclassical_grid(state, xi_p_axis, xi_q_axis):
    """The composite on a tensor grid, chi_s from the rank-one accumulation of chi_small_grid."""
    classical = smallchord.chi_small_grid(state, xi_p_axis, xi_q_axis)
    mesh_p, mesh_q = np.meshgrid(xi_p_axis, xi_q_axis, indexing="ij")
    values, flags = semiclassical.semiclassical_values(state, mesh_p.ravel(), mesh_q.ravel(),
                                                       classical.ravel())
    return values.reshape(classical.shape), flags.reshape(classical.shape)


# name -> (batch kernel, grid kernel or None), each taking the state first
_KERNELS = {
    "small": (lambda state, xi_p, xi_q: unflagged(smallchord.chi_small_points(state, xi_p, xi_q)),
              lambda state, xi_p_axis, xi_q_axis:
                  unflagged(smallchord.chi_small_grid(state, xi_p_axis, xi_q_axis))),
    "semiclassical": (lambda state, xi_p, xi_q: semiclassical.semiclassical_values(
                          state, xi_p, xi_q, smallchord.chi_small_points(state, xi_p, xi_q)),
                      _semiclassical_grid),
    "sp_small": (lambda state, xi_p, xi_q: semiclassical.sp_small_values(state, xi_p, xi_q), None),
    "sp_full": (lambda state, xi_p, xi_q: semiclassical.sp_full_values(state, xi_p, xi_q), None),
}


def _taylor(state: CurveSpec, order: int) -> Evaluator:
    """Short-chord Taylor polynomial of the classical moments, refused where it
    overflows or leaves |chi| <= 1, which every state's chord function obeys."""
    name = f"taylor:{order}"
    moments = smallchord.classical_moments(state, order=order)

    def kernel(xi_p, xi_q):
        # far chords overflow the polynomial; such a value is refused, not flagged
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(smallchord.taylor_values(moments, state.hbar, xi_p, xi_q),
                                dtype=complex)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            k = bad[0]
            raise NumericalError(f"{name} value at chord ({xi_p[k]:.6g}, "
                                 f"{xi_q[k]:.6g}) is not finite")
        modulus = np.abs(values)
        bad = np.flatnonzero(modulus > 1.0 + exact._MODULUS_SLACK)
        if bad.size:
            k = bad[0]
            raise NumericalError(f"{name} |chi| = {modulus[k]:.6g} at chord ({xi_p[k]:.6g}, "
                                 f"{xi_q[k]:.6g}) exceeds 1: the chord is past the "
                                 "polynomial's range")
        return unflagged(values)

    return Evaluator(name, state, kernel)


def make_evaluator(name: str, state: CurveSpec) -> Evaluator:
    """Build an evaluator by name; Taylor orders spell ``taylor:K`` with an
    integer K >= 1, and plain ``taylor`` is ``taylor:4``."""
    if name == "exact":
        return exact.ExactEvaluator(state)
    if name in _KERNELS:
        kernel, grid = _KERNELS[name]
        return Evaluator(name, state, partial(kernel, state),
                         None if grid is None else partial(grid, state))
    taylor = re.fullmatch(r"taylor(?::([1-9][0-9]*))?", name)
    if taylor:
        return _taylor(state, int(taylor[1] or 4))
    raise ValueError(f"unknown evaluator {name!r}; known: {', '.join(EVALUATOR_NAMES)}")
