"""chordscan: chord-function scans of Bohr-quantized states.

The chord function of a state is the expectation value of the phase-space
translation by minus the chord; sampled over chords it carries the same
information as the state itself. This package evaluates it for
Bohr-quantized states of cubic-in-momentum Hamiltonians three ways -- an
exact oracle (a closed form per chord, and the overlap quadrature where its
round-off bound refuses it), a short-chord classical average, and a
stationary-phase composite -- and extracts the structures that make the
function useful: moments, nodal lines, and blind spots (isolated zeros).

Each route is one ``Evaluator`` (``make_evaluator``): a name plus a batch
kernel. The one-chord functions evolved_chi, chi_small, chi_semiclassical,
tangency_points and chord_realizations stay only for the benchmark's tracer,
until it reads counters kept by the library (ROADMAP item 1); the two
geometry calls return their chord's records of the batch root solve.

Quick start::

    from chordscan import CurveSpec, make_evaluator

    state = CurveSpec(n=5, hbar=0.1, alpha=(0, 1, 1, 1), t=0.1)
    chi = make_evaluator("exact", state)
    print(chi((0.2, 0.3)).value)

or from the shell:
``chordscan scan --region=-1.6:1.6 --resolution 161 --out field.csv``.
"""

from .blindspots import (
    BlindSpot,
    BlindSpotSearch,
    NodalCurve,
    NodalSet,
    find_blind_spots,
    first_zero_along,
    nodal_contours,
)
from .core import Chord, ChordValue, Evaluator, Flag, PhasePoint, wedge, worst_flag
from .curves import CurveSpec, InvalidStateError
from .evaluators import EVALUATOR_NAMES, make_evaluator
from .exact import (
    ExactEvaluator,
    GridTooSmallError,
    correlation_C,
    evolved_chi,
    evolved_chi_grid,
    fourier_invariance_residual,
    hermite_psi,
)
from .gridscan import ChordFieldGrid, axis, scan_grid
from .quadrature import ConvergenceError, NumericalError
from .semiclassical import chi_semiclassical, chord_realizations, tangency_points
from .smallchord import (
    BlindSpotEstimate,
    MomentTable,
    SecondOrderMoments,
    chi_small,
    classical_moments,
    closest_blind_spot_estimate,
    moments_from_chi,
    second_order_from_table,
    state_moments,
)

__all__ = [
    "BlindSpot",
    "BlindSpotEstimate",
    "BlindSpotSearch",
    "Chord",
    "ChordFieldGrid",
    "ChordValue",
    "ConvergenceError",
    "CurveSpec",
    "EVALUATOR_NAMES",
    "Evaluator",
    "ExactEvaluator",
    "Flag",
    "GridTooSmallError",
    "InvalidStateError",
    "MomentTable",
    "NodalCurve",
    "NodalSet",
    "NumericalError",
    "PhasePoint",
    "SecondOrderMoments",
    "axis",
    "chi_semiclassical",
    "chi_small",
    "chord_realizations",
    "classical_moments",
    "closest_blind_spot_estimate",
    "correlation_C",
    "evolved_chi",
    "evolved_chi_grid",
    "find_blind_spots",
    "first_zero_along",
    "fourier_invariance_residual",
    "hermite_psi",
    "make_evaluator",
    "moments_from_chi",
    "nodal_contours",
    "scan_grid",
    "second_order_from_table",
    "state_moments",
    "tangency_points",
    "wedge",
    "worst_flag",
]

__version__ = "0.1.0"
