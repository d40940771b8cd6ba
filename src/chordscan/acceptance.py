"""End-to-end acceptance checks binding the package's quantitative claims.

Each criterion function measures one claim on the two reference states (the
n = 5 ring and its cubic shear at hbar = 0.1, t = 0.1) and returns a
CriterionResult; run_all executes the whole battery. The checks are phrased
against independently derived anchors -- closed forms, Bessel/Laguerre zeros,
ladder-operator moment values -- never against this package's own outputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.laguerre import lagroots
from scipy.special import j0

from .blindspots import find_blind_spots, first_zero_along, nodal_contours
from .core import FLAG_CODES, Flag, real_by_symmetry
from .curves import CurveSpec
from .evaluators import make_evaluator
from .exact import (_closed_form, _overlap, correlation_C, fock_chi_radial,
                    fourier_invariance_residual)
from .gridscan import axis, scan_grid
from .smallchord import (classical_moments, closest_blind_spot_estimate, moments_from_chi,
                         second_order_from_table, state_moments, taylor_values)

RING_STATE = CurveSpec(n=5, hbar=0.1)
SHEARED_STATE = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
# reference cut through the sheared state's blind-spot field: xi_p = m xi_q
CUT_SLOPE = 0.8172
CUT_SAMPLES = 1000
# random chords of the normalization and symmetry check, and their seed
SYMMETRY_CHORDS = 1000
SYMMETRY_SEED = 20240814
# grid points per axis on which the ring state's nodal rings are traced
RING_RESOLUTION = 400

MEAN_Q = 0.265          # t (3 a3 <p^2> + a1) with <p^2> = hbar (n + 1/2)
SECOND_P = 0.55         # hbar (n + 1/2)
ELLIPSE_RADIUS = math.sqrt(2.0 * 0.1 ** 2 / SECOND_P)  # 0.190693...
# sheared states on which the closed form meets the quadrature, and the grid points per axis
SHEARED_ANCHORS = tuple(replace(SHEARED_STATE, t=t) for t in (0.1, 1.0, 5.0)) + (
    replace(SHEARED_STATE, n=3, t=0.2),)
SHEARED_ANCHOR_RESOLUTION = 21


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    # wall time of the criterion, set by run_all; not part of the result
    elapsed_seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: measured {self.measured:.3e} "
                f"against {self.tolerance:.3e}" + (f" ({self.detail})" if self.detail else ""))


def _cut_direction() -> np.ndarray:
    d = np.array([CUT_SLOPE, 1.0])
    return d / np.hypot(d[0], d[1])


def criterion_normalization_and_symmetry() -> CriterionResult:
    """chi(0) = 1 and chi(-xi) = chi(xi)* for the exact and composite routes."""
    rng = np.random.default_rng(SYMMETRY_SEED)
    chords = rng.uniform(-1.9, 1.9, size=(SYMMETRY_CHORDS, 2))
    exact = make_evaluator("exact", SHEARED_STATE)
    semi = make_evaluator("semiclassical", SHEARED_STATE)

    xi = np.vstack([(0.0, 0.0), chords, -chords])
    values, _ = exact.evaluate(xi[:, 0], xi[:, 1])
    plus, minus = values[1:SYMMETRY_CHORDS + 1], values[SYMMETRY_CHORDS + 1:]
    worst_exact = max(abs(values[0] - 1.0), float(np.max(np.abs(plus - np.conj(minus)))))

    values, _ = semi.evaluate(xi[:, 0], xi[:, 1])
    plus, minus = values[1:SYMMETRY_CHORDS + 1], values[SYMMETRY_CHORDS + 1:]
    worst_semi = max(abs(values[0] - 1.0), float(np.max(np.abs(plus - np.conj(minus)))))

    passed = worst_exact <= 1e-10 and worst_semi <= 1e-8
    return CriterionResult(
        name="normalization and hermitian symmetry",
        passed=passed, measured=max(worst_exact, worst_semi), tolerance=1e-8,
        detail=f"exact {worst_exact:.1e} (tol 1e-10), composite {worst_semi:.1e} (tol 1e-8)")


def criterion_oracle_cross_check() -> CriterionResult:
    """At t = 0 the overlap quadrature must reproduce the closed ring form."""
    worst = 0.0
    radii, angles = np.meshgrid(np.linspace(0.05, 3.0, 14),
                                np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False))
    xi_p, xi_q = (radii * np.cos(angles)).ravel(), (radii * np.sin(angles)).ravel()
    for n in (0, 1, 5, 10):
        state = CurveSpec(n=n, hbar=0.1)
        values = _overlap(state, xi_p, xi_q, tensor=False)
        real_by_symmetry(state, values, xi_p)
        closed = fock_chi_radial(n, 0.1, np.hypot(xi_p, xi_q))
        worst = max(worst, float(np.max(np.abs(values - closed))))
    return CriterionResult(name="quadrature oracle against closed ring form",
                           passed=worst <= 1e-8, measured=worst, tolerance=1e-8)


def criterion_sheared_closed_form() -> CriterionResult:
    """Under shear the Gaussian-Hermite closed form must reproduce the overlap quadrature."""
    ax = axis(-4.0, 4.0, SHEARED_ANCHOR_RESOLUTION)
    worst = worst_bound = 0.0
    for state in SHEARED_ANCHORS:
        closed, bound = _closed_form(state, ax[:, np.newaxis], ax)
        quadrature = _overlap(state, ax, ax, tensor=True)
        worst = max(worst, float(np.max(np.abs(closed - quadrature))))
        worst_bound = max(worst_bound, float(np.max(bound)))
    return CriterionResult(
        name="closed form against the quadrature under shear",
        passed=worst <= 1e-12, measured=worst, tolerance=1e-12,
        detail=f"n = 5 at t = 0.1, 1, 5 and n = 3 at t = 0.2 on {ax.size}² chords "
               f"over ±4, largest round-off bound {worst_bound:.1e}")


def criterion_small_chord_bessel() -> CriterionResult:
    """The unsheared classical average is a Bessel J0 profile."""
    xi_p, xi_q = np.random.default_rng(7).uniform(-1.6, 1.6, size=(40, 2)).T
    values, _ = make_evaluator("small", RING_STATE).evaluate(xi_p, xi_q)
    reference = j0(RING_STATE.radius * np.hypot(xi_p, xi_q) / RING_STATE.hbar)
    worst = float(np.max(np.abs(values - reference)))
    return CriterionResult(name="classical average equals Bessel J0 on the ring",
                           passed=worst <= 1e-10, measured=worst, tolerance=1e-10)


def criterion_ellipse_accuracy_ratio() -> CriterionResult:
    """Ellipse estimate over true first nodal radius lands near 0.83."""
    exact = make_evaluator("exact", SHEARED_STATE)
    moments = state_moments(SHEARED_STATE)
    estimate = closest_blind_spot_estimate(moments, SHEARED_STATE.hbar)
    mp, mq = moments.mean
    nodal = first_zero_along(exact, (mp, mq), s_max=0.4)
    ratio = estimate.radius / nodal
    return CriterionResult(
        name="ellipse radius to first nodal radius ratio",
        passed=0.80 <= ratio <= 0.86, measured=ratio, tolerance=0.86,
        detail=f"estimate {estimate.radius:.6f}, nodal {nodal:.6f}, window [0.80, 0.86]")


def criterion_nodal_ring_structure() -> CriterionResult:
    """The ring state's real part carries exactly five closed nodal rings."""
    half = 1.75
    ax = axis(-half, half, RING_RESOLUTION)
    grid = scan_grid(make_evaluator("exact", RING_STATE), ax, ax)
    contours = nodal_contours(grid, "real")
    closed = [c for c in contours.curves if c.closed]

    roots = np.sort(lagroots([0.0] * 5 + [1.0]))
    expected = np.sqrt(2.0 * RING_STATE.hbar * roots)
    cell = 2.0 * half / (RING_RESOLUTION - 1)
    if len(closed) != 5:
        return CriterionResult(name="five closed nodal rings with Laguerre radii",
                               passed=False, measured=float(len(closed)), tolerance=5.0,
                               detail=f"found {len(closed)} closed contours")
    measured_radii = np.sort([float(np.mean(np.hypot(c.points[:, 0], c.points[:, 1])))
                              for c in closed])
    worst = float(np.max(np.abs(measured_radii - expected)))
    return CriterionResult(
        name="five closed nodal rings with Laguerre radii",
        passed=worst <= cell, measured=worst, tolerance=cell,
        detail=f"radii {np.array2string(measured_radii, precision=5)}")


def criterion_cut_agreement() -> CriterionResult:
    """Composite and exact intensities agree along the reference cut."""
    u = _cut_direction()
    exact = make_evaluator("exact", SHEARED_STATE)
    semi = make_evaluator("semiclassical", SHEARED_STATE)
    ss = np.linspace(0.0, 2.0, CUT_SAMPLES)
    values, flags = semi.evaluate(ss * u[0], ss * u[1])
    usable = flags != FLAG_CODES[Flag.NEAR_CAUSTIC]
    kept = ss[usable]
    abs_semi = np.abs(values[usable]) ** 2
    abs_exact = np.abs(exact.evaluate(kept * u[0], kept * u[1])[0]) ** 2
    threshold = 0.03 * float(np.max(abs_exact))
    worst = float(np.max(np.abs(abs_semi - abs_exact)))

    # deep intensity nulls must sit at the same cut coordinate both ways
    def null_positions(mags):
        out = []
        for k in range(1, len(mags) - 1):
            if mags[k] <= mags[k - 1] and mags[k] <= mags[k + 1] and mags[k] < 0.05 ** 2:
                out.append(kept[k])
        return out

    nulls_exact = null_positions(abs_exact)
    nulls_semi = null_positions(abs_semi)
    null_shift = (max(abs(a - b) for a, b in zip(nulls_exact, nulls_semi))
                  if len(nulls_exact) == len(nulls_semi) and nulls_exact else np.inf)
    passed = worst <= threshold and null_shift <= 0.01
    return CriterionResult(
        name="cut intensity agreement and null alignment",
        passed=passed, measured=worst, tolerance=threshold,
        detail=f"{len(nulls_exact)} nulls, worst shift {null_shift:.4f} (tol 0.01)")


def criterion_blind_spot_certificates() -> CriterionResult:
    """Reported spots are exact zeros, come in +/- pairs, near the estimate."""
    exact = make_evaluator("exact", SHEARED_STATE)
    ax = axis(-0.45, 0.45, 41)
    grid = scan_grid(exact, ax, ax)
    search = find_blind_spots(exact, grid)
    if not search.spots:
        return CriterionResult(name="blind-spot zeros, pairing, ellipse proximity",
                               passed=False, measured=math.inf, tolerance=1e-6,
                               detail="no spots found")
    worst_residual = max(abs(s.value) for s in search.spots)
    pair_defect = 0.0
    for s in search.spots:
        partner = min(math.hypot(o.chord.xi_p + s.chord.xi_p,
                                 o.chord.xi_q + s.chord.xi_q)
                      for o in search.spots)
        pair_defect = max(pair_defect, partner)
    closest = search.nearest().radius
    radius_error = abs(closest - ELLIPSE_RADIUS) / ELLIPSE_RADIUS
    passed = worst_residual <= 1e-6 and pair_defect <= 1e-6 and radius_error <= 0.25
    return CriterionResult(
        name="blind-spot zeros, pairing, ellipse proximity",
        passed=passed, measured=worst_residual, tolerance=1e-6,
        detail=(f"{len(search.spots)} spots, pair defect {pair_defect:.1e}, "
                f"closest radius {closest:.4f} vs estimate {ELLIPSE_RADIUS:.4f} "
                f"({100 * radius_error:.0f}%, tol 25%)"))


def criterion_moment_triangle() -> CriterionResult:
    """Classical averages and origin derivatives give the same first moments."""
    table = classical_moments(SHEARED_STATE, order=4)
    classical = second_order_from_table(table)
    quantum = moments_from_chi(make_evaluator("exact", SHEARED_STATE))
    checks = {
        "classical <q>": (classical.mean.q, MEAN_Q, 1e-6),
        "quantum <q>": (quantum.mean.q, MEAN_Q, 1e-6),
        "classical <p>": (classical.mean.p, 0.0, 1e-8),
        "quantum <p>": (quantum.mean.p, 0.0, 1e-8),
        "classical <p^2>": (classical.p2, SECOND_P, 1e-6),
        "quantum <p^2>": (quantum.p2, SECOND_P, 1e-6),
    }
    worst_ratio = 0.0
    for value, target, tol in checks.values():
        worst_ratio = max(worst_ratio, abs(value - target) / tol)

    # Taylor truncation at order K must vanish like |xi|^(K+1)
    order = 3
    direction = np.array([0.37, 0.93])
    direction = direction / np.hypot(*direction)
    ss = np.geomspace(3e-3, 3e-2, 7)
    xi_p, xi_q = ss * direction[0], ss * direction[1]
    small, _ = make_evaluator("small", SHEARED_STATE).evaluate(xi_p, xi_q)
    errs = np.abs(taylor_values(table, SHEARED_STATE.hbar, xi_p, xi_q, order=order) - small)
    slope = float(np.polyfit(np.log(ss), np.log(errs), 1)[0])
    slope_ok = abs(slope - (order + 1)) <= 0.4
    passed = worst_ratio <= 1.0 and slope_ok
    return CriterionResult(
        name="moment triangle and Taylor convergence order",
        passed=passed, measured=worst_ratio, tolerance=1.0,
        detail=f"worst moment error {worst_ratio:.2e} of its tolerance, "
               f"Taylor slope {slope:.2f} (expect {order + 1})")


def criterion_purity_invariance() -> CriterionResult:
    """|chi|^2 is its own symplectic Fourier transform on a contained grid."""
    ax = axis(-3.2, 3.2, 161)
    grid = scan_grid(make_evaluator("exact", SHEARED_STATE), ax, ax)
    residual = fourier_invariance_residual(grid)
    corr = correlation_C(grid)
    pointwise = float(np.max(np.abs(corr - np.abs(grid.values) ** 2)))
    passed = residual <= 0.01 and pointwise <= 0.01
    return CriterionResult(
        name="purity self-reciprocity and chord correlation",
        passed=passed, measured=max(residual, pointwise), tolerance=0.01,
        detail=f"transform residual {residual:.1e}, correlation defect {pointwise:.1e}")


def criterion_regime_handoff() -> CriterionResult:
    """Short chords reduce to the classical average, mid-ring to pure SP."""
    def ring_of_chords(radii, count):
        s, a = np.meshgrid(radii, np.linspace(0.0, 2.0 * np.pi, count, endpoint=False),
                           indexing="ij")
        return (s * np.cos(a)).ravel(), (s * np.sin(a)).ravel()

    semi = make_evaluator("semiclassical", SHEARED_STATE)
    short = ring_of_chords((0.02, 0.04, 0.06, 0.08, 0.1), 8)
    worst_short = float(np.max(np.abs(
        semi.evaluate(*short)[0] - make_evaluator("small", SHEARED_STATE).evaluate(*short)[0])))
    mid = ring_of_chords((0.5, 0.9, 1.3, 1.7), 6)
    worst_mid = float(np.max(np.abs(
        semi.evaluate(*mid)[0] - make_evaluator("sp_full", SHEARED_STATE).evaluate(*mid)[0])))
    worst = max(worst_short, worst_mid)
    return CriterionResult(
        name="regime handoff at the origin and on the mid-ring",
        passed=worst <= 0.02, measured=worst, tolerance=0.02,
        detail=f"short-chord {worst_short:.2e}, mid-ring {worst_mid:.2e}")


CRITERIA = (
    criterion_normalization_and_symmetry,
    criterion_oracle_cross_check,
    criterion_sheared_closed_form,
    criterion_small_chord_bessel,
    criterion_ellipse_accuracy_ratio,
    criterion_nodal_ring_structure,
    criterion_cut_agreement,
    criterion_blind_spot_certificates,
    criterion_moment_triangle,
    criterion_purity_invariance,
    criterion_regime_handoff,
)


def run_all(report=print) -> list[CriterionResult]:
    results = []
    for criterion in CRITERIA:
        started = time.perf_counter()
        result = criterion()
        result = replace(result, elapsed_seconds=time.perf_counter() - started)
        results.append(result)
        if report is not None:
            report(result.line())
    return results
