"""Output checks for the benchmark passes.

Each check takes plain arrays or parsed reports and returns a list of
failure messages; an empty list means the output passed. The expected
values come from closed forms, exact properties of the chord function and
``reference`` (the benchmark's own quadrature), never from stored outputs of
the program.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref


def require(ok: bool, message: str) -> list[str]:
    """[] when ok holds, else [message]."""
    return [] if ok else [message]


def _origin_index(xi_p_axis, xi_q_axis):
    i = int(np.argmin(np.abs(xi_p_axis)))
    j = int(np.argmin(np.abs(xi_q_axis)))
    if xi_p_axis[i] != 0.0 or xi_q_axis[j] != 0.0:
        return None
    return i, j


def unit_at_origin(xi_p_axis, xi_q_axis, values, tol: float = 1e-10) -> list[str]:
    """chi(0) = 1: the state is normalized."""
    at = _origin_index(xi_p_axis, xi_q_axis)
    if at is None:
        return ["grid has no sample at the origin"]
    err = abs(values[at] - 1.0)
    return require(err <= tol, f"|chi(0) - 1| = {err:.3e} > {tol:g}")


def bounded_by_one(values, slack: float = 1e-8) -> list[str]:
    """|chi| <= 1 (Cauchy-Schwarz), up to the oracle's quadrature slack."""
    peak = float(np.max(np.abs(values)))
    return require(peak <= 1.0 + slack, f"max |chi| = {peak:.12f} exceeds 1")


def hermitian(xi_p_axis, xi_q_axis, values, tol: float) -> list[str]:
    """chi(-xi) = chi(xi)* on a grid symmetric about the origin."""
    if not (np.array_equal(xi_p_axis, -xi_p_axis[::-1])
            and np.array_equal(xi_q_axis, -xi_q_axis[::-1])):
        return ["grid axes are not symmetric about 0"]
    err = float(np.max(np.abs(values - np.conj(values[::-1, ::-1]))))
    return require(err <= tol, f"max |chi(-xi) - chi(xi)*| = {err:.3e} > {tol:g}")


def ring_closed_form(xi_p_axis, xi_q_axis, values, n: int, hbar: float,
                     tol: float = 1e-8) -> list[str]:
    """The unsheared field equals exp(-rho^2/4hbar) L_n(rho^2/2hbar)."""
    rho = np.hypot(*np.meshgrid(xi_p_axis, xi_q_axis, indexing="ij"))
    err = float(np.max(np.abs(values - ref.ring_chi(n, hbar, rho))))
    return require(err <= tol, f"ring field misses the Laguerre closed form by {err:.3e}")


def probes(xi_p_axis, xi_q_axis, values, indices, expected, tol: float = 1e-8) -> list[str]:
    """Field values at probe nodes match the reference quadrature.

    ``expected[k]`` is the reference value at chord
    (xi_p_axis[indices[k, 0]], xi_q_axis[indices[k, 1]]).
    """
    got = values[indices[:, 0], indices[:, 1]]
    err = np.abs(got - expected)
    worst = int(np.argmax(err))
    i, j = indices[worst]
    return require(float(err[worst]) <= tol,
                   f"probe chord ({xi_p_axis[i]:.4f}, {xi_q_axis[j]:.4f}) off the "
                   f"reference quadrature by {err[worst]:.3e}")


def normalization(xi_p_axis, xi_q_axis, values, hbar: float, tol: float = 1e-6) -> list[str]:
    """(1/2 pi hbar) int |chi|^2 d^2 xi = 1 for a pure state (grid sum)."""
    cell = (xi_p_axis[1] - xi_p_axis[0]) * (xi_q_axis[1] - xi_q_axis[0])
    total = float(np.sum(np.abs(values) ** 2) * cell / (2.0 * np.pi * hbar))
    return require(abs(total - 1.0) <= tol, f"int |chi|^2 / 2 pi hbar = {total:.9f}, not 1")


def purity_certificates(values, residual: float, correlation, tol: float = 1e-6) -> list[str]:
    """The package's certificates report a pure, normalized state.

    The self-reciprocity residual vanishes, the correlation C(0) equals the
    purity 1, and C coincides with |chi|^2 pointwise.
    """
    c = np.asarray(correlation)
    centre = tuple(k // 2 for k in c.shape)
    defect = float(np.max(np.abs(c - np.abs(values) ** 2)))
    return (require(residual <= tol, f"Fourier invariance residual {residual:.3e} > {tol:g}")
            + require(abs(c[centre] - 1.0) <= tol, f"correlation C(0) = {c[centre]:.9f}, not 1")
            + require(defect <= tol, f"correlation differs from |chi|^2 by {defect:.3e}"))


def nodal_rings(curves, n: int, hbar: float, cell: float) -> list[str]:
    """Exactly n closed nodal curves, on circles of radius sqrt(2 hbar x_k).

    ``curves`` is a list of (points, closed) pairs. Marching squares places
    points by linear interpolation, so each point must lie within a
    twentieth of a grid cell of its circle.
    """
    closed = [np.asarray(points) for points, is_closed in curves if is_closed]
    if len(closed) != n:
        return [f"{len(closed)} closed nodal curves, expected {n}"]
    expected = ref.ring_node_radii(n, hbar)
    radii = sorted((np.hypot(p[:, 0], p[:, 1]) for p in closed), key=np.mean)
    worst = max(float(np.max(np.abs(r - e))) for r, e in zip(radii, expected))
    return require(worst <= cell / 20.0,
                   f"nodal curve strays {worst:.3e} from its Laguerre circle "
                   f"(tolerance {cell / 20.0:.3e})")


def long_chords_evanescent(xi_p_axis, xi_q_axis, flags, diameter: float,
                           margin: float = 1e-3) -> list[str]:
    """Chords longer than the curve's diameter have no realization.

    ``flags`` holds the flag names. Returns a failure when no chord of the
    grid is long enough to test.
    """
    length = np.hypot(*np.meshgrid(xi_p_axis, xi_q_axis, indexing="ij"))
    long = length > diameter * (1.0 + margin)
    if not long.any():
        return ["no chord of the grid exceeds the curve's diameter"]
    wrong = int(np.sum(np.asarray(flags)[long] != "evanescent"))
    return require(wrong == 0, f"{wrong} of {int(long.sum())} chords longer than the "
                               f"diameter {diameter:.4f} are not flagged evanescent")


def cut_starts_at_one(s, values, tol: float = 1e-10) -> list[str]:
    """A cut from s = 0 begins at the origin, where chi = 1."""
    return require(s[0] == 0.0 and abs(values[0] - 1.0) <= tol,
                   f"cut starts at s = {s[0]:g} with chi = {values[0]:.12f}, not chi(0) = 1")


def cut_probes(values, indices, expected, tol: float = 1e-8) -> list[str]:
    """Cut values at the probe samples match the reference quadrature."""
    err = float(np.max(np.abs(values[indices] - expected)))
    return require(err <= tol, f"cut off the reference quadrature by {err:.3e}")


def _nulls(s, intensity, depth: float):
    return [s[k] for k in range(1, len(s) - 1)
            if intensity[k] <= intensity[k - 1] and intensity[k] <= intensity[k + 1]
            and intensity[k] < depth]


def cut_agreement(s, exact_abs2, semi_abs2, semi_flags, s_max: float = 2.0,
                  rel_tol: float = 0.03, null_depth: float = 0.05 ** 2,
                  null_shift: float = 0.01) -> list[str]:
    """Exact and composite |chi|^2 agree on s <= s_max, with nulls aligned.

    Samples the composite flags near_caustic are left out. Intensities may
    differ by rel_tol of the exact peak; local minima deeper than
    ``null_depth`` must pair up within ``null_shift`` in s.
    """
    s = np.asarray(s)
    keep = (s <= s_max) & (np.asarray(semi_flags) != "near_caustic")
    s, a, b = s[keep], np.asarray(exact_abs2)[keep], np.asarray(semi_abs2)[keep]
    worst = float(np.max(np.abs(a - b)))
    limit = rel_tol * float(np.max(a))
    out = require(worst <= limit, f"|chi|^2 of the two routes differ by {worst:.3e} "
                                  f"> {limit:.3e} on s <= {s_max:g}")
    nulls_a, nulls_b = _nulls(s, a, null_depth), _nulls(s, b, null_depth)
    if not nulls_a or len(nulls_a) != len(nulls_b):
        return out + [f"null counts differ: exact {len(nulls_a)}, composite {len(nulls_b)}"]
    shift = max(abs(x - y) for x, y in zip(nulls_a, nulls_b))
    return out + require(shift <= null_shift, f"nulls shifted by {shift:.4f} > {null_shift:g}")


def moments(report: dict, expected: dict, tol: float = 1e-6, tol_mean_p: float = 1e-8) -> list[str]:
    """Report moments equal the ladder values <p> = 0, <p^2>, <q>."""
    got = report["moments"]
    out = []
    for key, limit in (("mean_p", tol_mean_p), ("p2", tol), ("mean_q", tol)):
        err = abs(got[key] - expected[key])
        out += require(err <= limit, f"{key} = {got[key]:.10f}, ladder value {expected[key]:.10f}")
    return out


def estimate_radius(report: dict, hbar: float, p2: float, rel_tol: float = 1e-6) -> list[str]:
    """The ellipse estimate lies at sqrt(2 hbar^2 / <p^2>) on the mean ray."""
    want = math.sqrt(2.0 * hbar * hbar / p2)
    got = report.get("estimate_radius")
    if got is None:
        return ["report has no estimate_radius"]
    return require(abs(got - want) <= rel_tol * want,
                   f"estimate radius {got:.8f}, expected {want:.8f}")


def spots_are_zeros(spots, chi, tol: float = 1e-7) -> list[str]:
    """Every located spot is a zero of chi as computed by ``chi`` (the reference)."""
    if not spots:
        return ["no blind spots located"]
    worst = max(abs(chi(xi)) for xi in spots)
    return require(worst <= tol, f"a located spot has |chi| = {worst:.3e} > {tol:g}")


def spots_paired(spots, tol: float = 1e-6) -> list[str]:
    """Spots come in +/- pairs (chi(-xi) = chi(xi)*)."""
    pts = np.asarray(spots, dtype=float).reshape(-1, 2)
    if not len(pts):
        return ["no blind spots located"]
    gap = np.hypot(pts[:, None, 0] + pts[None, :, 0], pts[:, None, 1] + pts[None, :, 1])
    worst = float(np.max(np.min(gap, axis=1)))
    return require(worst <= tol, f"a spot has no mirror partner within {worst:.3e}")


def ray_zero(root: float, direction, chi, estimate: float | None = None,
             window=(0.80, 0.86), tol: float = 1e-7) -> list[str]:
    """chi vanishes at the ray root; estimate / root lies in the paper's window."""
    u = np.asarray(direction, dtype=float) / math.hypot(*direction)
    mag = abs(chi(root * u))
    out = require(mag <= tol, f"|chi| = {mag:.3e} at the ray zero s = {root:.6f}")
    if estimate is not None:
        ratio = estimate / root
        out += require(window[0] <= ratio <= window[1],
                       f"estimate / first zero = {ratio:.4f} outside {list(window)}")
    return out
