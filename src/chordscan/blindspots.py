"""Nodal lines and blind spots of a chord-function field.

Nodal lines of the real and imaginary components are traced from a scanned
grid by marching squares in whole arrays: the crossed grid edges and their
linearly interpolated points are found in one pass over the edges, each cell
joins its crossed edges by its case (saddle cells resolved by the cell-center
sign), and the segments are chained through integer edge ids.
Blind spots -- common zeros of both components -- are seeded from cells on
which each component changes sign or vanishes, and polished by a damped
Newton iteration on the underlying evaluator, so their final accuracy is set
by the evaluator, not by the scan resolution. A seed converges when its own
Newton step falls below ``STEP_TOL`` cell diagonals, a rule on position that
no scale of |chi| enters: a seed sliding down the decaying tail, where each
step stays a fixed fraction of the tail's width, never converges. All seeds
are polished in lockstep, at most three ``evaluate`` calls per Newton step
(the Jacobian stencils, the full steps, the damped steps; ``_newton_polish``),
so the number of calls is set by the Newton steps and not by the number of
seeds. Every kernel but the exact route's quadrature (the chords its
closed form refuses) is elementwise, so a chord reads the same bits in any
batch and a seed moves exactly as it would alone. The searching seeds are a
mask; the converged roots are merged by one loop over them in seed order,
which runs once per search. The ray scan of ``first_zero_along`` is one call
as well.

Both sign tests first clear samples below a noise floor (``NOISE_RATIO``
times the field scale) to exactly zero, and a component with no sample above
it is degenerate. Im chi on the xi_p = 0 row is already an exact +0.0
(``core.real_by_symmetry``); the floor guards the decaying tail, whose
round-off of either sign would otherwise decide which cells count as
crossings, and so make them depend on the numpy/BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Chord
from .gridscan import ChordFieldGrid
from .quadrature import NumericalError

# a Newton step shorter than this many cell diagonals ends a seed's polish,
# and converged seeds closer than this are one zero
STEP_TOL = 1e-6

# samples whose modulus is this far under the field's scale are round-off of
# a zero and carry no sign; a component with no sample above it is degenerate
NOISE_RATIO = 1e-12

RAY_SAMPLES = 400  # first_zero_along's ray scan
RAY_TOL = 1e-9  # largest |chi| first_zero_along accepts at a root


def _floored(comp: np.ndarray, scale: float) -> np.ndarray:
    """``comp`` with every sample below the noise floor set to exactly 0."""
    return np.where(np.abs(comp) < NOISE_RATIO * scale, 0.0, comp)


@dataclass(frozen=True)
class NodalCurve:
    """One polyline of the nodal set, in chord coordinates (xi_p, xi_q)."""

    points: np.ndarray
    closed: bool

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class NodalSet:
    curves: tuple[NodalCurve, ...]
    degenerate: bool  # the component is identically zero: no line is defined


def nodal_contours(grid: ChordFieldGrid, component: str = "real") -> NodalSet:
    """Trace the nodal lines of one component of a scanned field."""
    comp = grid.component(component)
    scale = float(np.max(np.abs(grid.values)))
    floored = _floored(comp, scale)
    if not np.any(floored):
        return NodalSet(curves=(), degenerate=True)
    # lift samples below the noise floor (exact zeros or round-off) to the
    # floor, off the lattice and to one fixed side, so every cell has 0, 2 or
    # 4 crossings and the traced line does not follow the signs of round-off
    comp = np.where(floored == 0.0, NOISE_RATIO * scale, comp)
    pos = comp > 0
    xp, xq = grid.xi_p_axis, grid.xi_q_axis

    # edge ids: xi_p-edges (i, j)-(i+1, j) first, then xi_q-edges
    # (i, j)-(i, j+1), each row-major; each crossed edge's point once
    cross_p = pos[:-1, :] != pos[1:, :]
    cross_q = pos[:, :-1] != pos[:, 1:]
    first_q, cols = cross_p.size, comp.shape[1]
    points = np.empty((cross_p.size + cross_q.size, 2))
    i, j = np.nonzero(cross_p)
    va, vb = comp[i, j], comp[i + 1, j]
    points[i * cols + j] = np.stack([xp[i] + va / (va - vb) * (xp[i + 1] - xp[i]), xq[j]], -1)
    i, j = np.nonzero(cross_q)
    va, vb = comp[i, j], comp[i, j + 1]
    points[first_q + i * (cols - 1) + j] = np.stack(
        [xp[i], xq[j] + va / (va - vb) * (xq[j + 1] - xq[j])], -1)

    # per crossed cell, row-major, its edges in bottom, right, top, left
    # order; a boolean changes value an even number of times around the four
    # corners, so a cell has 0, 2 or 4 crossings. Two crossings are joined in
    # that order; a saddle's center sign decides which corner pair its two
    # segments isolate.
    i, j = np.nonzero(cross_p[:, :-1] | cross_q[1:, :] | cross_p[:, 1:] | cross_q[:-1, :])
    left = first_q + i * (cols - 1) + j
    edges = np.stack([i * cols + j, left + (cols - 1), i * cols + j + 1, left], -1)
    crossed = np.stack([cross_p[i, j], cross_q[i + 1, j], cross_p[i, j + 1], cross_q[i, j]], -1)
    count = crossed.sum(-1)
    segments = np.full((i.size, 2, 2), -1)
    segments[count == 2, 0] = edges[count == 2][crossed[count == 2]].reshape(-1, 2)
    saddle = count == 4
    i, j = i[saddle], j[saddle]
    center = 0.25 * (comp[i, j] + comp[i + 1, j] + comp[i + 1, j + 1] + comp[i, j + 1])
    bottom, right, top, left = edges[saddle].T
    same = (center > 0) == pos[i, j]
    segments[saddle, 0] = np.stack([bottom, np.where(same, right, left)], -1)
    segments[saddle, 1] = np.where(same[:, None], np.stack([top, left], -1),
                                   np.stack([right, top], -1))
    segments = segments.reshape(-1, 2)
    segments = segments[segments[:, 0] >= 0].tolist()

    # chain segments through shared edges; each edge joins at most two cells,
    # so it has at most two neighbours, kept in order of first appearance
    links = {}
    for u, v in segments:
        links.setdefault(u, []).append(v)
        links.setdefault(v, []).append(u)

    curves = []
    consumed = set()

    def trace(start):
        path = [start, links[start][0]]
        while path[-1] != start:
            nxt = [k for k in links[path[-1]] if k != path[-2]]
            if not nxt:
                break
            path.append(nxt[0])
        consumed.update(path)
        curves.append(NodalCurve(points=points[path], closed=path[-1] == start))

    # open curves first (endpoints have a single neighbour), from sorted
    # endpoints; whatever remains sits on closed loops
    for key in sorted(k for k, nb in links.items() if len(nb) == 1):
        if key not in consumed:
            trace(key)
    for key in sorted(links):
        if key not in consumed:
            trace(key)

    curves.sort(key=lambda c: -len(c.points))
    return NodalSet(curves=tuple(curves), degenerate=False)


# -- blind spots ------------------------------------------------------------


@dataclass(frozen=True)
class BlindSpot:
    chord: Chord
    value: complex
    iterations: int

    @property
    def radius(self) -> float:
        return self.chord.norm


@dataclass(frozen=True)
class BlindSpotSearch:
    spots: tuple[BlindSpot, ...]
    n_seeds: int

    def nearest(self) -> BlindSpot:
        if not self.spots:
            raise ValueError("no blind spots found in the scanned region")
        return self.spots[0]


def _chi(evaluator, points):
    """chi at ``points``, whose last axis holds (xi_p, xi_q), in one evaluate call."""
    values, _ = evaluator.evaluate(points[..., 0], points[..., 1])
    return values


# Jacobian stencil of one Newton step: the chord offsets +e_p, -e_p, +e_q, -e_q
_JACOBIAN_OFFSETS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
# the lengths lambda = 1, 1/2, ..., 1/128 of a Newton step, longest first, in
# the groups that share one evaluate call: the full step, which most seeds
# take, then the seven damped lengths of the seeds whose full step failed
_LADDER = ((1.0,), (1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128))
NEWTON_MAX_ITER = 40  # Newton steps a seed may take before it is rejected


def _newton_polish(evaluator, seeds, step, cell_diag, box):
    """Damped Newton on (Re chi, Im chi) from every seed at once.

    The seeds move in lockstep, one evaluate call per stage: the seeds'
    values; then in each iteration the four-chord central-difference
    Jacobian stencils around the searching seeds' current points, and one
    call per group of _LADDER, for the seeds that no longer length has moved
    yet. A seed takes the first length that reduces |chi|.

    Each seed follows the rules of a lone iteration: it converges when its
    full Newton step is shorter than STEP_TOL * ``cell_diag``, and then
    takes that step unevaluated and stops (its iteration count is the number
    of steps taken). The step solves the 2 x 2 Jacobian in closed form. A
    seed stops unconverged when the Jacobian's determinant is 0, when no
    length of _LADDER reduces |chi|, when its full step leaves ``box`` =
    (low, high), the chords with low <= (xi_p, xi_q) <= high componentwise
    (that step is never evaluated), or after NEWTON_MAX_ITER steps. The box
    is convex and holds every point a seed stands on, and rounding is
    monotone, so a damped step lies inside with the full one.

    Returns (xi, converged, iterations): final chords (n, 2), whether each
    seed converged (n,) and iteration counts (n,).
    """
    xi = np.array(seeds, dtype=float).reshape(-1, 2)
    value = _chi(evaluator, xi)
    converged = np.zeros(len(xi), dtype=bool)
    iterations = np.full(len(xi), NEWTON_MAX_ITER)
    active = np.ones(len(xi), dtype=bool)
    for it in range(1, NEWTON_MAX_ITER + 1):
        searching = np.flatnonzero(active)
        if searching.size == 0:
            break
        # the Jacobian [[a, b], [c, d]] of (Re chi, Im chi), its column k
        # f(xi + e_k) - f(xi - e_k) over 2 step; a zero determinant ends the search
        stencil = _chi(evaluator, xi[searching, None, :] + step * _JACOBIAN_OFFSETS)
        dz = stencil[:, 0::2] - stencil[:, 1::2]
        jac = np.concatenate([dz.real, dz.imag], axis=1).T / (2.0 * step)
        a, b, c, d = jac
        det = a * d - b * c
        solvable = det != 0.0
        trying = searching[solvable]
        (a, b, c, d), det, f = jac[:, solvable], det[solvable], value[trying]
        # the step -J^-1 (Re chi, Im chi), by the 2 x 2 inverse
        delta = np.stack([(b * f.imag - d * f.real) / det, (c * f.real - a * f.imag) / det],
                         axis=-1)
        short = np.hypot(delta[:, 0], delta[:, 1]) < STEP_TOL * cell_diag
        finished = trying[short]
        xi[finished] += delta[short]
        converged[finished] = True
        trying, delta = trying[~short], delta[~short]
        reach = xi[trying] + delta
        inside = np.all((reach >= box[0]) & (reach <= box[1]), axis=1)
        trying, delta = trying[inside], delta[inside]
        # a seed stays active only if it moves; the rest converged, were
        # singular, left the box or failed to reduce |chi|
        moved = np.zeros(len(xi), dtype=bool)
        for lams in _LADDER:
            if trying.size == 0:
                break
            # (seeds, lengths, 2)
            cand = xi[trying, None, :] + np.array(lams)[:, None] * delta[:, None, :]
            z = _chi(evaluator, cand)
            better = np.abs(z) < np.abs(value[trying, None])
            hit = better.any(axis=1)
            first = np.argmax(better[hit], axis=1)  # the longest step that is better
            taken = trying[hit]
            xi[taken], value[taken] = cand[hit, first], z[hit, first]
            moved[taken] = True
            trying, delta = trying[~hit], delta[~hit]
        iterations[active & ~moved] = it
        active = moved
    return xi, converged, iterations


def _merged(xi, tol):
    """The indices of the roots of ``xi`` (m, 2) that the merge keeps: each
    root in seed order, unless it lies within ``tol`` of a root kept before it."""
    kept = {}
    for k, (p, q) in enumerate(xi.tolist()):
        if all(math.hypot(p - kp, q - kq) >= tol for kp, kq in kept.values()):
            kept[k] = p, q
    return np.fromiter(kept, dtype=int, count=len(kept))


def _radius_order(xi, tol):
    """Order of the roots ``xi`` (m, 2) by distance from the origin.

    Radii within ``tol`` of their neighbour's in that order are a tie, broken
    by xi_q, then xi_p: the two roots of a +-xi pair have radii equal up to
    round-off, and the pair on the xi_q axis has xi_p equal up to round-off.
    """
    radius = np.hypot(xi[:, 0], xi[:, 1])
    by_radius = np.argsort(radius)
    tie = np.empty(len(xi), dtype=int)
    tie[by_radius] = np.cumsum(np.diff(radius[by_radius], prepend=-np.inf) >= tol)
    return np.lexsort((xi[:, 0], xi[:, 1], tie))


def _sign_change_cells(comp: np.ndarray) -> np.ndarray:
    """Cells [i, i+1] x [j, j+1] whose corners satisfy min <= 0 <= max, not all 0."""
    corners = np.stack([comp[:-1, :-1], comp[1:, :-1], comp[:-1, 1:], comp[1:, 1:]])
    return ((corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
            & corners.any(axis=0))


def _seed_chords(grid: ChordFieldGrid) -> np.ndarray:
    """Centers (n, 2) of the seed cells of ``find_blind_spots``, row-major."""
    scale = float(np.max(np.abs(grid.values)))
    re = _floored(grid.values.real, scale)
    im = _floored(grid.values.imag, scale)
    if not (np.any(re) and np.any(im)):
        # a vanishing component turns isolated zeros into whole nodal lines
        raise ValueError(
            "a field component is identically zero, every sample below the "
            "noise floor; blind spots are not isolated points (trace "
            "nodal_contours instead)")
    xp, xq = grid.xi_p_axis, grid.xi_q_axis
    cell_i, cell_j = np.nonzero(_sign_change_cells(re) & _sign_change_cells(im))
    return np.stack([0.5 * (xp[cell_i] + xp[cell_i + 1]),
                     0.5 * (xq[cell_j] + xq[cell_j + 1])], axis=-1)


def find_blind_spots(evaluator, grid: ChordFieldGrid) -> BlindSpotSearch:
    """Locate common zeros of Re chi and Im chi inside the scanned region.

    A seed cell is one on which each component changes sign or vanishes:
    after samples below the noise floor (``NOISE_RATIO`` times the field
    scale) are set to zero, the cell's four corner values of Re chi and of
    Im chi each satisfy min <= 0 <= max without being all zero. A component
    that vanishes on a cell edge has a zero in that cell, so the cells on
    both sides of a nodal row count. The seed cells' centers, in row-major
    order, start a lockstep damped Newton iteration on the evaluator
    (``_newton_polish``): one ``evaluate`` call for the seeds' values and
    at most three per Newton step whatever the number of seeds; one more
    call reads the spots' values. A seed converges when its Newton step is
    shorter than ``STEP_TOL`` cell diagonals; a seed that runs down the
    decaying tail keeps taking steps of a fixed fraction of the tail's width
    and does not.
    The iteration is confined to the scanned region widened by one region
    width on every side: a seed whose full Newton step would leave that box
    stops unevaluated and is rejected, so a near-singular Jacobian cannot
    fling one chord far outside the state and fail the whole batch. A
    converged root within ``STEP_TOL`` cell diagonals (the step rule's
    resolution) of a root kept before it in seed order is merged into it
    (``_merged``), so no two spots lie that close; distinct zeros may lie
    closer than a cell. Roots outside the scanned region but inside the box
    are kept. Spots are returned sorted by distance from the origin; radii
    within that same tolerance are a tie, ordered by xi_q, then xi_p
    (``_radius_order``), so the two spots of a +-xi pair, whose radii differ
    in the last bits, keep one order whatever the round-off.
    """
    seeds = _seed_chords(grid)
    if len(seeds) == 0:
        return BlindSpotSearch(spots=(), n_seeds=0)

    xp, xq = grid.xi_p_axis, grid.xi_q_axis
    width = max(xp[-1] - xp[0], xq[-1] - xq[0])
    step = 1e-6 * width
    cell_diag = math.hypot(xp[1] - xp[0], xq[1] - xq[0])
    box = (np.array([xp[0], xq[0]]) - width, np.array([xp[-1], xq[-1]]) + width)
    xi, converged, iterations = _newton_polish(evaluator, seeds, step, cell_diag, box)
    kept = np.flatnonzero(converged)[_merged(xi[converged], STEP_TOL * cell_diag)]
    values = _chi(evaluator, xi[kept])
    order = _radius_order(xi[kept], STEP_TOL * cell_diag)
    found = tuple(BlindSpot(chord=Chord(float(xi[k, 0]), float(xi[k, 1])),
                            value=complex(v), iterations=int(iterations[k]))
                  for k, v in zip(kept[order], values[order]))
    return BlindSpotSearch(spots=found, n_seeds=len(seeds))


def first_zero_along(evaluator, direction, s_max: float) -> float:
    """First zero of the chord function along the ray xi = s * direction.

    The RAY_SAMPLES samples s_max / RAY_SAMPLES, ..., s_max are evaluated in one
    ``evaluate`` call; the first sign change of Re chi between neighbours is
    refined by brentq through one-chord calls of the evaluator.

    Valid along directions where the field is real (for example the mean
    direction of the state, where chi is the characteristic function of a
    marginal distribution); a residual |chi| above RAY_TOL at the root is
    rejected.
    """
    u = np.asarray(direction, dtype=float)
    u = u / np.hypot(u[0], u[1])

    def along(s):
        return complex(evaluator((s * u[0], s * u[1])))

    ss = np.linspace(0.0, s_max, RAY_SAMPLES + 1)[1:]
    positive = _chi(evaluator, ss[:, None] * u).real > 0
    crossings = np.flatnonzero(positive[1:] != positive[:-1])
    if crossings.size == 0:
        raise NumericalError(f"no zero on the ray within s <= {s_max}")
    k = crossings[0]
    # imported here: scipy.optimize would add ~0.26 s to every chordscan process
    from scipy.optimize import brentq
    root = brentq(lambda x: along(x).real, ss[k], ss[k + 1], xtol=1e-13)
    residual = abs(along(root))
    if residual > RAY_TOL:
        raise NumericalError(
            f"real part vanishes at s={root:.6f} but |chi|={residual:.2e}: "
            "the ray does not carry a real field")
    return float(root)
