"""Nodal-line tracing and blind-spot (isolated zero) location."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import roots_laguerre

from chordscan import (CurveSpec, ExactEvaluator, NumericalError, axis,
                       find_blind_spots, first_zero_along, nodal_contours,
                       scan_grid)
from chordscan.blindspots import (_JACOBIAN_OFFSETS, _LADDER, NEWTON_MAX_ITER, NOISE_RATIO,
                                  RESOLVED_RATIO, STEP_TOL, _bilinear_zeros, _merged,
                                  _newton_polish, _radius_order, _seed_chords,
                                  resolution_ratio)
from chordscan.evaluators import make_evaluator
from chordscan.exact import nodal_radii
from chordscan.gridscan import ChordFieldGrid
from chordscan.semiclassical import _tangencies
from chordscan.smallchord import closest_blind_spot_estimate, moments_from_chi, state_moments

# First zero of the vertical cut of the sheared reference state: the cut is
# the momentum-marginal characteristic function, left invariant by the shear,
# so it vanishes first at sqrt(2 hbar z_1) with z_1 the smallest Laguerre root.
FIRST_ZERO = 0.22959107984333416

# the (low, high) box of a Newton polish that may go anywhere
UNBOUNDED = (-np.inf, np.inf)


def _synthetic(real_field, xp):
    values = real_field + 1j * np.ones_like(real_field)
    return ChordFieldGrid(xp, xp, values.astype(complex),
                          np.zeros(values.shape, np.uint8), 0.1)


class TestNodalContours:
    def test_straight_line_field(self):
        """A linear field has one straight open nodal line, interpolated
        exactly by the edge crossings."""
        xp = axis(-1.0, 1.0, 11)
        grid = _synthetic(np.broadcast_to(xp[:, None] - 0.13, (11, 11)).copy(), xp)
        ns = nodal_contours(grid, "real")
        assert len(ns.curves) == 1
        curve = ns.curves[0]
        assert not curve.closed
        assert len(curve.points) == 11
        np.testing.assert_allclose(curve.points[:, 0], 0.13, atol=1e-12)

    def test_saddle_field_splits_cleanly(self):
        """xi_p * xi_q vanishes on a cross; the tracer must resolve the
        saddles into two disjoint open curves, never an X crossing."""
        xp = axis(-1.0, 1.0, 11)
        grid = _synthetic(xp[:, None] * xp[None, :], xp)
        ns = nodal_contours(grid, "real")
        assert len(ns.curves) == 2
        for curve in ns.curves:
            assert not curve.closed
            assert len(curve.points) == 10

    def test_fock_rings(self):
        """The real field of the n = 2 state vanishes on 2 circles whose
        radii are set by the Laguerre roots."""
        state = CurveSpec(n=2, hbar=0.1)
        grid = scan_grid(ExactEvaluator(state), axis(-1.2, 1.2, 161),
                         axis(-1.2, 1.2, 161))
        ns = nodal_contours(grid, "real")
        assert not ns.degenerate
        assert len(ns.curves) == 2
        want = np.sqrt(2 * 0.1 * np.sort(roots_laguerre(2)[0]))
        cell = 2.4 / 160
        got = sorted(float(np.mean(np.hypot(c.points[:, 0], c.points[:, 1])))
                     for c in ns.curves)
        for r_got, r_want in zip(got, want):
            assert abs(r_got - r_want) < cell
        for curve in ns.curves:
            assert curve.closed
            radii = np.hypot(curve.points[:, 0], curve.points[:, 1])
            assert np.ptp(radii) < 3 * cell  # genuinely circular

    @pytest.mark.parametrize("level,degenerate", [(1e-10, False), (1e-13, True)])
    def test_degenerate_is_below_the_noise_floor(self, level, degenerate):
        """A component is degenerate exactly when no sample lies above the
        noise floor, NOISE_RATIO times the field's scale: an imaginary part
        at 1e-10 of the scale is traced and seeds a search, one at 1e-13 is
        refused by both."""
        xp = axis(-1.0, 1.0, 11)
        pp, qq = np.meshgrid(xp, xp, indexing="ij")
        values = (pp - 0.13) + 1j * level * (qq - 0.21)
        grid = ChordFieldGrid(xp, xp, values, np.zeros(values.shape, np.uint8), 0.1)
        assert nodal_contours(grid, "imag").degenerate == degenerate
        assert not nodal_contours(grid, "real").degenerate
        if degenerate:
            with pytest.raises(ValueError, match="noise floor"):
                _seed_chords(grid)
        else:
            assert len(_seed_chords(grid)) > 0

    def test_symmetric_component_flagged_degenerate(self, ring):
        """The unsheared state is real: its imaginary part carries no nodal
        structure, only the symmetry."""
        grid = scan_grid(ExactEvaluator(ring), axis(-0.8, 0.8, 41),
                         axis(-0.8, 0.8, 41))
        ns = nodal_contours(grid, "imag")
        assert ns.degenerate
        assert ns.curves == ()


def _edge_of(point, xp, xq):
    """The grid edge a nodal point lies on: ("p", i, j) for the xi_p-edge
    (i, j)-(i+1, j), ("q", i, j) for the xi_q-edge (i, j)-(i, j+1)."""
    x, y = point
    on_p, on_q = np.flatnonzero(xq == y), np.flatnonzero(xp == x)
    assert on_p.size + on_q.size == 1, f"{point} is not inside one grid edge"
    if on_p.size:
        return ("p", int(np.searchsorted(xp, x)) - 1, int(on_p[0]))
    return ("q", int(on_q[0]), int(np.searchsorted(xq, y)) - 1)


def _cells_of(edge):
    kind, i, j = edge
    return {(i, j - 1), (i, j)} if kind == "p" else {(i - 1, j), (i, j)}


def _check_marching_squares(grid, component):
    """Check a traced nodal set against the grid it came from, whatever the
    tracer's internals. Returns the number of saddle cells split each way."""
    comp = grid.component(component)
    xp, xq = grid.xi_p_axis, grid.xi_q_axis
    assert np.all(np.abs(comp) >= NOISE_RATIO * np.max(np.abs(grid.values)))
    pos = comp > 0

    def interpolated(edge):
        kind, i, j = edge
        if kind == "p":
            va, vb = comp[i, j], comp[i + 1, j]
            return (xp[i] + va / (va - vb) * (xp[i + 1] - xp[i]), xq[j])
        va, vb = comp[i, j], comp[i, j + 1]
        return (xp[i], xq[j] + va / (va - vb) * (xq[j + 1] - xq[j]))

    crossed = ({("p", int(i), int(j)) for i, j in zip(*np.nonzero(pos[:-1] != pos[1:]))}
               | {("q", int(i), int(j)) for i, j in zip(*np.nonzero(pos[:, :-1] != pos[:, 1:]))})
    traced, joined = [], {}
    for curve in nodal_contours(grid, component).curves:
        edges = [_edge_of(pt, xp, xq) for pt in curve.points]
        for pt, edge in zip(curve.points, edges):
            assert tuple(pt) == interpolated(edge)  # bit for bit
        if curve.closed:
            np.testing.assert_array_equal(curve.points[-1], curve.points[0])
        traced.extend(edges[:-1] if curve.closed else edges)
        for a, b in zip(edges, edges[1:]):
            (cell,) = _cells_of(a) & _cells_of(b)  # consecutive points share a cell
            joined.setdefault(cell, set()).add(frozenset((a, b)))
    # every crossed edge gives exactly one curve point
    assert len(traced) == len(set(traced)) and set(traced) == crossed

    want, split = {}, {True: 0, False: 0}
    for i in range(len(xp) - 1):
        for j in range(len(xq) - 1):
            b, r, t, l = ("p", i, j), ("q", i + 1, j), ("p", i, j + 1), ("q", i, j)
            hit = [e for e in (b, r, t, l) if e in crossed]
            if len(hit) == 2:
                want[(i, j)] = {frozenset(hit)}
            elif len(hit) == 4:
                # the cell-center sign decides which corners the lines isolate
                center = 0.25 * (comp[i, j] + comp[i + 1, j] + comp[i + 1, j + 1] + comp[i, j + 1])
                same = bool((center > 0) == pos[i, j])
                split[same] += 1
                want[(i, j)] = ({frozenset((b, r)), frozenset((t, l))} if same
                                else {frozenset((b, l)), frozenset((r, t))})
            else:
                assert not hit
    assert joined == want
    return split


@pytest.fixture(scope="module")
def ring_field():
    """The ring-field recipe's grid: 161 x 161 over [-1.75, 1.75]^2."""
    ax = axis(-1.75, 1.75, 161)
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.0)
    return scan_grid(ExactEvaluator(state), ax, ax)


class TestMarchingSquaresProperties:
    def test_random_fields(self):
        """Seeded random fields of random shape and spacing, both components;
        at this density many cells are saddles, split both ways."""
        rng = np.random.default_rng(20261018)
        splits = {True: 0, False: 0}
        for _ in range(12):
            nx, ny = rng.integers(2, 30, 2)
            values = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
            grid = ChordFieldGrid(np.sort(rng.uniform(-1, 1, nx)),
                                  np.sort(rng.uniform(-1, 1, ny)), values,
                                  np.zeros(values.shape, np.uint8), 0.1)
            for component in ("real", "imag"):
                for same, n in _check_marching_squares(grid, component).items():
                    splits[same] += n
        assert splits[True] > 10 and splits[False] > 10

    def test_saddle_field(self):
        xp = axis(-1.0, 1.0, 10)  # even: no sample sits on the nodal cross
        split = _check_marching_squares(_synthetic(xp[:, None] * xp[None, :], xp), "real")
        assert split == {True: 0, False: 1}

    def test_ring_field(self, ring_field):
        assert _check_marching_squares(ring_field, "real") == {True: 0, False: 0}

    def test_ring_field_nodal_set(self, ring_field):
        """The benchmark's ring step: five closed curves, longest first."""
        ns = nodal_contours(ring_field, "real")
        assert [(len(c), c.closed) for c in ns.curves] == [
            (581, True), (437, True), (309, True), (197, True), (85, True)]


def _cell_diagonal(grid):
    return math.hypot(grid.xi_p_axis[1] - grid.xi_p_axis[0],
                      grid.xi_q_axis[1] - grid.xi_q_axis[0])


@pytest.fixture(scope="module")
def sheared_scan():
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
    ev = ExactEvaluator(state)
    grid = scan_grid(ev, axis(-0.45, 0.45, 41), axis(-0.45, 0.45, 41))
    return ev, grid


@pytest.fixture(scope="module")
def search(sheared_scan):
    ev, grid = sheared_scan
    return find_blind_spots(ev, grid)


class TestBlindSpots:

    def test_all_spots_are_certified_zeros(self, search):
        assert len(search.spots) == 10
        # the grid resolves the state, so the seeds are the crossings of the
        # cells' bilinear models: one per zero, and the two zeros on the
        # xi_p = 0 row, where Im chi vanishes identically, lie on an edge
        # and seed both cells beside it
        assert not search.under_resolved
        assert search.n_seeds == 12
        # Newton's last step is below 1e-6 cell diagonals and is taken, so
        # the spot is a zero to round-off
        for spot in search.spots:
            assert abs(spot.value) < 1e-12

    def test_sorted_by_radius_and_deduplicated(self, sheared_scan, search):
        """Ascending in radius; radii within the merge tolerance are a tie,
        ordered by xi_q, then xi_p."""
        tol = STEP_TOL * _cell_diagonal(sheared_scan[1])
        for a, b in zip(search.spots, search.spots[1:]):
            if abs(b.radius - a.radius) < tol:
                assert (a.chord.xi_q, a.chord.xi_p) <= (b.chord.xi_q, b.chord.xi_p)
            else:
                assert a.radius < b.radius
        for i, a in enumerate(search.spots):
            for b in search.spots[i + 1:]:
                assert math.hypot(a.chord.xi_p - b.chord.xi_p,
                                  a.chord.xi_q - b.chord.xi_q) > 0.02

    @pytest.mark.parametrize("ulps", [-1, 1])
    def test_order_does_not_follow_the_round_off_of_radii(self, sheared_scan, search, ulps):
        """The two spots of a +-xi pair have radii equal up to round-off:
        moving one member of each pair by an ulp in radius keeps the order."""
        tol = STEP_TOL * _cell_diagonal(sheared_scan[1])
        xi = np.array([[s.chord.xi_p, s.chord.xi_q] for s in search.spots])
        assert _radius_order(xi, tol).tolist() == list(range(len(xi)))
        radius = np.hypot(xi[:, 0], xi[:, 1])
        member = xi[:, 1] > 0.0  # one of each pair, as no spot lies on xi_q = 0
        assert 2 * np.count_nonzero(member) == len(xi)
        moved = xi.copy()
        moved[member] *= (np.nextafter(radius, ulps * np.inf) / radius)[member, None]
        assert np.all(np.hypot(moved[:, 0], moved[:, 1])[member] != radius[member])
        assert _radius_order(moved, tol).tolist() == list(range(len(xi)))

    def test_inversion_symmetry(self, search):
        """chi(-xi) = conj chi(xi): zeros come in +/- pairs."""
        for spot in search.spots:
            partner = min(math.hypot(spot.chord.xi_p + other.chord.xi_p,
                                     spot.chord.xi_q + other.chord.xi_q)
                          for other in search.spots)
            assert partner < 1e-6

    def test_each_spot_reads_the_same_bits_beside_its_stencil(self, sheared_scan, search):
        """An exact value the closed form accepts depends on its chord alone:
        each root reads the same bits alone, beside its +-1e-6 Jacobian
        stencil and beside the other roots."""
        ev, _ = sheared_scan
        roots = np.array([[s.chord.xi_p, s.chord.xi_q] for s in search.spots])
        together, _ = ev.evaluate(roots[:, 0], roots[:, 1])
        offsets = np.array([[0.0, 0.0], [1e-6, 0.0], [-1e-6, 0.0], [0.0, 1e-6], [0.0, -1e-6]])
        for root, beside_roots in zip(roots, together):
            alone, _ = ev.evaluate(root[:1], root[1:])
            stencil = root + offsets
            beside_stencil, _ = ev.evaluate(stencil[:, 0], stencil[:, 1])
            assert beside_stencil[0] == alone[0] == beside_roots

    def test_nearest_pair_location(self, search):
        nearest = search.nearest()
        assert nearest.radius == pytest.approx(0.20820598674613511, rel=1e-6)
        assert abs(nearest.chord.xi_p) == pytest.approx(0.162487403, abs=1e-6)
        assert abs(nearest.chord.xi_q) == pytest.approx(0.130182858, abs=1e-6)

    def test_axis_pair_matches_the_ray_zero(self, search):
        on_axis = [s for s in search.spots if abs(s.chord.xi_p) < 1e-6]
        assert len(on_axis) == 2
        for spot in on_axis:
            assert abs(spot.chord.xi_q) == pytest.approx(FIRST_ZERO, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_off_signs_do_not_matter(self, sheared_scan, search, seed):
        """Im chi vanishes on the xi_p = 0 row; the scan returns it as
        round-off of either sign. Redrawing those signs must change neither
        the seed cells, nor the spots, nor the traced Im nodal set."""
        ev, grid = sheared_scan
        row = int(np.flatnonzero(grid.xi_p_axis == 0.0)[0])
        values = grid.values.copy()
        scale = float(np.max(np.abs(values)))
        assert np.all(np.abs(values[row].imag) < NOISE_RATIO * scale)
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], values.shape[1])
        values[row] = values[row].real + 1j * signs * 1e-17
        flipped = ChordFieldGrid(grid.xi_p_axis, grid.xi_q_axis, values,
                                 grid.flags, grid.hbar)

        again = find_blind_spots(ev, flipped)
        assert again.n_seeds == search.n_seeds
        assert [s.chord for s in again.spots] == [s.chord for s in search.spots]

        want = nodal_contours(grid, "imag")
        got = nodal_contours(flipped, "imag")
        assert len(got.curves) == len(want.curves)
        for a, b in zip(got.curves, want.curves):
            assert a.closed == b.closed
            np.testing.assert_array_equal(a.points, b.points)

    @pytest.mark.parametrize("resolution", [37, 51])
    def test_decayed_tail_is_not_a_spot(self, sheared, search, resolution):
        """From these grids Newton runs two seeds into the Gaussian tail,
        past (+-3.11, +-3.30) for 37^2 and (+-7.53, +-4.46) for 51^2, where
        |chi| is below 1e-8. Each step there stays a fixed fraction of the
        tail's width, so those seeds never converge; the genuine spots stay."""
        ev = ExactEvaluator(sheared)
        ax = axis(-0.45, 0.45, resolution)
        found = find_blind_spots(ev, scan_grid(ev, ax, ax))
        assert len(found.spots) == len(search.spots) == 10
        for got, want in zip(found.spots, search.spots):
            assert abs(got.radius - want.radius) < 1e-12

    def test_tail_seed_does_not_converge(self):
        """At t = 5, |chi| = 4.9e-10 at (0.033, 4.6745) on the decaying tail.
        Each Newton step from there is about 0.034 long and lowers |chi| by a
        factor of e, so the seed never converges, whatever |chi| reaches."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=5.0)
        ev = ExactEvaluator(state)
        seed = np.array([[0.033, 4.6745]])
        assert abs(ev(seed[0]).value) < 1e-9
        # the step, cell diagonal and box of a 121^2 search over +-2.5
        cell = 5.0 / 120
        box = (np.full(2, -7.5), np.full(2, 7.5))
        xi, converged, iters = _newton_polish(ev, seed, 5e-6, math.hypot(cell, cell), box)
        assert not converged[0]
        assert xi[0, 1] > 5.0  # it ran on down the tail

    @pytest.mark.parametrize("t,half,count", [(1.0, 1.7, 40), (5.0, 2.5, 52)],
                             ids=["t1", "t5"])
    def test_strongly_sheared_spots_pair_up(self, t, half, count):
        """chi(-xi) = conj chi(xi), so on a 121^2 grid, symmetric under
        xi -> -xi, every spot has its mirror image among the spots. At t = 5
        distinct zeros lie as close as 0.73 cell diagonals, so the search
        must merge only roots its step rule cannot tell apart. Newton also
        reaches 10 and 20 zeros outside the region, which are not spots."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
        ev = ExactEvaluator(state)
        ax = axis(-half, half, 121)
        found = find_blind_spots(ev, scan_grid(ev, ax, ax))
        spots = np.array([[s.chord.xi_p, s.chord.xi_q] for s in found.spots])
        for row in spots:
            assert np.min(np.hypot(*(spots + row).T)) < 1e-6
        assert max(abs(s.value) for s in found.spots) < 1e-12
        assert len(found.spots) == count

    def test_spots_outside_the_region_are_not_listed(self, monkeypatch):
        """Seeded from cell centers, the n = 3 report's Newton reaches four
        genuine zeros beyond its +-0.6 region; the crossings of the cells'
        bilinear models start inside their cells and reach none. Under
        either rule the spots are the 8 zeros inside the region."""
        state, half = REPORT_STATES["n3"]
        ev = ExactEvaluator(state)
        ax = axis(-half, half, 41)
        grid = scan_grid(ev, ax, ax)
        crossing = find_blind_spots(ev, grid)
        monkeypatch.setattr("chordscan.blindspots.RESOLVED_RATIO", 0.0)
        centers = find_blind_spots(ev, grid)
        assert (crossing.n_seeds, len(crossing.spots)) == (14, 8)
        assert (centers.n_seeds, len(centers.spots)) == (48, 8)
        for found in (crossing, centers):
            assert max(max(abs(s.chord.xi_p), abs(s.chord.xi_q)) for s in found.spots) <= half
        # the polish from the centers, in find_blind_spots's box, converges
        # onto 12 zeros, 4 of them outside
        box = (np.full(2, -3 * half), np.full(2, 3 * half))
        xi, converged, _ = _newton_polish(ev, _seed_chords(grid), 2e-6 * half,
                                          _cell_diagonal(grid), box)
        roots = xi[converged][_merged(xi[converged], STEP_TOL * _cell_diagonal(grid))]
        assert len(roots) == 12
        assert np.count_nonzero(np.all(np.abs(roots) <= half, axis=1)) == 8
        assert max(abs(ev(root).value) for root in roots) < 1e-12

    def test_symmetric_field_is_refused(self, ring):
        ev = ExactEvaluator(ring)
        grid = scan_grid(ev, axis(-0.45, 0.45, 21), axis(-0.45, 0.45, 21))
        with pytest.raises(ValueError, match="identically zero"):
            find_blind_spots(ev, grid)

    def test_empty_search_has_no_nearest(self, sheared):
        ev = ExactEvaluator(sheared)
        # a region strictly inside the first zero contains no spots
        grid = scan_grid(ev, axis(-0.1, 0.1, 11), axis(-0.1, 0.1, 11))
        search = find_blind_spots(ev, grid)
        assert search.spots == ()
        with pytest.raises(ValueError):
            search.nearest()


# CI's report grids: (t, n, hbar, half width, resolution), on alpha = (0, 1, 1, 1)
CI_REPORTS = {
    "recipe": (0.1, 5, 0.1, 0.45, 41),
    "n3": (0.2, 3, 0.1, 0.6, 41),
    "runaway": (0.001, 5, 0.1, 1.7, 241),
    "t1-241": (1.0, 5, 0.1, 1.7, 241),
    "n80": (0.1, 80, 0.006832298, 0.029, 41),
    "t1-121": (1.0, 5, 0.1, 1.7, 121),
    "t5-121": (5.0, 5, 0.1, 2.5, 121),
    "t5-961": (5.0, 5, 0.1, 2.5, 961),
}


def _ci_report(name):
    """(evaluator, grid) of a CI report."""
    t, n, hbar, half, resolution = CI_REPORTS[name]
    ev = ExactEvaluator(CurveSpec(n=n, hbar=hbar, alpha=(0.0, 1.0, 1.0, 1.0), t=t))
    ax = axis(-half, half, resolution)
    return ev, scan_grid(ev, ax, ax)


class TestResolutionRatio:
    @pytest.mark.parametrize("alpha", [(0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0, 0.0)],
                             ids=["cubic", "alpha3=0"])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 5.0])
    def test_q_extent_is_the_dense_maximum(self, t, alpha):
        """max|q|, the largest |action| among the tangencies of the chord
        (1, 0), where the action is -q, matches 10^6 + 1 samples of the
        curve; their maximum falls short of the true one by at most
        (pi 1e-6)^2 |q''| / 2, below 1e-11 of max|q| here."""
        curve = CurveSpec(n=5, hbar=0.1, alpha=alpha, t=t)
        dense = float(np.max(np.abs(curve.point(np.linspace(0.0, 2 * np.pi, 10 ** 6 + 1))[1])))
        reach = np.max(np.abs(_tangencies(curve, np.ones(1), np.zeros(1)).action))
        assert reach == pytest.approx(dense, rel=1e-9, abs=0)
        assert reach >= dense * (1.0 - 1e-15)

    @pytest.mark.parametrize("name, ratio", [
        ("recipe", 0.086), ("n3", 0.118), ("runaway", 0.047), ("t1-241", 0.291),
        ("n80", 0.081), ("t1-121", 0.583), ("t5-121", 4.244), ("t5-961", 0.531)])
    def test_ratios_of_the_report_grids(self, name, ratio):
        """Cell over pi hbar / max|q| along xi_p; along xi_q, cell over
        pi hbar / r, which is smaller as max|q| >= r."""
        t, n, hbar, half, resolution = CI_REPORTS[name]
        state = CurveSpec(n=n, hbar=hbar, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
        ax = axis(-half, half, resolution)
        along_p, along_q = resolution_ratio(state, ax, ax)
        assert along_p == pytest.approx(ratio, abs=5e-4)
        cell = 2 * half / (resolution - 1)
        assert along_q == pytest.approx(cell * state.radius / (math.pi * hbar), rel=1e-12)
        assert along_q <= along_p


class TestCrossingSeeds:
    def test_bilinear_zeros(self):
        """Corner values of bilinear pairs with a common zero at a known
        (u0, v0): one of the two roots is it. Equal models are degenerate,
        and a component that vanishes on the edge u = 0 puts its root there
        exactly."""
        rng = np.random.default_rng(3)
        u0, v0 = rng.uniform(0.0, 1.0, (2, 200))
        corners = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        du, dv = corners[:, :1] - u0, corners[:, 1:] - v0
        f = rng.normal(size=(3, 1, 200))
        g = rng.normal(size=(3, 1, 200))
        fc, gc = (c[0] * du + c[1] * dv + c[2] * du * dv for c in (f, g))
        u, v, degenerate = _bilinear_zeros(fc, gc)
        miss = np.min(np.hypot(u - u0[:, None], v - v0[:, None]), axis=1)
        assert np.max(miss) < 1e-9 and not degenerate.any()
        _, _, degenerate = _bilinear_zeros(fc, 2.0 * fc)
        assert degenerate.all()
        # f = v - 0.4, and g = u (v - 0.1) vanishes on u = 0
        u, v, _ = _bilinear_zeros(np.array([[-0.4], [-0.4], [0.6], [0.6]]),
                                  np.array([[0.0], [-0.1], [0.0], [0.9]]))
        on_edge = u[0] == 0.0
        assert np.count_nonzero(on_edge) == 1
        assert v[0][on_edge][0] == pytest.approx(0.4, abs=1e-15)

    def test_a_degenerate_cell_keeps_its_center(self):
        """chi = (1 + i)(xi_p - 0.05): Re chi and Im chi are one model, so
        every seed cell is degenerate and seeds at its center."""
        xp = axis(-0.5, 0.5, 11)
        values = (1.0 + 1.0j) * (xp[:, None] - 0.05 + 0.0 * xp)
        grid = ChordFieldGrid(xp, xp, values, np.zeros(values.shape, np.uint8), 0.1)
        np.testing.assert_array_equal(_seed_chords(grid, crossing=True), _seed_chords(grid))

    @pytest.mark.parametrize("name, seeds, count", [
        ("recipe", (12, 54), 10), ("n3", (14, 48), 8), ("runaway", (40, 1380), 30),
        ("t1-241", (62, 280), 40), ("n80", (10, 64), 8)])
    def test_crossings_find_the_centers_spots(self, name, seeds, count, monkeypatch):
        """On every report grid that resolves its state, the crossing seeds
        find the in-region spots that the cell centers find: the same count,
        radii within 1e-12, and each within 1e-12. The runaway state's zeros
        (t = 0.001) sit where the nodal lines of Re chi and Im chi, both near
        the ring's nodal circles, cross at a shallow angle: the Jacobian's
        smaller singular value is down to 4.4e-4, so the round-off of |chi|,
        1e-15, places them only to 2.5e-12 along the circle."""
        ev, grid = _ci_report(name)
        crossing = find_blind_spots(ev, grid)
        assert not crossing.under_resolved
        monkeypatch.setattr("chordscan.blindspots.RESOLVED_RATIO", 0.0)
        centers = find_blind_spots(ev, grid)
        assert (crossing.n_seeds, centers.n_seeds) == seeds
        assert len(crossing.spots) == len(centers.spots) == count
        bound = 3e-12 if name == "runaway" else 1e-12
        for got, want in zip(crossing.spots, centers.spots):
            assert abs(got.radius - want.radius) < 1e-12
            assert math.hypot(got.chord.xi_p - want.chord.xi_p,
                              got.chord.xi_q - want.chord.xi_q) < bound
            assert abs(got.value) < 1e-12

    @pytest.mark.parametrize("name", ["t1-121", "t5-121"])
    def test_under_resolved_grids_seed_the_centers(self, name):
        """CI's 121^2 reports at t = 1 and t = 5 do not resolve their states:
        they seed every seed cell's center, and their spots are, bit for
        bit, the in-region roots of the search that merged every converged
        root, inside the region or not."""
        ev, grid = _ci_report(name)
        found = find_blind_spots(ev, grid)
        assert found.under_resolved
        seeds = _seed_chords(grid)
        assert found.n_seeds == len(seeds)
        xp = grid.xi_p_axis
        width, tol = xp[-1] - xp[0], STEP_TOL * _cell_diagonal(grid)
        box = (np.full(2, xp[0] - width), np.full(2, xp[-1] + width))
        xi, converged, _ = _newton_polish(ev, seeds, 1e-6 * width, _cell_diagonal(grid), box)
        roots = xi[converged][_merged(xi[converged], tol)]
        roots = roots[_radius_order(roots, tol)]
        inside = roots[np.all(np.abs(roots) <= xp[-1], axis=1)]
        got = np.array([[s.chord.xi_p, s.chord.xi_q] for s in found.spots])
        assert got.tobytes() == inside.tobytes()


class TestFirstZeroAlong:
    def test_vertical_cut_zero(self, sheared):
        got = first_zero_along(ExactEvaluator(sheared), (0.0, 1.0), s_max=0.5)
        assert got == pytest.approx(FIRST_ZERO, abs=1e-10)
        # dual route: the frozen value is sqrt(2 hbar z_1)
        z1 = float(np.sort(roots_laguerre(5)[0])[0])
        assert got == pytest.approx(math.sqrt(2 * 0.1 * z1), abs=1e-10)

    def test_direction_normalization_is_internal(self, sheared):
        a = first_zero_along(ExactEvaluator(sheared), (0.0, 1.0), s_max=0.5)
        b = first_zero_along(ExactEvaluator(sheared), (0.0, 7.5), s_max=0.5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_ray_without_zero(self, sheared):
        with pytest.raises(NumericalError, match="no zero"):
            first_zero_along(ExactEvaluator(sheared), (0.0, 1.0), s_max=0.1)

    def test_complex_ray_is_rejected(self, sheared):
        """Off the mean direction the field is genuinely complex, so a real
        crossing does not make the chord function vanish."""
        with pytest.raises(NumericalError, match="does not carry a real field"):
            first_zero_along(ExactEvaluator(sheared), (1.0, 0.0), s_max=2.0)


class TestMeanRayZero:
    """<p> = 0 and H(p) conserves p, so the mean lies on the xi_q axis, where
    chi is the momentum marginal's characteristic function for every t: the
    ray search along the mean lands on the ring's first nodal radius
    r0 = sqrt(2 hbar x1), and the ellipse estimate there is r0 over
    sqrt((n + 1/2) x1)."""

    @pytest.mark.parametrize("alpha", [(0.0, 1.0, 1.0, 1.0), (0.0, -1.0, 2.0, 0.5)])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("n, hbar", [(3, 0.1), (5, 0.1), (20, 1.1 / 41), (80, 1.1 / 161)])
    def test_mean_ray_zero_is_the_first_nodal_radius(self, n, hbar, t, alpha):
        state = CurveSpec(n=n, hbar=hbar, alpha=alpha, t=t)
        r0 = float(nodal_radii(n, hbar)[0])
        moments = state_moments(state)
        got = first_zero_along(make_evaluator("exact", state), moments.mean, s_max=1.5 * r0)
        assert abs(got - r0) <= 1e-13
        # the smallest zero of L_n from scipy's Gauss-Laguerre nodes, within
        # 2e-16 relative where numpy's lagroots is off by 5.6e-13 at n = 80
        x1 = float(roots_laguerre(n)[0][0])
        ratio = closest_blind_spot_estimate(moments, hbar).radius / r0
        assert abs(ratio - 1.0 / math.sqrt((n + 0.5) * x1)) <= 1e-14


class CountingEvaluator:
    """Records the size of every ``evaluate`` batch and counts one-chord calls."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.state = evaluator.state
        self.batches = []
        self.single = 0

    def evaluate(self, xi_p, xi_q):
        self.batches.append(np.size(xi_p))
        return self.evaluator.evaluate(xi_p, xi_q)

    def __call__(self, xi):
        self.single += 1
        return self.evaluator(xi)


# the sheared report state on its recipe region, and the n = 3 variant
REPORT_STATES = {
    "sheared": (CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1), 0.45),
    "n3": (CurveSpec(n=3, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.2), 0.6),
}


def _report_seeds(ev, half, rng):
    """The report's seed-cell centers, each moved at random within its cell."""
    ax = axis(-half, half, 41)
    seeds = _seed_chords(scan_grid(ev, ax, ax))
    cell = ax[1] - ax[0]
    return seeds + rng.uniform(-0.5 * cell, 0.5 * cell, seeds.shape)


class TestBatchPaths:
    @pytest.mark.parametrize("max_iter", [40, 3])
    @pytest.mark.parametrize("name", sorted(REPORT_STATES))
    def test_lone_and_lockstep_polish_agree(self, name, max_iter, monkeypatch):
        """Polishing each seed alone and all seeds in lockstep gives the same
        iteration counts, the same rejects and the same roots."""
        monkeypatch.setattr("chordscan.blindspots.NEWTON_MAX_ITER", max_iter)
        state, half = REPORT_STATES[name]
        ev = ExactEvaluator(state)
        seeds = _report_seeds(ev, half, np.random.default_rng(11))
        # as find_blind_spots sets them for this region
        step, cell_diag = 2e-6 * half, math.hypot(2 * half / 40, 2 * half / 40)
        xi, converged, iters = _newton_polish(ev, seeds, step, cell_diag, UNBOUNDED)
        # the full budget converges every seed that stays near the state (a
        # seed may run down the tail instead); three steps are too few for most
        near = np.all(np.abs(xi) <= 2.0 * half, axis=1)
        assert np.all(converged[near]) == (max_iter == 40)
        for k, seed in enumerate(seeds):
            xi1, converged1, iters1 = _newton_polish(ev, seed[None, :], step, cell_diag,
                                                     UNBOUNDED)
            assert iters1[0] == iters[k]
            assert converged1[0] == converged[k]
            if converged[k]:
                assert np.max(np.abs(xi1[0] - xi[k])) < 1e-12

    def test_lone_and_lockstep_polish_agree_past_numpys_elision_size(self):
        """The t = 5 report's 121^2 grid over +-2.5 seeds 6 424 cells, so its
        lockstep batches pass 16 384 chords (256 KiB), where numpy reuses
        temporaries. Each seed must still read the bits it reads alone: the
        same iterations and the same final chord, bit for bit."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=5.0)
        ev = ExactEvaluator(state)
        ax = axis(-2.5, 2.5, 121)
        seeds = _seed_chords(scan_grid(ev, ax, ax))
        assert 4 * len(seeds) > 16384
        # as find_blind_spots sets them for this region
        cell = ax[1] - ax[0]
        step, cell_diag, box = 5e-6, math.hypot(cell, cell), (np.full(2, -7.5), np.full(2, 7.5))
        xi, converged, iters = _newton_polish(ev, seeds, step, cell_diag, box)
        sample = np.r_[0, np.random.default_rng(5).choice(np.arange(1, len(seeds)), 19,
                                                          replace=False)]
        assert converged[sample].any() and not converged[sample].all()
        for k in sample:
            xi1, converged1, iters1 = _newton_polish(ev, seeds[k:k + 1], step, cell_diag, box)
            assert (iters1[0], converged1[0]) == (iters[k], converged[k])
            assert xi1[0].tobytes() == xi[k].tobytes(), k

    def test_singular_jacobian_stops_only_its_seed(self):
        """chi = (xi_p + 1) + i xi_p xi_q does not vary with xi_q on xi_p = 0,
        so a seed there stops after one step; its neighbour still converges."""
        class Field:
            def evaluate(self, xi_p, xi_q):
                values = (xi_p + 1.0) + 1j * xi_p * xi_q
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        seeds = np.array([[0.0, 0.2], [0.5, 0.2]])
        xi, converged, iters = _newton_polish(Field(), seeds, 1e-6, 0.1, UNBOUNDED)
        assert iters[0] == 1 and not converged[0]
        np.testing.assert_array_equal(xi[0], seeds[0])
        assert converged[1]
        np.testing.assert_allclose(xi[1], (-1.0, 0.0), atol=1e-12)
        lone = _newton_polish(Field(), seeds[1:], 1e-6, 0.1, UNBOUNDED)
        assert lone[2][0] == iters[1]

    def test_stuck_seeds_stop_where_damping_fails(self):
        """chi = (1 + xi_p^2) + i xi_q has no zero: |chi| is least, 1, at the
        origin. Near xi_p = 0 the Newton step in xi_p is about 1 / (2 xi_p)
        long, so once |xi_p| is small even its shortest length, 2^-7 of it
        (seven halvings), overshoots and raises |chi|: each seed stops there,
        unconverged."""
        class Field:
            def evaluate(self, xi_p, xi_q):
                values = (1.0 + xi_p ** 2) + 1j * xi_q
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        seeds = np.random.default_rng(13).uniform(-1.0, 1.0, (6, 2))
        xi, converged, iters = _newton_polish(Field(), seeds, 1e-6, 0.1, UNBOUNDED)
        assert not converged.any()
        assert np.all(iters < 40)
        # 1 / (256 |xi_p|) > 2 |xi_p| below |xi_p| = 1 / sqrt(512)
        assert np.all(np.abs(xi[:, 0]) < 512 ** -0.5)
        for k, seed in enumerate(seeds):
            assert _newton_polish(Field(), seed[None, :], 1e-6, 0.1, UNBOUNDED)[2][0] == iters[k]

    def test_the_ladder_is_the_sequential_line_search(self, sheared_scan):
        """Each seed takes the first of the lengths 1, 1/2, ..., 1/128 of its
        Newton step that reduces |chi|, as a backtracking loop that evaluates
        one candidate at a time does (kept here as the reference). On
        Re chi = (1 + xi_p^2)(xi_p - 4) / 4, |chi| along a step rises and
        falls; the seeds cover every length, a step on which all eight fail,
        a full step that leaves the box, and a step taken at 1/4 although
        1/8 would reduce |chi| further. On the exact route, the recipe
        report's seeds, polished as find_blind_spots sets them up, follow the
        reference bit for bit as well."""
        class Field:
            def evaluate(self, xi_p, xi_q):
                values = (1.0 + xi_p ** 2) * (xi_p - 4.0) / 4.0 + 1j * xi_q
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        def backtracking(evaluator, seed, step, cell_diag, box, log):
            def chi(xi):
                return complex(evaluator.evaluate(xi[:1], xi[1:])[0][0])

            xi = np.array(seed)
            value = chi(xi)
            for it in range(1, NEWTON_MAX_ITER + 1):
                z = [chi(xi + step * offset) for offset in _JACOBIAN_OFFSETS]
                dz = [z[0] - z[1], z[2] - z[3]]
                (a, b), (c, d) = ([w.real / (2.0 * step) for w in dz],
                                  [w.imag / (2.0 * step) for w in dz])
                det = a * d - b * c
                if det == 0.0:
                    return xi, False, it
                delta = np.array([(b * value.imag - d * value.real) / det,
                                  (c * value.real - a * value.imag) / det])
                if np.hypot(delta[0], delta[1]) < STEP_TOL * cell_diag:
                    return xi + delta, True, it
                lam = 1.0
                for halvings in range(8):
                    cand = xi + lam * delta
                    if not np.all((cand >= box[0]) & (cand <= box[1])):
                        log.append("box")
                        return xi, False, it
                    if abs(chi(cand)) < abs(value):
                        if halvings == 2 and abs(chi(xi + 0.125 * delta)) < abs(chi(cand)):
                            log.append("1/4 over a better 1/8")
                        log.append(halvings)
                        xi, value = cand, chi(cand)
                        break
                    lam *= 0.5
                else:
                    log.append("fail")
                    return xi, False, it
            return xi, False, NEWTON_MAX_ITER

        def assert_sequential(evaluator, seeds, step, cell_diag, box):
            """The lockstep polish against the reference, seed by seed;
            returns which seeds converged and the reference's log."""
            xi, converged, iters = _newton_polish(evaluator, seeds, step, cell_diag, box)
            log = []
            for k, seed in enumerate(seeds):
                xi1, converged1, iters1 = backtracking(evaluator, seed, step, cell_diag, box, log)
                assert (iters1, converged1) == (iters[k], converged[k]), k
                assert xi1.tobytes() == xi[k].tobytes(), k
            return converged, log

        assert [lam for group in _LADDER for lam in group] == [0.5 ** k for k in range(8)]
        seeds = np.random.default_rng(1).uniform([-1.0, -1.0], [6.0, 1.0], (60, 2))
        box = (np.full(2, -20.0), np.full(2, 20.0))
        converged, log = assert_sequential(Field(), seeds, 1e-6, 0.1, box)
        assert set(log) == {*range(8), "fail", "box", "1/4 over a better 1/8"}
        assert converged.any()

        ev, grid = sheared_scan
        seeds = _seed_chords(grid)
        assert len(seeds) == 54
        # as find_blind_spots sets them for this region
        xp, xq = grid.xi_p_axis, grid.xi_q_axis
        width = max(xp[-1] - xp[0], xq[-1] - xq[0])
        box = (np.array([xp[0], xq[0]]) - width, np.array([xp[-1], xq[-1]]) + width)
        converged, _ = assert_sequential(ev, seeds, 1e-6 * width, _cell_diagonal(grid), box)
        assert converged.all()

    def test_runaway_seed_stops_at_the_box(self, monkeypatch):
        """Re chi = (xi_p - c)^2 - h^2 has a root in each of the cells
        [0.2, 0.3] and [0.3, 0.4] of a 0.1 grid. The second cell's center sits
        h^2 / 400 past the parabola's vertex c, where the slope is h^2 / 200:
        Newton from there jumps 200, 100 region widths. The crossing of that
        cell's bilinear model, 0.35 - h^2 / 800, sits half as far past the
        vertex, and Newton from there jumps twice as far. The evaluator
        refuses any chord outside the region widened by one width on every
        side, as an overlap quadrature past its node budget would."""
        h = 0.05
        c = 0.35 - h * h / 400.0

        class Field:
            # a state for the grid's resolution ratio, which picks the seeds
            state = REPORT_STATES["sheared"][0]

            def evaluate(self, xi_p, xi_q):
                if np.any(np.abs(xi_p) > 3.0) or np.any(np.abs(xi_q) > 3.0):
                    raise NumericalError(f"chord outside the box: |xi_p| up to "
                                         f"{np.max(np.abs(xi_p)):.3g}")
                values = ((xi_p - c) ** 2 - h * h) + 1j * (xi_q - 0.03)
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        xp = axis(-1.0, 1.0, 21)
        values, _ = Field().evaluate(*np.meshgrid(xp, xp, indexing="ij"))
        grid = ChordFieldGrid(xp, xp, values, np.zeros(values.shape, np.uint8), 0.1)
        assert max(resolution_ratio(Field.state, xp, xp)) <= RESOLVED_RATIO
        np.testing.assert_allclose(_seed_chords(grid), [(0.25, 0.05), (0.35, 0.05)])
        # Re chi's linear interpolant in the first cell, as its bilinear model is
        edge = [(x - c) ** 2 - h * h for x in (0.2, 0.3)]
        np.testing.assert_allclose(_seed_chords(grid, crossing=True),
                                   [(0.2 + 0.1 * edge[0] / (edge[0] - edge[1]), 0.03),
                                    (0.35 - h * h / 800.0, 0.03)], rtol=0, atol=1e-12)
        # as find_blind_spots sets them for this region
        step, cell_diag = 1e-6 * 2.0, math.hypot(0.1, 0.1)
        # the grid resolves Field's state, so it seeds the crossings; a
        # threshold of 0 makes it seed the centers
        for threshold, crossing in ((0.0, False), (RESOLVED_RATIO, True)):
            monkeypatch.setattr("chordscan.blindspots.RESOLVED_RATIO", threshold)
            seeds = _seed_chords(grid, crossing)
            with pytest.raises(NumericalError, match="outside the box"):
                _newton_polish(Field(), seeds, step, cell_diag, UNBOUNDED)

            found = find_blind_spots(Field(), grid)
            assert found.n_seeds == 2
            assert len(found.spots) == 1
            # the other seed's spot is the one it reaches alone, with no box
            xi, converged, iters = _newton_polish(Field(), seeds[:1], step, cell_diag,
                                                  UNBOUNDED)
            assert converged[0]
            spot = found.spots[0]
            assert (spot.chord.xi_p, spot.chord.xi_q) == (xi[0, 0], xi[0, 1])
            assert spot.iterations == iters[0]
            assert spot.chord.xi_p == pytest.approx(c - h, abs=1e-12)
            assert spot.chord.xi_q == pytest.approx(0.03, abs=1e-12)

    def test_merge_is_the_greedy_rule_in_seed_order(self):
        """The merge keeps each converged root in seed order unless it lies
        within STEP_TOL cell diagonals of a root kept before it. Crafted
        roots: exact and last-bit duplicates, two zeros half a cell apart, a
        root sharing another's xi_p far away in xi_q, and chains in which
        each root lies within the tolerance of the next but not of the one
        after, so that the outcome depends on the order."""
        cell = 0.045
        tol = STEP_TOL * math.hypot(cell, cell)
        a, b, c = np.array([0.16, 0.13]), np.array([-0.2, 0.05]), np.array([0.3, -0.1])
        diagonal = np.array([0.6, 0.8]) * 0.6 * tol  # 0.6 tol long
        along_q = np.array([0.0, 0.7 * tol])
        roots = np.array([
            a, a, np.nextafter(a, 1.0), a + 0.3 * tol,  # duplicates of one zero
            b, b + [0.5 * cell, 0.0],  # two zeros half a cell apart
            [a[0], -0.4],  # a's xi_p, far in xi_q
            *(c + k * diagonal for k in range(7)),  # a chain along a diagonal
            *(b + [0.0, 0.3] + k * along_q for k in (3, 1, 0, 2, 4)),  # a chain in xi_q, shuffled
        ])

        def assert_greedy(points, kept):
            """No two kept roots lie within tol, and every dropped root lies
            within tol of a kept root of smaller index: the two properties
            that fix the rule in seed order."""
            def gap(i, j):
                return math.hypot(*(points[i] - points[j]))

            for i, j in itertools.combinations(kept, 2):
                assert gap(i, j) >= tol, (i, j)
            for k in sorted(set(range(len(points))) - set(kept)):
                assert any(gap(k, j) < tol for j in kept if j < k), k

        kept = _merged(roots, tol)
        assert_greedy(roots, kept)
        # a, b, b + half a cell, a's far partner, c + 0, 2, 4 and 6 steps,
        # and the xi_q chain's 3 and 1 (1.4 tol apart); its 0, 2 and 4 lie
        # 0.7 tol from one of those
        assert kept.tolist() == [0, 4, 5, 6, 7, 9, 11, 13, 14, 15]
        rng = np.random.default_rng(29)
        for _ in range(20):
            shuffled = roots[rng.permutation(len(roots))]
            assert_greedy(shuffled, _merged(shuffled, tol))
        assert _merged(roots[:0], tol).shape == (0,)

    def test_polish_calls_do_not_grow_with_the_seeds(self):
        """Lockstep polish makes one call per stage: tripling the seeds
        triples the batches, not the calls."""
        state, half = REPORT_STATES["sheared"]
        seeds = np.random.default_rng(12).uniform(-half, half, (8, 2))
        once = CountingEvaluator(ExactEvaluator(state))
        _, _, iters = _newton_polish(once, seeds, 1e-6, 0.02, UNBOUNDED)
        thrice = CountingEvaluator(ExactEvaluator(state))
        _, _, iters3 = _newton_polish(thrice, np.tile(seeds, (3, 1)), 1e-6, 0.02,
                                     UNBOUNDED)
        np.testing.assert_array_equal(iters3, np.tile(iters, 3))
        assert len(thrice.batches) == len(once.batches)
        assert thrice.batches == [3 * b for b in once.batches]
        assert len(once.batches) <= 1 + (1 + len(_LADDER)) * max(iters)
        assert once.single == thrice.single == 0

    @pytest.mark.parametrize("name", sorted(REPORT_STATES))
    def test_search_calls(self, name):
        """The benchmark's two reports: their evaluate calls and the chords
        those calls carry, exactly."""
        state, half = REPORT_STATES[name]
        ev = ExactEvaluator(state)
        ax = axis(-half, half, 41)
        grid = scan_grid(ev, ax, ax)
        counting = CountingEvaluator(ev)
        again = find_blind_spots(counting, grid)
        assert [s.chord for s in again.spots] == [s.chord for s in find_blind_spots(ev, grid).spots]
        assert counting.single == 0
        # the seeds' values, then their Jacobian stencils of 4 chords each
        assert counting.batches[:2] == [again.n_seeds, 4 * again.n_seeds]
        # the last call reads each spot's value
        assert counting.batches[-1] == len(again.spots)
        calls, chords = {"sheared": (7, 190), "n3": (12, 296)}[name]
        assert (len(counting.batches), sum(counting.batches)) == (calls, chords)

    def test_search_calls_at_strong_shear(self):
        """CI's t = 1 report: its 121^2 grid over +-1.7 does not resolve the
        state, so its 348 seed cells' centers seed Newton searches of up to
        40 steps, many of them damped, whose seven damped lengths share one
        call."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=1.0)
        ax = axis(-1.7, 1.7, 121)
        counting = CountingEvaluator(ExactEvaluator(state))
        found = find_blind_spots(counting, scan_grid(counting.evaluator, ax, ax))
        assert found.under_resolved and found.n_seeds == 348
        assert len(found.spots) == 40
        assert counting.single == 0
        assert len(counting.batches) <= 100

    def test_runaway_report_calls(self):
        """CI's runaway report (t = 0.001, 241^2 cells over +-1.7) keeps
        seeds searching for all NEWTON_MAX_ITER steps, so it makes the most
        calls a search may: the seeds' values, three stages per step (the
        stencils, the full steps, the damped lengths) and the spots' values."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.001)
        ax = axis(-1.7, 1.7, 241)
        counting = CountingEvaluator(ExactEvaluator(state))
        found = find_blind_spots(counting, scan_grid(counting.evaluator, ax, ax))
        assert len(found.spots) == 30
        assert counting.single == 0
        assert len(counting.batches) <= 1 + 3 * NEWTON_MAX_ITER + 1

    def test_grid_without_seed_cells(self, sheared):
        """Re chi > 0 everywhere: no seed cell, no evaluation, an empty search."""
        xp = axis(-0.5, 0.5, 9)
        values = (2.0 + np.add.outer(xp, xp)) + 1j * np.add.outer(xp, -xp)
        grid = ChordFieldGrid(xp, xp, values, np.zeros(values.shape, np.uint8), 0.1)
        counting = CountingEvaluator(ExactEvaluator(sheared))
        found = find_blind_spots(counting, grid)
        assert found.n_seeds == 0
        assert found.spots == ()
        assert counting.batches == [] and counting.single == 0

    def test_ray_scan_is_one_call(self, sheared):
        counting = CountingEvaluator(ExactEvaluator(sheared))
        got = first_zero_along(counting, (0.0, 1.0), s_max=0.5)
        assert got == pytest.approx(FIRST_ZERO, abs=1e-10)
        assert counting.batches == [400]
        assert counting.single > 0  # brentq refines through one-chord calls

    def test_moments_take_one_call_per_derivative(self, sheared):
        counting = CountingEvaluator(ExactEvaluator(sheared))
        moments_from_chi(counting)
        assert len(counting.batches) == 5
        assert counting.single == 0
