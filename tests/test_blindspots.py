"""Nodal-line tracing and blind-spot (isolated zero) location."""

import math

import numpy as np
import pytest
from scipy.special import roots_laguerre

from chordscan import (CurveSpec, ExactEvaluator, NumericalError, axis,
                       find_blind_spots, first_zero_along, nodal_contours,
                       scan_grid)
from chordscan.blindspots import (_HALVINGS, NOISE_RATIO, _newton_polish,
                                  _seed_chords)
from chordscan.gridscan import ChordFieldGrid
from chordscan.smallchord import moments_from_chi

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


@pytest.fixture(scope="module")
def sheared_scan():
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
    ev = ExactEvaluator(state)
    grid = scan_grid(ev, axis(-0.45, 0.45, 41), axis(-0.45, 0.45, 41))
    return ev, grid


@pytest.fixture(scope="module")
def search(sheared_scan):
    ev, grid = sheared_scan
    return find_blind_spots(ev, grid, tol=1e-8)


class TestBlindSpots:

    def test_all_spots_are_certified_zeros(self, search):
        assert len(search.spots) == 10
        # 48 cells off the xi_p = 0 row, where Im chi vanishes identically,
        # plus the 6 cells bordering that row that hold a sign change of Re chi
        assert search.n_seeds == 54
        for spot in search.spots:
            assert abs(spot.value) < 1e-8

    def test_sorted_by_radius_and_deduplicated(self, search):
        radii = [s.radius for s in search.spots]
        assert radii == sorted(radii)
        for i, a in enumerate(search.spots):
            for b in search.spots[i + 1:]:
                assert math.hypot(a.chord.xi_p - b.chord.xi_p,
                                  a.chord.xi_q - b.chord.xi_q) > 0.02

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

        again = find_blind_spots(ev, flipped, tol=1e-8)
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
        """From these grids Newton runs two seeds into the Gaussian tail until
        |chi| itself is below tol, at (+-3.11, +-3.30) for 37^2 and at
        (+-7.53, +-4.46) for 51^2. The field does not change there across a
        cell, so those points are not resolved zeros; the genuine spots stay."""
        ev = ExactEvaluator(sheared)
        ax = axis(-0.45, 0.45, resolution)
        found = find_blind_spots(ev, scan_grid(ev, ax, ax), tol=1e-8)
        assert len(found.spots) == len(search.spots) == 10
        # |chi| < tol pins each root to about tol / |grad chi|
        for got, want in zip(found.spots, search.spots):
            assert abs(got.radius - want.radius) < 1e-7

    def test_spots_outside_the_region_are_kept(self):
        """The n = 3 report has a genuine spot beyond its +-0.6 region."""
        state, half = REPORT_STATES["n3"]
        ev = ExactEvaluator(state)
        ax = axis(-half, half, 41)
        found = find_blind_spots(ev, scan_grid(ev, ax, ax), tol=1e-8)
        assert (found.n_seeds, len(found.spots)) == (48, 12)
        assert max(max(abs(s.chord.xi_p), abs(s.chord.xi_q)) for s in found.spots) > half

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
        step = 2e-6 * half  # as find_blind_spots sets it for this region
        xi, mag, iters = _newton_polish(ev, seeds, step, 1e-8, UNBOUNDED)
        # the full budget polishes every seed; three steps leave some rejected
        assert np.any(mag >= 1e-8) == (max_iter == 3)
        # a root far outside the scanned region can sit in the tail, where
        # |chi| itself is below tol and the field does not pin the point down
        pinned = (mag < 1e-8) & np.all(np.abs(xi) <= 2.0 * half, axis=1)
        assert pinned.any()
        for k, seed in enumerate(seeds):
            xi1, mag1, iters1 = _newton_polish(ev, seed[None, :], step, 1e-8, UNBOUNDED)
            assert iters1[0] == iters[k]
            assert (mag1[0] < 1e-8) == (mag[k] < 1e-8)
            if pinned[k]:
                assert np.max(np.abs(xi1[0] - xi[k])) < 1e-12

    def test_singular_jacobian_stops_only_its_seed(self):
        """chi = (xi_p + 1) + i xi_p xi_q does not vary with xi_q on xi_p = 0,
        so a seed there stops after one step; its neighbour still converges."""
        class Field:
            def evaluate(self, xi_p, xi_q):
                values = (xi_p + 1.0) + 1j * xi_p * xi_q
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        seeds = np.array([[0.0, 0.2], [0.5, 0.2]])
        xi, mag, iters = _newton_polish(Field(), seeds, 1e-6, 1e-8, UNBOUNDED)
        assert iters[0] == 1 and mag[0] == 1.0
        np.testing.assert_array_equal(xi[0], seeds[0])
        assert mag[1] < 1e-8
        np.testing.assert_allclose(xi[1], (-1.0, 0.0), atol=1e-8)
        lone = _newton_polish(Field(), seeds[1:], 1e-6, 1e-8, UNBOUNDED)
        assert lone[2][0] == iters[1]

    def test_stuck_seeds_stop_where_damping_fails(self):
        """With tol = 0 no seed converges: each one stops at the step where 8
        halvings no longer reduce |chi|, at the root up to round-off."""
        class Field:
            def evaluate(self, xi_p, xi_q):
                values = (xi_p - 0.3) + 1j * (xi_q + 0.2) * (1.0 + xi_p ** 2)
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        seeds = np.random.default_rng(13).uniform(-1.0, 1.0, (6, 2))
        xi, mag, iters = _newton_polish(Field(), seeds, 1e-6, 0.0, UNBOUNDED)
        assert np.all(iters < 40)
        np.testing.assert_allclose(xi, np.tile((0.3, -0.2), (6, 1)), atol=1e-12)
        for k, seed in enumerate(seeds):
            assert _newton_polish(Field(), seed[None, :], 1e-6, 0.0, UNBOUNDED)[2][0] == iters[k]

    def test_runaway_seed_stops_at_the_box(self):
        """Re chi = (xi_p - c)^2 - h^2 has a root in each of the cells
        [0.2, 0.3] and [0.3, 0.4] of a 0.1 grid. The second cell's center sits
        h^2 / 400 past the parabola's vertex c, where the slope is h^2 / 200:
        Newton from there jumps 200, 100 region widths. The evaluator refuses
        any chord outside the region widened by one width on every side, as
        an overlap quadrature past its node budget would."""
        h = 0.05
        c = 0.35 - h * h / 400.0

        class Field:
            def evaluate(self, xi_p, xi_q):
                if np.any(np.abs(xi_p) > 3.0) or np.any(np.abs(xi_q) > 3.0):
                    raise NumericalError(f"chord outside the box: |xi_p| up to "
                                         f"{np.max(np.abs(xi_p)):.3g}")
                values = ((xi_p - c) ** 2 - h * h) + 1j * (xi_q - 0.03)
                return values, np.zeros(np.shape(values), dtype=np.uint8)

        xp = axis(-1.0, 1.0, 21)
        values, _ = Field().evaluate(*np.meshgrid(xp, xp, indexing="ij"))
        grid = ChordFieldGrid(xp, xp, values, np.zeros(values.shape, np.uint8), 0.1)
        seeds = _seed_chords(grid)
        np.testing.assert_allclose(seeds, [(0.25, 0.05), (0.35, 0.05)])
        step = 1e-6 * 2.0  # as find_blind_spots sets it for this region
        with pytest.raises(NumericalError, match="outside the box"):
            _newton_polish(Field(), seeds, step, 1e-10, UNBOUNDED)

        found = find_blind_spots(Field(), grid, tol=1e-10)
        assert found.n_seeds == 2
        assert len(found.spots) == 1
        # the other seed's spot is the one it reaches alone, with no box
        xi, mag, iters = _newton_polish(Field(), seeds[:1], step, 1e-10, UNBOUNDED)
        spot = found.spots[0]
        assert (spot.chord.xi_p, spot.chord.xi_q) == (xi[0, 0], xi[0, 1])
        assert spot.iterations == iters[0]
        assert spot.chord.xi_p == pytest.approx(c - h, abs=1e-12)
        assert spot.chord.xi_q == pytest.approx(0.03, abs=1e-12)

    def test_polish_calls_do_not_grow_with_the_seeds(self):
        """Lockstep polish makes one call per stage: tripling the seeds
        triples the batches, not the calls."""
        state, half = REPORT_STATES["sheared"]
        seeds = np.random.default_rng(12).uniform(-half, half, (8, 2))
        once = CountingEvaluator(ExactEvaluator(state))
        _, _, iters = _newton_polish(once, seeds, 1e-6, 1e-8, UNBOUNDED)
        thrice = CountingEvaluator(ExactEvaluator(state))
        _, _, iters3 = _newton_polish(thrice, np.tile(seeds, (3, 1)), 1e-6, 1e-8,
                                     UNBOUNDED)
        np.testing.assert_array_equal(iters3, np.tile(iters, 3))
        assert len(thrice.batches) == len(once.batches)
        assert thrice.batches == [3 * b for b in once.batches]
        assert len(once.batches) <= 1 + (1 + _HALVINGS) * max(iters)
        assert once.single == thrice.single == 0

    def test_search_calls(self, sheared_scan, search):
        ev, grid = sheared_scan
        counting = CountingEvaluator(ev)
        again = find_blind_spots(counting, grid, tol=1e-8)
        assert [s.chord for s in again.spots] == [s.chord for s in search.spots]
        assert counting.single == 0
        # one batch of seeds, then a Jacobian stencil of 4 chords per seed
        assert counting.batches[:2] == [54, 4 * 54]
        # the last call holds each kept spot and its Jacobian stencil
        assert counting.batches[-1] == 5 * len(search.spots)
        assert len(counting.batches) < search.n_seeds

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
