from collections import Counter

import numpy as np
import pytest

from chordscan import (EVALUATOR_NAMES, CurveSpec, Flag, axis, cli, make_evaluator, nodal_contours,
                       scan_grid)
from chordscan.core import FLAGS_BY_CODE, real_by_symmetry
from chordscan.gridscan import ChordFieldGrid


def test_axis_rejects_bad_ranges():
    with pytest.raises(ValueError):
        axis(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        axis(0.0, 1.0, 1)
    # 5.5 samples would make 6 whose last spacing is half the others
    with pytest.raises(ValueError, match="bad axis"):
        axis(-1.0, 1.0, 5.5)


@pytest.mark.parametrize("lo, hi", [
    (-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan), (-1.7e308, 1.7e308),
])
def test_axis_rejects_non_finite_ends(lo, hi):
    with pytest.raises(ValueError):
        axis(lo, hi, 5)


def test_axis_endpoints():
    a = axis(-1.5, 2.5, 9)
    assert a[0] == -1.5 and a[-1] == 2.5 and a.size == 9


def test_shape_mismatch_rejected():
    xp = axis(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        ChordFieldGrid(xp, xp, np.zeros((4, 5), complex),
                       np.zeros((4, 4), np.uint8), 0.1)


def test_scan_records_metadata(sheared):
    ev = make_evaluator("small", sheared)
    grid = scan_grid(ev, axis(-0.5, 0.5, 5), axis(-0.4, 0.6, 6))
    assert grid.hbar == 0.1


def test_evaluate_path_matches_grid_fast_path(sheared):
    """An evaluator without a grid method scans through one evaluate call on
    the mesh, to the same field."""
    vec = make_evaluator("small", sheared)
    xp, xq = axis(-0.6, 0.6, 5), axis(-0.6, 0.7, 6)
    fast = scan_grid(vec, xp, xq)

    class BatchOnly:
        name = "small-batch"
        state = sheared
        calls = []

        def evaluate(self, xi_p, xi_q):
            self.calls.append(xi_p.shape)
            return vec.evaluate(xi_p, xi_q)

    batch = BatchOnly()
    slow = scan_grid(batch, xp, xq)
    assert batch.calls == [(5, 6)]
    np.testing.assert_allclose(slow.values, fast.values, atol=1e-9)
    np.testing.assert_array_equal(slow.flags, fast.flags)


def test_flag_bookkeeping(ring):
    # straddle the rim: chords beyond 2r are evanescent for the composite
    ev = make_evaluator("semiclassical", ring)
    grid = scan_grid(ev, axis(0.0, 2.6, 3), axis(0.0, 2.6, 3))
    counts = grid.flag_counts()
    assert sum(counts.values()) == 9
    assert grid.worst_flag is not Flag.OK
    assert counts.get(Flag.EVANESCENT, 0) > 0


def _hand_built_flags():
    """Every code, code c 2c + 1 times, in a scrambled 1 x N grid."""
    codes = np.repeat(np.arange(len(FLAGS_BY_CODE), dtype=np.uint8),
                      2 * np.arange(len(FLAGS_BY_CODE)) + 1)
    flags = np.random.default_rng(45).permutation(codes)[None, :]
    return ChordFieldGrid(xi_p_axis=np.zeros(1), xi_q_axis=np.arange(flags.size, dtype=float),
                          values=np.zeros(flags.shape, dtype=complex), flags=flags, hbar=0.1)


@pytest.mark.parametrize("kind", ["every-code", "composite"])
def test_flag_counts_match_a_counter(sheared, kind):
    grid = (_hand_built_flags() if kind == "every-code" else
            scan_grid(make_evaluator("semiclassical", sheared), axis(-2.3, 2.3, 41),
                      axis(-2.3, 2.3, 41)))
    expected = Counter(FLAGS_BY_CODE[c] for c in grid.flags.ravel().tolist())
    assert grid.flag_counts() == expected
    assert all(type(k) is int for k in grid.flag_counts().values())


def test_component_selection(sheared):
    grid = scan_grid(make_evaluator("small", sheared), axis(-0.5, 0.5, 4),
                     axis(-0.5, 0.5, 4))
    np.testing.assert_array_equal(grid.component("real"), grid.values.real)
    np.testing.assert_array_equal(grid.component("imag"), grid.values.imag)
    with pytest.raises(ValueError, match="want real/imag"):
        grid.component("phase")
    # |chi| never changes sign, so it has no nodal lines to trace
    with pytest.raises(ValueError, match="unknown component 'abs' \\(want real/imag\\)"):
        nodal_contours(grid, "abs")


# -- the half grid ------------------------------------------------------------


class CountingEvaluator:
    """An evaluator that records the chords each kernel receives."""

    def __init__(self, inner, with_grid):
        self.name = inner.name
        self.state = inner.state
        self.inner = inner
        self.chords = []
        if with_grid:
            self.grid = self._grid

    def evaluate(self, xi_p, xi_q):
        self.chords.append(xi_p.size)
        return self.inner.evaluate(xi_p, xi_q)

    def _grid(self, xi_p_axis, xi_q_axis):
        self.chords.append(xi_p_axis.size * xi_q_axis.size)
        return self.inner.grid(xi_p_axis, xi_q_axis)


@pytest.mark.parametrize("with_grid", [True, False])
@pytest.mark.parametrize("n, m", [(7, 7), (7, 6), (6, 7), (6, 6)])
def test_symmetric_grid_evaluates_its_upper_half(sheared, with_grid, n, m):
    ev = CountingEvaluator(make_evaluator("small", sheared), with_grid)
    ax_p, ax_q = axis(-0.6, 0.6, n), axis(-0.5, 0.5, m)
    scan_grid(ev, ax_p, ax_q)
    assert ev.chords == [(n + 1) // 2 * m]


@pytest.mark.parametrize("with_grid", [True, False])
@pytest.mark.parametrize("ax_p, ax_q", [
    (axis(-0.6, 0.6, 5), axis(-0.6, 0.7, 6)),
    (axis(-0.6, 0.7, 5), axis(-0.6, 0.6, 6)),
    # linspace misses the antisymmetry by round-off (its middle sample is
    # -5.55e-17), which is enough to fall back to the full grid
    (np.linspace(-0.45, 0.45, 41), axis(-0.45, 0.45, 41)),
])
def test_asymmetric_grid_evaluates_every_chord(sheared, with_grid, ax_p, ax_q):
    ev = CountingEvaluator(make_evaluator("small", sheared), with_grid)
    full = scan_grid(ev, ax_p, ax_q)
    assert ev.chords == [ax_p.size * ax_q.size]
    assert full.values.shape == (ax_p.size, ax_q.size)


@pytest.mark.parametrize("n, m", [(9, 9), (9, 8), (8, 9), (8, 8)])
@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_half_grid_is_conjugate_mirrored(sheared, name, n, m):
    """Each cell is the conjugate of its -xi partner to the last bit, with the
    same flag, and the computed half is what a full evaluation gives."""
    # the composite's square reaches past the diameter, where its flags vary;
    # taylor's stays inside the polynomial's range
    reach = 0.01 if name == "taylor" else 2.3
    ax_p, ax_q = axis(-reach, reach, n), axis(-reach, reach, m)
    ev = make_evaluator(name, sheared)
    grid = scan_grid(ev, ax_p, ax_q)
    np.testing.assert_array_equal(grid.values, np.conj(grid.values[::-1, ::-1]))
    np.testing.assert_array_equal(grid.flags, grid.flags[::-1, ::-1])
    if ev.grid is not None:
        values, flags = ev.grid(ax_p, ax_q)
    else:
        values, flags = ev.evaluate(*np.meshgrid(ax_p, ax_q, indexing="ij"))
    real_by_symmetry(sheared, values, ax_p)
    computed = np.zeros((n, m), dtype=bool)
    computed[n // 2:] = True
    if n % 2:  # the xi_q < 0 half of the xi_p = 0 row is mirrored too
        computed[n // 2, :m // 2] = False
    np.testing.assert_array_equal(grid.values[computed], values[computed])
    np.testing.assert_array_equal(grid.flags[computed], flags[computed])


@pytest.mark.parametrize("n", [9, 8])
@pytest.mark.parametrize("t", [0.0, 0.1, 5.0])
@pytest.mark.parametrize("name", ["exact", "small", "sp_small", "sp_full", "semiclassical",
                                  "taylor:4"])
def test_csv_columns_have_their_partners_magnitudes(name, t, n):
    """The CSV writer copies a cell's text from its -xi partner wherever their
    magnitudes are equal; on a symmetric grid that is every cell of the re,
    im, abs2 and phase columns as a scan writes them, bit for bit. Were it
    not, the output would stay right, but the writer would format each pair twice."""
    reach = 0.01 if name.startswith("taylor") else 2.3
    ax = axis(-reach, reach, n)
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    values = scan_grid(make_evaluator(name, state), ax, ax).values.ravel()
    for column in (values.real, values.imag, cli._abs2(values), np.angle(values)):
        magnitude = np.abs(column).view(np.uint64)
        np.testing.assert_array_equal(magnitude, magnitude[::-1])


@pytest.mark.parametrize("count", [2, 3, 4, 5, 40, 41, 160, 161, 1000, 1001])
@pytest.mark.parametrize("reach", [1e-300, 1e-9, 0.1, 0.45, 1.75, 2.3, np.pi, 7.0, 1e300])
def test_symmetric_axis_is_exactly_antisymmetric(reach, count):
    """axis(-a, a, n) meets the exact test that sends scan_grid to the half grid."""
    ax = axis(-reach, reach, count)
    assert np.array_equal(ax, -ax[::-1])
    if count % 2:
        assert ax[count // 2] == 0.0
