import numpy as np
import pytest

from chordscan import Flag, axis, make_evaluator, scan_grid
from chordscan.gridscan import ChordFieldGrid


def test_axis_rejects_bad_ranges():
    with pytest.raises(ValueError):
        axis(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        axis(0.0, 1.0, 1)


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


def test_component_selection(sheared):
    grid = scan_grid(make_evaluator("small", sheared), axis(-0.5, 0.5, 4),
                     axis(-0.5, 0.5, 4))
    np.testing.assert_array_equal(grid.component("real"), grid.values.real)
    np.testing.assert_array_equal(grid.component("imag"), grid.values.imag)
    np.testing.assert_array_equal(grid.component("abs"), np.abs(grid.values))
    with pytest.raises(ValueError):
        grid.component("phase")
