import numpy as np
import pytest

from chordscan import (EVALUATOR_NAMES, CurveSpec, Flag, NumericalError, axis,
                       chi_semiclassical, make_evaluator)
from chordscan.core import FLAG_CODES
from chordscan.semiclassical import _tip_angle


def test_catalog():
    assert EVALUATOR_NAMES == ("exact", "small", "semiclassical", "sp_small",
                               "sp_full", "taylor")


@pytest.mark.parametrize("name", ["exact", "small", "semiclassical",
                                  "sp_small", "sp_full", "taylor", "taylor:6"])
def test_factory_protocol(sheared, name):
    """Every evaluator is a callable with name/state attributes."""
    ev = make_evaluator(name, sheared)
    assert ev.state is sheared
    assert isinstance(ev.name, str) and ev.name
    out = ev((0.4, 0.3))
    assert np.isfinite(complex(out))


def test_taylor_order_in_name(sheared):
    assert make_evaluator("taylor:2", sheared).name == "taylor:2"
    assert make_evaluator("taylor", sheared).name == "taylor:4"


def test_dashed_spellings_accepted(sheared):
    assert make_evaluator("sp-small", sheared).name == "sp_small"
    assert make_evaluator("sp-full", sheared).name == "sp_full"


def test_unknown_name_rejected(sheared):
    with pytest.raises(ValueError, match="unknown evaluator"):
        make_evaluator("wigner", sheared)
    with pytest.raises(ValueError):
        make_evaluator("taylor:x", sheared)


def test_routes_agree_at_short_chords(sheared):
    """exact, classical average and Taylor polynomial must coincide where
    every expansion is in its comfort zone."""
    exact = make_evaluator("exact", sheared)
    small = make_evaluator("small", sheared)
    taylor = make_evaluator("taylor:6", sheared)
    for xi in [(0.02, 0.01), (-0.01, 0.03), (0.025, -0.02)]:
        e = complex(exact(xi))
        assert abs(complex(small(xi)) - e) < 2e-3
        assert abs(complex(taylor(xi)) - e) < 2e-3
        assert abs(complex(taylor(xi)) - complex(small(xi))) < 1e-6


def test_semiclassical_grid_fast_path_matches_pointwise(sheared):
    ev = make_evaluator("semiclassical", sheared)
    xp = axis(-1.0, 1.0, 5)
    xq = axis(-0.8, 1.2, 5)
    values, flags = ev.grid(xp, xq)
    for i in range(5):
        for j in range(5):
            want = chi_semiclassical(sheared, (xp[i], xq[j]))
            assert values[i, j] == pytest.approx(want.value, abs=1e-9)
            assert flags[i, j] == FLAG_CODES[want.flag]


# -- the batch protocol -----------------------------------------------------------

BATCH_STATES = {
    "ring": CurveSpec(n=5, hbar=0.1, t=0.0),  # t = 0: both defects drop to degree 1
    "sheared": CurveSpec(n=5, hbar=0.1, t=0.1),
    "a3_zero": CurveSpec(n=3, hbar=0.2, alpha=(0.0, 0.5, -1.0, 0.0), t=0.3),
}


def batch_chords(state, seed):
    """Seeded chords plus the special ones: xi = 0, the xi_p = 0 row, and
    chords just inside, at and past the ring's diameter (near-caustic,
    grazing, evanescent)."""
    diameter = 2.0 * state.radius
    special = [(0.0, 0.0), (0.0, 0.7), (0.0, -1.9), (0.0, diameter - 1e-7),
               (0.0, diameter + 1e-7), (0.0, diameter + 0.3), (2.5, 2.5)]
    random = np.random.default_rng(seed).uniform(-2.6, 2.6, size=(40, 2))
    return np.vstack([special, random])


@pytest.mark.parametrize("state_name", BATCH_STATES)
@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_evaluate_matches_one_chord_calls(name, state_name):
    state = BATCH_STATES[state_name]
    ev = make_evaluator(name, state)
    chords = batch_chords(state, seed=sorted(BATCH_STATES).index(state_name))
    values, flags = ev.evaluate(chords[:, 0], chords[:, 1])
    assert values.shape == flags.shape == (len(chords),)
    assert flags.dtype == np.uint8
    points = [ev(tuple(xi)) for xi in chords]
    np.testing.assert_array_equal(flags, [FLAG_CODES[out.flag] for out in points])
    np.testing.assert_allclose(values, [out.value for out in points], rtol=1e-12, atol=1e-12)
    if name == "sp_full" and state_name == "ring":
        # the special chords reach every flag the kernel sets
        assert {FLAG_CODES[f] for f in (Flag.OK, Flag.NEAR_CAUSTIC, Flag.EVANESCENT)} \
            <= set(flags.tolist())


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_evaluate_keeps_the_batch_shape(sheared, name):
    ev = make_evaluator(name, sheared)
    xi_p, xi_q = np.meshgrid(axis(-1.2, 1.2, 4), axis(-0.9, 0.6, 3), indexing="ij")
    values, flags = ev.evaluate(xi_p, xi_q)
    assert values.shape == flags.shape == (4, 3)
    flat, flat_flags = ev.evaluate(xi_p.ravel(), xi_q.ravel())
    np.testing.assert_array_equal(values.ravel(), flat)
    np.testing.assert_array_equal(flags.ravel(), flat_flags)


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_evaluate_rejects_mismatched_shapes(sheared, name):
    with pytest.raises(ValueError, match="differ in shape"):
        make_evaluator(name, sheared).evaluate(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_evaluate_on_an_empty_batch(sheared, name):
    values, flags = make_evaluator(name, sheared).evaluate(np.zeros(0), np.zeros(0))
    assert values.shape == flags.shape == (0,)
    assert values.dtype == complex and flags.dtype == np.uint8


def test_batched_radial_miss_guard(sheared):
    """Tips are checked over the whole batch: one tip off the curve raises."""
    theta = np.array([0.3, 1.7, 4.0])
    p, q = sheared.point(theta)
    foot = np.zeros(3)
    np.testing.assert_allclose(_tip_angle(sheared, p, q, foot), theta, atol=1e-12)
    p[1] *= 1.001
    with pytest.raises(NumericalError, match="radial miss"):
        _tip_angle(sheared, p, q, foot)
