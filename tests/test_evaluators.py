import re
from collections import Counter

import numpy as np
import pytest

from chordscan import (EVALUATOR_NAMES, CurveSpec, ExactEvaluator, Flag, NumericalError, axis,
                       chi_semiclassical, exact, make_evaluator, scan_grid, smallchord)
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
    scale = TAYLOR_SCALE if name.startswith("taylor") else 1.0
    out = ev((0.4 * scale, 0.3 * scale))
    assert np.isfinite(complex(out))


def test_taylor_order_in_name(sheared):
    assert make_evaluator("taylor:2", sheared).name == "taylor:2"
    assert make_evaluator("taylor", sheared).name == "taylor:4"


def test_dashed_spellings_rejected(sheared):
    """Each route has one spelling, the one EVALUATOR_NAMES lists."""
    for name in ("sp-small", "sp-full"):
        with pytest.raises(ValueError, match="unknown evaluator"):
            make_evaluator(name, sheared)


def test_unknown_name_rejected(sheared):
    with pytest.raises(ValueError, match="unknown evaluator"):
        make_evaluator("wigner", sheared)
    with pytest.raises(ValueError):
        make_evaluator("taylor:x", sheared)
    # a Taylor order is an integer K >= 1 after one colon, or none
    for name in ("taylorx", "taylor:", "taylor:0", "taylor:-1", "taylor:2.5"):
        with pytest.raises(ValueError, match="unknown evaluator"):
            make_evaluator(name, sheared)


def test_taylor_order_above_170_is_refused(sheared):
    """K! overflows a double past K = 170, so taylor:170 is the highest order."""
    # past 4300 digits int() would refuse the order with a message of its own
    for name in ("taylor:171", "taylor:99999", "taylor:1000", "taylor:" + "9" * 5000):
        with pytest.raises(ValueError, match="above 170"):
            make_evaluator(name, sheared)
    assert make_evaluator("taylor:170", sheared).name == "taylor:170"


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


def test_kernels_look_up_the_traced_functions_when_they_run(sheared, monkeypatch):
    """Counting wrappers installed after the evaluators are built see every
    route, as the benchmark's tracer does; a kernel that captured a function
    object when it was built would bypass them."""
    built = {name: make_evaluator(name, sheared) for name in ("exact", "small", "semiclassical")}
    oracle = ExactEvaluator(sheared)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(exact, "evolved_chi")
    count(exact, "evolved_chi_grid")
    count(smallchord, "chi_small_grid")
    ax = axis(-0.5, 0.5, 5)
    oracle((0.2, 0.1))
    assert calls == {"evolved_chi": 1}
    scan_grid(built["exact"], ax, ax)
    assert calls == {"evolved_chi": 1, "evolved_chi_grid": 1}
    for name in ("small", "semiclassical"):
        calls.clear()
        scan_grid(built[name], ax, ax)
        assert calls == {"chi_small_grid": 1}


# -- the batch protocol -----------------------------------------------------------

BATCH_STATES = {
    "ring": CurveSpec(n=5, hbar=0.1, t=0.0),  # t = 0: both defects drop to degree 1
    "sheared": CurveSpec(n=5, hbar=0.1, t=0.1),
    "a3_zero": CurveSpec(n=3, hbar=0.2, alpha=(0.0, 0.5, -1.0, 0.0), t=0.3),
}


# taylor:K refuses a chord past its polynomial's range (|chi| > 1), which for
# these states begins near |xi| = 0.3; the protocol tests take it on their
# chords scaled by this factor, and test_taylor_refuses_values_above_one on
# the chords themselves
TAYLOR_SCALE = 0.05


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
    if name == "taylor":
        chords = chords * TAYLOR_SCALE
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
    # a one-chord call is that chord evaluated alone, bit for bit, and a 0-d
    # chord gives 0-d arrays
    alone = [ev.evaluate(xi_p, xi_q) for xi_p, xi_q in chords]
    assert all(v.shape == f.shape == () for v, f in alone)
    np.testing.assert_array_equal([v for v, _ in alone], [out.value for out in points])
    np.testing.assert_array_equal([f for _, f in alone], [FLAG_CODES[out.flag] for out in points])


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_a_large_batch_reads_the_bits_of_small_ones(name):
    """numpy reuses a temporary of 256 KiB or more (16 384 complex values) as
    the output of a binary operation, and for a product that swaps its
    operands; a complex product is not bitwise commutative. So each chord of
    a 20 000-chord batch must read the bits it reads in batches of 1 000 and
    alone."""
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=1.0)
    ev = make_evaluator(name, state)
    # taylor:4 leaves its polynomial's range near |xi| = 0.07 at t = 1
    reach = 0.01 if name == "taylor" else 1.0
    xi_p, xi_q = np.random.default_rng(20000).uniform(-1.2 * reach, 1.2 * reach, (2, 20000))
    batch, batch_flags = ev.evaluate(xi_p, xi_q)
    parts = [ev.evaluate(xi_p[lo:lo + 1000], xi_q[lo:lo + 1000]) for lo in range(0, 20000, 1000)]
    assert batch.tobytes() == np.concatenate([v for v, _ in parts]).tobytes()
    np.testing.assert_array_equal(batch_flags, np.concatenate([f for _, f in parts]))
    for k in range(0, 20000, 997):
        alone, _ = ev.evaluate(xi_p[k:k + 1], xi_q[k:k + 1])
        assert alone.tobytes() == batch[k:k + 1].tobytes(), (xi_p[k], xi_q[k])


# bound on |chi(-xi) - chi(xi)*| of each route, fixed before measuring: the
# acceptance battery's tolerances for exact and the stationary-phase sums,
# round-off for the routes that are sums over the curve
HERMITIAN_TOL = {"exact": 1e-10, "sp_full": 1e-8, "semiclassical": 1e-8,
                 "small": 1e-13, "sp_small": 1e-13, "taylor:4": 1e-13}


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("name", sorted(HERMITIAN_TOL))
def test_negated_chords_give_the_conjugate(name, t):
    """chi(-xi) = chi(xi)* for every state, since T(-xi) = T(xi)^dagger.

    scan_grid writes half of a symmetric grid from this identity, so here
    each chord and its negative are evaluated independently, in one batch.
    """
    state = CurveSpec(n=5, hbar=0.1, t=t)
    chords = batch_chords(state, seed=int(10 * t))
    if name == "taylor:4":
        chords = chords * 1e-3  # inside the polynomial's range at t = 5 too
    values, flags = make_evaluator(name, state).evaluate(
        np.concatenate([chords[:, 0], -chords[:, 0]]), np.concatenate([chords[:, 1], -chords[:, 1]]))
    plus, minus = np.split(values, 2)
    # a near-caustic stationary-phase value is flagged untrusted: its amplitude
    # diverges there (|chi| = 6.8 at 1e-7 inside the diameter), and so does the
    # round-off of each member of the pair
    trusted = np.all(flags.reshape(2, -1) != FLAG_CODES[Flag.NEAR_CAUSTIC], axis=0)
    assert np.count_nonzero(trusted) >= len(chords) - 3
    assert np.max(np.abs(minus - np.conj(plus))[trusted]) <= HERMITIAN_TOL[name]


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_evaluate_keeps_the_batch_shape(sheared, name):
    ev = make_evaluator(name, sheared)
    xi_p, xi_q = np.meshgrid(axis(-1.2, 1.2, 4), axis(-0.9, 0.6, 3), indexing="ij")
    if name == "taylor":
        xi_p, xi_q = xi_p * TAYLOR_SCALE, xi_q * TAYLOR_SCALE
    values, flags = ev.evaluate(xi_p, xi_q)
    assert values.shape == flags.shape == (4, 3)
    flat, flat_flags = ev.evaluate(xi_p.ravel(), xi_q.ravel())
    np.testing.assert_array_equal(values.ravel(), flat)
    np.testing.assert_array_equal(flags.ravel(), flat_flags)


@pytest.mark.parametrize("state_name", BATCH_STATES)
def test_taylor_refuses_values_above_one(state_name):
    """Past its range the polynomial grows without bound while |chi| <= 1 holds
    for every state, so a batch or a one-chord call there is refused."""
    state = BATCH_STATES[state_name]
    ev = make_evaluator("taylor", state)
    chords = batch_chords(state, seed=sorted(BATCH_STATES).index(state_name))
    with pytest.raises(NumericalError, match="exceeds 1"):
        ev.evaluate(chords[:, 0], chords[:, 1])
    with pytest.raises(NumericalError, match="exceeds 1"):
        ev((2.5, 2.5))


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_evaluate_rejects_mismatched_shapes(sheared, name):
    with pytest.raises(ValueError, match="differ in shape"):
        make_evaluator(name, sheared).evaluate(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("name", ["exact", "small", "semiclassical",
                                  "sp_small", "sp_full", "taylor:4"])
def test_every_route_refuses_a_non_finite_chord(sheared, name):
    """A chord with a NaN or infinite component is one ValueError naming the
    first such chord, from evaluate and from scan_grid's axes alike."""
    ev = make_evaluator(name, sheared)
    for bad in (np.nan, np.inf, -np.inf):
        text = re.escape(f"{bad:.6g}")
        with pytest.raises(ValueError, match=rf"chord \(0\.1, {text}\) is not finite"):
            ev.evaluate(np.array([0.0, 0.1, bad]), np.array([0.0, bad, 0.2]))
        with pytest.raises(ValueError, match=rf"chord \({text}, 0\.2\) is not finite"):
            scan_grid(ev, np.array([0.1, bad]), np.array([0.2, 0.3]))


@pytest.mark.parametrize("grid", [exact.evolved_chi_grid, smallchord.chi_small_grid])
def test_grid_functions_refuse_a_non_finite_chord(sheared, grid):
    """The public tensor-grid functions give evaluate's ValueError, not a
    quadrature or plane-wave error, for a non-finite chord on either axis."""
    for bad in (np.nan, np.inf, -np.inf):
        text = re.escape(f"{bad:.6g}")
        with pytest.raises(ValueError, match=rf"chord \({text}, 0\.2\) is not finite"):
            grid(sheared, np.array([bad, 0.1]), np.array([0.2]))
        with pytest.raises(ValueError, match=rf"chord \(0\.1, {text}\) is not finite"):
            grid(sheared, np.array([0.1]), np.array([0.2, bad]))


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


# states whose chi is real everywhere (t = 0, or an odd H', which keeps the
# Wigner function even) and the sheared state, real on the xi_p = 0 row only
SYMMETRIC_STATES = {
    "ring": CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.0),
    "flat_h": CurveSpec(n=5, hbar=0.1, alpha=(0.3, 0.0, 0.0, 0.0), t=0.1),
    "odd_drift": CurveSpec(n=5, hbar=0.1, alpha=(0.3, 0.0, 1.0, 0.0), t=0.1),
    "sheared": CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1),
}


@pytest.mark.parametrize("state_name", sorted(SYMMETRIC_STATES))
@pytest.mark.parametrize("name", EVALUATOR_NAMES)
def test_chi_real_by_symmetry_reads_plus_pi(state_name, name):
    """Where a symmetry makes chi real, every route writes Im = +0.0 on the
    grid and the batch paths alike, so a cell with Re chi < 0 has phase +pi,
    never the -pi of a negative round-off."""
    state = SYMMETRIC_STATES[state_name]
    ev = make_evaluator("taylor:12" if name == "taylor" else name, state)
    ax = axis(-0.35, 0.35, 15)
    # past the first nodal ring at 0.2296, where Re chi < 0; the sheared
    # state is taken on three rows, since taylor:12 exceeds |chi| = 1 at the
    # corners of the square
    xi_p = ax if state_name != "sheared" else np.array([-0.05, 0.0, 0.05])
    grid = scan_grid(ev, xi_p, ax).values
    listed, _ = ev.evaluate(*np.meshgrid(xi_p, ax, indexing="ij"))
    for values in (grid, listed):
        real = values if state_name != "sheared" else values[xi_p == 0.0]
        assert np.all(real.imag == 0.0) and not np.any(np.signbit(real.imag))
        negative = real.real < 0.0
        assert np.count_nonzero(negative) >= 4
        assert np.all(np.angle(real[negative]) == np.pi)
    if state_name == "sheared":
        assert np.all(grid[xi_p != 0.0].imag != 0.0)
