"""Short-chord route: classical averages, moment tables, ellipse estimate."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import j0

from chordscan import (ConvergenceError, CurveSpec, NumericalError, chi_small,
                       classical_moments, closest_blind_spot_estimate,
                       make_evaluator, moments_from_chi,
                       second_order_from_table, state_moments)
from chordscan import smallchord
from chordscan.gridscan import axis
from chordscan.smallchord import (SecondOrderMoments, chi_small_grid, chi_small_points,
                                  taylor_values)

# Ladder-operator / curve-average values for n = 5, hbar = 0.1 sheared for
# t = 0.1 under H = p + p^2 + p^3 (I = 0.55, r^2 = 1.1):
#   <q>   = t <H'(p)>      = t (1 + 3 I)                     = 0.265
#   <qp>  = t <p H'(p)>    = 2 t I                           = 0.11
#   <p^4> classical (3/8) r^4 = 0.45375 ; quantum (hbar^2/4)(6n^2+6n+3) = 0.4575
#   <q^2> = I + t^2 <H'^2> = 0.55 + t^2 (1 + 10 I + 9 <p^4>)
CLASSICAL_Q2 = 0.55 + 0.01 * (1 + 5.5 + 9 * 0.45375)   # 0.6558375
QUANTUM_Q2 = 0.55 + 0.01 * (1 + 5.5 + 9 * 0.4575)      # 0.656175


@pytest.mark.parametrize("s", np.linspace(0.05, 1.8, 8))
@pytest.mark.parametrize("angle", [0.0, 0.7, 2.4])
def test_ring_average_is_bessel(ring, s, angle):
    """For the unsheared ring the classical average is J0(r |xi| / hbar)."""
    xi = (s * math.cos(angle), s * math.sin(angle))
    got = complex(chi_small(ring, xi))
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert got.real == pytest.approx(j0(ring.radius * s / ring.hbar), abs=1e-10)


def test_grid_average_matches_pointwise(sheared):
    xp = np.linspace(-1.3, 1.3, 9)
    xq = np.linspace(-0.9, 1.1, 8)
    values = chi_small_grid(sheared, xp, xq)
    rng = np.random.default_rng(5)
    for _ in range(10):
        i, j = rng.integers(0, 9), rng.integers(0, 8)
        assert values[i, j] == pytest.approx(
            complex(chi_small(sheared, (xp[i], xq[j]))), abs=1e-9)


def test_chord_past_the_node_cap_raises_before_any_node_pass(sheared, monkeypatch):
    """At (35355, 35355) the rule asks for more than 262 144 nodes: the chord
    is refused, on either route, before the curve is sampled."""
    assert smallchord.AVERAGE_MAX_NODES == 262144

    def sampled(self, theta):
        raise AssertionError("the curve was sampled")

    monkeypatch.setattr(CurveSpec, "point", sampled)
    with pytest.raises(ConvergenceError, match="needs more than 262144 nodes"):
        chi_small_points(sheared, [0.0, 35355.0], [0.0, 35355.0])
    with pytest.raises(ConvergenceError, match="needs more than 262144 nodes"):
        chi_small_grid(sheared, [0.0, 35355.0], [0.0, 35355.0])


@pytest.mark.parametrize("route", [chi_small_points, chi_small_grid])
def test_a_drift_that_overflows_is_refused(route):
    """t a1 overflows, so every curve point's q does: the phase bound is not
    finite even where the node count would be small."""
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1e200, 0.0, 0.0), t=1e200)
    with pytest.raises(NumericalError, match="plane-wave phase at chord .* is not finite"):
        route(state, [0.0, 0.5], [0.0, 0.5])


def test_grid_takes_the_largest_node_count_of_its_chords(sheared, monkeypatch):
    """The grid route makes one pass on its chords' largest node count, and
    agrees with the chord-list route, which gives each chord its own."""
    xp = axis(-2.3, 2.3, 41)
    mesh_p, mesh_q = np.meshgrid(xp, xp, indexing="ij")
    nodes = smallchord._average_nodes(sheared, mesh_p.ravel(), mesh_q.ravel())
    passes = []
    original = CurveSpec.point

    def recording(self, theta):
        passes.append(np.size(theta))
        return original(self, theta)

    monkeypatch.setattr(CurveSpec, "point", recording)
    grid = chi_small_grid(sheared, xp, xp)
    assert passes == [np.max(nodes)] == [128]
    passes.clear()
    listed = chi_small_points(sheared, mesh_p.ravel(), mesh_q.ravel())
    assert passes == sorted(set(nodes))
    assert np.max(np.abs(grid.ravel() - listed)) < 1e-14


def test_grid_node_pass_goes_in_blocks(sheared):
    """Over +-1000 a 41^2 grid's corner needs 32 768 nodes. The node pass
    goes in blocks of AVERAGE_MAX_NODES // 41 nodes, so the grid's memory
    stays bounded (a single pass peaked at 65 MB), and the blocks sum to the
    single pass, which a few rows of the grid check."""
    xp = axis(-1000.0, 1000.0, 41)
    corner_p, corner_q = np.meshgrid([xp[0], xp[-1]], [xp[0], xp[-1]])
    nodes = np.max(smallchord._average_nodes(sheared, corner_p.ravel(), corner_q.ravel()))
    assert nodes == 32768 > smallchord.AVERAGE_MAX_NODES // 41
    tracemalloc.start()
    try:
        grid = chi_small_grid(sheared, xp, xp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    rows = xp[::10]
    p, q = sheared.point(2.0 * np.pi * np.arange(nodes) / nodes)
    single = (np.exp(-1j / sheared.hbar * np.outer(rows, q))
              @ np.exp(1j / sheared.hbar * np.outer(p, xp))) / nodes
    assert np.max(np.abs(grid[::10] - single)) < 1e-15


@pytest.mark.parametrize("n", [5, 20, 80, 160])
@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 5.0])
def test_node_count_resolves_the_average_to_round_off(n, t):
    """Both routes lie within eps (max |xi|) (max |x|) / hbar, the round-off of
    the largest phase, of a trapezoid rule on four times the grid's nodes."""
    state = CurveSpec(n=n, hbar=1.1 / (2 * n + 1), alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    xp = axis(-2.3, 2.3, 61)
    mesh_p, mesh_q = np.meshgrid(xp, xp, indexing="ij")
    nodes = 4 * np.max(smallchord._average_nodes(state, mesh_p.ravel(), mesh_q.ravel()))
    reference = np.zeros((xp.size, xp.size), dtype=complex)
    for lo in range(0, nodes, 8192):
        p, q = state.point(2.0 * np.pi * np.arange(lo, min(lo + 8192, nodes)) / nodes)
        reference += (np.exp(-1j / state.hbar * np.outer(xp, q))
                      @ np.exp(1j / state.hbar * np.outer(p, xp)))
    reference /= nodes
    p, q = state.point(2.0 * np.pi * np.arange(nodes) / nodes)
    bound = np.finfo(float).eps * np.max(np.hypot(xp, xp)) * np.max(np.hypot(p, q)) / state.hbar
    assert np.max(np.abs(chi_small_grid(state, xp, xp) - reference)) <= bound
    listed = chi_small_points(state, mesh_p.ravel(), mesh_q.ravel())
    assert np.max(np.abs(listed - reference.ravel())) <= bound


@pytest.mark.parametrize("name", ["small", "semiclassical"])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_each_chord_reads_the_same_bits_alone_and_in_a_batch(name, t):
    """Each chord's node count is its own, so the rest of a batch cannot move its bits."""
    evaluator = make_evaluator(name, CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t))
    xp = axis(-2.3, 2.3, 21)
    mesh_p, mesh_q = (mesh.ravel() for mesh in np.meshgrid(xp, xp, indexing="ij"))
    batch, batch_flags = evaluator.evaluate(mesh_p, mesh_q)
    for k in range(mesh_p.size):
        alone, flags = evaluator.evaluate(mesh_p[k:k + 1], mesh_q[k:k + 1])
        assert alone.tobytes() == batch[k:k + 1].tobytes(), (mesh_p[k], mesh_q[k])
        assert flags[0] == batch_flags[k]


class TestClassicalMoments:
    def test_frozen_values(self, sheared):
        m = classical_moments(sheared, order=4)
        assert m.raw(0, 0) == pytest.approx(1.0, abs=1e-12)
        assert m.raw(1, 0) == pytest.approx(0.265, abs=1e-10)
        assert m.raw(0, 1) == pytest.approx(0.0, abs=1e-12)
        assert m.raw(0, 2) == pytest.approx(0.55, abs=1e-10)
        assert m.raw(2, 0) == pytest.approx(CLASSICAL_Q2, abs=1e-9)
        assert m.raw(1, 1) == pytest.approx(0.11, abs=1e-10)
        assert m.raw(0, 4) == pytest.approx(0.45375, abs=1e-9)

    def test_mean_property(self, sheared):
        mean = classical_moments(sheared, order=2).mean
        assert mean.p == pytest.approx(0.0, abs=1e-12)
        assert mean.q == pytest.approx(0.265, abs=1e-10)

    def test_one_sum_matches_the_doubling_where_it_settled(self):
        """At t = 5 the order-12 moments reach 1e17, so a doubling certified to
        an absolute 1e-12 never settles for all of them; each entry that does
        settle agrees with the one exact sum within round-off."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=5.0)
        order = 12
        pairs = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]

        def monomials(theta):
            p, q = state.point(theta)
            return np.stack([q ** j * p ** k for j, k in pairs])

        # the nested trapezoid doubling from 64 nodes, each entry taken at the
        # first doubling that moves it by less than 1e-12
        n = 64
        total = np.sum(monomials(2.0 * np.pi * np.arange(n) / n), axis=-1)
        est = total / n
        settled = np.full(len(pairs), np.nan)
        for _ in range(8):
            total = total + np.sum(monomials(2.0 * np.pi * (np.arange(n) + 0.5) / n), axis=-1)
            n *= 2
            prev, est = est, total / n
            new = np.isnan(settled) & (np.abs(est - prev) < 1e-12)
            settled[new] = est[new]
        table = classical_moments(state, order=order).table
        got = np.array([table[j, k] for j, k in pairs])
        kept = ~np.isnan(settled)
        assert 0 < np.count_nonzero(kept) < len(pairs)
        largest = np.max(np.abs(got))
        assert np.max(np.abs(got[kept] - settled[kept])) <= 1e-15 * largest

    def test_out_of_table_access(self, sheared):
        m = classical_moments(sheared, order=2)
        with pytest.raises(ValueError):
            m.raw(2, 1)
        with pytest.raises(ValueError):
            classical_moments(sheared, order=0)


class TestTaylor:
    def test_zero_chord_is_one(self, sheared):
        m = classical_moments(sheared, order=4)
        assert complex(taylor_values(m, sheared.hbar, 0.0, 0.0)) == 1.0

    def test_matches_average_at_short_chords(self, sheared):
        # the leading truncation term is (r |xi| / hbar)^7 / 7! ~ 1e-8 here
        m = classical_moments(sheared, order=6)
        for xi in [(0.02, 0.01), (-0.015, 0.02), (0.01, -0.025)]:
            want = complex(chi_small(sheared, xi))
            got = complex(taylor_values(m, sheared.hbar, *xi))
            assert abs(got - want) < 5e-8

    def test_truncation_error_shrinks_with_order(self, sheared):
        m = classical_moments(sheared, order=6)
        xi = (0.04, 0.03)
        want = complex(chi_small(sheared, xi))
        errs = [abs(complex(taylor_values(m, sheared.hbar, *xi, order=k)) - want)
                for k in (2, 4, 6)]
        assert errs[0] > errs[1] > errs[2]

    def test_order_capped_by_table(self, sheared):
        m = classical_moments(sheared, order=2)
        with pytest.raises(ValueError):
            taylor_values(m, sheared.hbar, 0.1, 0.1, order=4)


class TestQuantumMoments:
    def test_exact_oracle_moments(self, sheared):
        """Differentiating the oracle recovers the ladder-operator moments."""
        mom = moments_from_chi(make_evaluator("exact", sheared))
        assert mom.mean.q == pytest.approx(0.265, abs=1e-7)
        assert mom.mean.p == pytest.approx(0.0, abs=1e-8)
        assert mom.p2 == pytest.approx(0.55, abs=1e-7)
        assert mom.q2 == pytest.approx(QUANTUM_Q2, abs=1e-6)
        assert mom.pq == pytest.approx(0.11, abs=1e-6)

    def test_derivative_errors_reported(self, sheared):
        mom = moments_from_chi(make_evaluator("exact", sheared))
        assert set(mom.errors) == {"d1_xi_p", "d1_xi_q", "d2_xi_p", "d2_xi_q",
                                   "d2_diag"}
        assert all(err < 1e-8 for err in mom.errors.values())

    def test_large_n_moments(self):
        """At n = 80 chi varies on the scale hbar / r, 7.6 times finer than at
        n = 5: the first step and the tolerance follow that scale."""
        n, hbar = 80, 0.006832298
        state = CurveSpec(n=n, hbar=hbar, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
        mom = moments_from_chi(make_evaluator("exact", state))
        action = (n + 0.5) * hbar
        p4 = hbar ** 2 / 4 * (6 * n * n + 6 * n + 3)
        assert mom.mean.q == pytest.approx(0.1 * (1 + 3 * action), abs=1e-7)
        assert mom.mean.p == pytest.approx(0.0, abs=1e-8)
        assert mom.p2 == pytest.approx(action, abs=1e-7)
        assert mom.q2 == pytest.approx(action + 0.01 * (1 + 10 * action + 9 * p4), abs=1e-6)
        assert mom.pq == pytest.approx(0.2 * action, abs=1e-6)
        scale = state.radius / hbar
        for key, err in mom.errors.items():
            assert err < 1e-8 * scale ** int(key[1])

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_strongly_sheared_moments(self, t):
        """The shear moves the mean to <q> = t (3 a3 <p^2> + a1) = 2.65 t, and
        chi's phase turns by <q> xi_p / hbar: the first step and the tolerance
        of moments_from_chi follow the curve's RMS radius, which grows with the
        mean. The closed form gives the same moments."""
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
        for mom in (moments_from_chi(make_evaluator("exact", state)), state_moments(state)):
            assert mom.mean.p == pytest.approx(0.0, abs=1e-6)
            assert mom.p2 == pytest.approx(0.55, abs=1e-6)
            assert mom.mean.q == pytest.approx(2.65 * t, abs=1e-6)

    @pytest.mark.parametrize("n, hbar, t", [(5, 0.1, 0.1), (5, 0.1, 1.0), (5, 0.1, 5.0),
                                            (3, 0.1, 0.2), (80, 0.006832298, 0.1),
                                            (5, 0.1, 0.0)])
    def test_state_moments_agree_with_the_fock_product_and_chi(self, n, hbar, t):
        """The closed form against <n|x_t x_t|n> in a truncated Fock basis, with
        q_t = q + t H'(p), and against the derivatives of the exact chi at 0.
        An error bound on a moment of degree m is a multiple of R^m, R^2 the
        sum <p^2> + <q^2>, the scale moments_from_chi works in."""
        state = CurveSpec(n=n, hbar=hbar, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
        size = n + 8  # every product below reaches at most n + 4 quanta
        lower = np.diag(np.sqrt(np.arange(1.0, size)), 1)
        q = math.sqrt(hbar / 2) * (lower + lower.T)
        p = 1j * math.sqrt(hbar / 2) * (lower.T - lower)
        _, a1, a2, a3 = state.alpha
        q_t = q + t * (a1 * np.eye(size) + 2 * a2 * p + 3 * a3 * p @ p)
        fock = SecondOrderMoments(mean=(p[n, n].real, q_t[n, n].real),
                                  p2=(p @ p)[n, n].real, q2=(q_t @ q_t)[n, n].real,
                                  pq=(0.5 * (p @ q_t + q_t @ p))[n, n].real)
        closed = state_moments(state)
        scale = math.sqrt(closed.p2 + closed.q2)
        for other, tol in ((fock, 1e-12), (moments_from_chi(make_evaluator("exact", state)), 1e-10)):
            np.testing.assert_allclose(other.mean, closed.mean, rtol=0, atol=tol * scale)
            np.testing.assert_allclose([other.p2, other.q2, other.pq],
                                       [closed.p2, closed.q2, closed.pq],
                                       rtol=0, atol=tol * scale ** 2)
        # the classical curve's <p^4> is (3/8) hbar^2 below the quantum one
        classical = classical_moments(state, order=2).raw(2, 0)
        assert closed.q2 - classical == pytest.approx(27 / 8 * (a3 * t * hbar) ** 2,
                                                      rel=0, abs=1e-12 * scale ** 2)

    def test_non_hermitian_field_refused(self, sheared):
        # a real-valued exponential leaks a real first derivative
        class RealExponential:
            state = sheared

            def evaluate(self, xi_p, xi_q):
                values = np.exp(xi_p + 0.5 * xi_q).astype(complex)
                return values, np.zeros(values.shape, dtype=np.uint8)

        with pytest.raises(RuntimeError, match="hermitian"):
            moments_from_chi(RealExponential())


def test_second_order_from_table(sheared):
    table = classical_moments(sheared, order=2)
    mom = second_order_from_table(table)
    assert mom.p2 == pytest.approx(0.55, abs=1e-10)
    assert mom.q2 == pytest.approx(CLASSICAL_Q2, abs=1e-9)
    assert mom.pq == pytest.approx(0.11, abs=1e-10)
    var_q = CLASSICAL_Q2 - 0.265 ** 2
    np.testing.assert_allclose(mom.covariance(),
                               [[0.55, 0.11], [0.11, var_q]], atol=1e-9)
    assert mom.uncertainty_det() == pytest.approx(0.55 * var_q - 0.11 ** 2,
                                                  abs=1e-9)


class TestBlindSpotEstimate:
    def test_sheared_state_ellipse(self, sheared):
        mom = moments_from_chi(make_evaluator("exact", sheared))
        est = closest_blind_spot_estimate(mom, sheared.hbar)
        assert len(est.spots) == 2
        # the mean points along +q, so the aligned zero sits on the xi_q axis
        # at sqrt(2 hbar^2 / <p^2>)
        assert est.radius == pytest.approx(math.sqrt(2 * 0.01 / 0.55), rel=1e-4)
        a, b = est.spots
        assert a.xi_p == pytest.approx(-b.xi_p, abs=1e-12)
        assert a.xi_q == pytest.approx(-b.xi_q, abs=1e-12)
        assert abs(a.xi_p) < 1e-5

    def test_symmetric_state_is_degenerate(self, ring):
        mom = second_order_from_table(classical_moments(ring, order=2))
        est = closest_blind_spot_estimate(mom, ring.hbar)
        assert est.spots == ()
        with pytest.raises(ValueError):
            est.radius

    def test_indefinite_moments_refused(self):
        bad = SecondOrderMoments(mean=(0.0, 0.3), p2=-1.0, q2=1.0, pq=0.0)
        with pytest.raises(ValueError, match="positive definite"):
            closest_blind_spot_estimate(bad, 0.1)
