"""Exact oracle: the closed form, the certified quadrature behind it, and the Fourier self-consistency checks."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from chordscan import (ChordFieldGrid, ConvergenceError, CurveSpec, ExactEvaluator,
                       GridTooSmallError, NumericalError, correlation_C,
                       evolved_chi, evolved_chi_grid,
                       fourier_invariance_residual, hermite_psi, scan_grid)
from chordscan import exact
from chordscan.exact import fock_chi_radial, nodal_radii
from chordscan.gridscan import axis
from chordscan.quadrature import _gl_nodes

HBAR = 0.1


# -- momentum eigenfunctions -------------------------------------------------


def test_hermite_psi_orthonormal():
    p = np.linspace(-6.0, 6.0, 4001)
    dp = p[1] - p[0]
    psis = [hermite_psi(n, HBAR, p) for n in range(7)]
    for a in range(7):
        for b in range(a, 7):
            overlap = np.sum(np.conj(psis[a]) * psis[b]) * dp
            assert abs(overlap - (1.0 if a == b else 0.0)) < 1e-10


def test_hermite_psi_far_tail_underflows_to_zero():
    vals = hermite_psi(12, HBAR, np.array([40.0, -55.0]))
    assert np.all(vals == 0.0)
    assert np.all(np.isfinite(vals))


def test_hermite_psi_rejects_bad_index():
    with pytest.raises(ValueError):
        hermite_psi(-1, HBAR, 0.0)


@pytest.mark.parametrize("n", [0, 1, 5, 80, 160])
@pytest.mark.parametrize("hbar", [0.01, 0.1, 1.0])
def test_overlap_window_reaches_the_tail(n, hbar):
    """psi_n at the edge of the overlap window r + OVERLAP_TAIL sqrt(hbar) is
    below 1e-17 of its peak: the one truncation the doubling certificate
    cannot see, since both rules share the window."""
    radius = np.sqrt(hbar * (2 * n + 1))
    half_width = radius + exact.OVERLAP_TAIL * np.sqrt(hbar)
    peak = np.max(np.abs(hermite_psi(n, hbar, np.linspace(-half_width, half_width, 20001))))
    edge = np.abs(hermite_psi(n, hbar, np.array([-half_width, half_width])))
    assert np.all(edge < 1e-17 * peak)


# -- closed form vs quadrature ------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_quadrature_matches_closed_form(n):
    """At zero shear the oracle must land on exp(-r^2/4h) L_n(r^2/2h)."""
    state = CurveSpec(n=n, hbar=HBAR)
    rng = np.random.default_rng(42 + n)
    for _ in range(25):
        xi = rng.uniform(-2.0, 2.0, size=2)
        got = complex(evolved_chi(state, xi))
        want = fock_chi_radial(n, HBAR, np.hypot(*xi))
        assert abs(got - want) < 1e-10


def test_large_n_grid_matches_closed_form():
    """n = 80 at hbar = 0.006832298 (the radius of n = 5 at hbar = 0.1): the
    window and first rule scale with the state, not with the n = 5 cases."""
    state = CurveSpec(n=80, hbar=0.006832298)
    radius = np.sqrt(state.hbar * (2 * state.n + 1))
    ax = axis(-2.3 * radius, 2.3 * radius, 21)
    values = evolved_chi_grid(state, ax, ax)
    rho = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
    assert np.max(np.abs(values - fock_chi_radial(state.n, state.hbar, rho))) < 1e-10


@pytest.mark.parametrize("alpha,t", [
    ((0.0, 0.0, 1.0, 0.0), 1.0), ((0.0, 1.0, 0.0, 0.0), 0.1),
    ((0.3, 1.0, 1.0, 0.0), 1.0), ((0.0, 1.0, 1.0, 1.0), 0.0)])
def test_unsheared_zeros_lie_on_the_sheared_laguerre_circles(alpha, t):
    """With alpha3 t = 0 the evolution is a linear map of the ring, so chi
    vanishes on xi_p^2 + (xi_q - 2 t alpha2 xi_p)^2 = rho_k^2 for each of the
    ring's Laguerre radii rho_k."""
    state = CurveSpec(n=5, hbar=HBAR, alpha=alpha, t=t)
    rho = nodal_radii(state.n, state.hbar)[:, None]
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    xi_p = rho * np.cos(theta)
    xi_q = rho * np.sin(theta) + 2.0 * t * alpha[2] * xi_p
    values, _ = ExactEvaluator(state).evaluate(xi_p, xi_q)
    assert np.max(np.abs(values)) <= 1e-12


def test_nodal_radii_are_the_zeros_of_the_laguerre_profile():
    assert nodal_radii(0, HBAR).size == 0
    # L_1 = 1 - x: its one zero x_1 = 1 sits at radius sqrt(2 hbar)
    assert nodal_radii(1, HBAR).tolist() == [np.sqrt(2.0 * HBAR)]
    for n, hbar in ((5, HBAR), (80, 0.006832298)):
        radii = nodal_radii(n, hbar)
        assert radii.size == n and np.all(np.diff(radii) > 0.0)
        assert np.max(np.abs(fock_chi_radial(n, hbar, radii))) <= 1e-12


# the four smallest zeros of L_n, from 60-digit mpmath Newton iterations
LAGUERRE_ZEROS = {
    5: (0.2635603197181409102030619, 1.413403059106516792218408,
        3.596425771040722081223187, 7.085810005858837556922124),
    20: (0.070539889691988753366689, 0.3721268180016114437942414,
         0.9165821024832735646677163, 1.70730653102834388068769),
    80: (0.01796042330069836555401032, 0.09463991299435398881139027,
         0.2326228681258675692077062, 0.4319925478023874802557862),
    160: (0.009008105385284973030674587, 0.04746411838648656010261848,
          0.1166533048116634066134467, 0.216597660395240163658035),
}


@pytest.mark.parametrize("n", sorted(LAGUERRE_ZEROS))
def test_nodal_radii_land_on_the_laguerre_zeros(n):
    """At hbar = 1/2 the radii are sqrt(x_k): the smallest ones lie within
    1e-15 of the zeros' square roots, where numpy's lagroots alone is off by
    5.6e-13 at n = 80 and 1.7e-12 at n = 160."""
    radii = nodal_radii(n, 0.5)
    want = np.sqrt(LAGUERRE_ZEROS[n])
    np.testing.assert_allclose(radii[:4], want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 5, 20, 80, 160])
def test_every_nodal_radius_lands_on_its_laguerre_zero(n):
    """Every radius against a 40-digit zero of L_n: five Newton steps on its
    recurrence in decimal arithmetic from scipy's Gauss-Laguerre nodes, which
    are off by 1e-12 or so."""
    from scipy.special import roots_laguerre

    def newton_step(x):
        previous, value = Decimal(1), 1 - x
        for k in range(1, n):
            previous, value = value, ((2 * k + 1 - x) * value - k * previous) / (k + 1)
        return x * value / (n * (value - previous))

    want = []
    with localcontext() as context:
        context.prec = 40
        for x in roots_laguerre(n)[0].tolist():
            x = Decimal(x)
            for _ in range(5):
                x -= newton_step(x)
            want.append(float(x.sqrt()))
    np.testing.assert_allclose(nodal_radii(n, 0.5), want, rtol=1e-15, atol=0.0)


def _gauss_legendre_chi(state, xi_p, xi_q, half_width, nodes):
    """The overlap integral by an independent Gauss-Legendre sum over [-half_width, half_width]."""
    x, w = _gl_nodes(nodes)
    p = half_width * x[:, None]
    plus, minus = p + 0.5 * xi_p, p - 0.5 * xi_p
    integrand = (np.conj(hermite_psi(state.n, state.hbar, plus))
                 * hermite_psi(state.n, state.hbar, minus)
                 * np.exp(-1j / state.hbar * (state.t * (state.hamiltonian(plus)
                                                         - state.hamiltonian(minus))
                                              - p * xi_q)))
    return half_width * (w @ integrand)


@pytest.mark.parametrize("state", [CurveSpec(n=5, hbar=HBAR),
                                   CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1),
                                   CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=1.0)],
                         ids=["ring", "sheared", "t1"])
def test_trapezoid_matches_gauss_legendre(state):
    """The nested trapezoid oracle against a Gauss-Legendre sum over the same window."""
    rng = np.random.default_rng(1234)
    radius, angle = np.sqrt(rng.uniform(0.0, 1.0, 30)), rng.uniform(0.0, 2 * np.pi, 30)
    xi_p, xi_q = radius * np.cos(angle), radius * np.sin(angle)
    half_width = (np.sqrt(state.hbar * (2 * state.n + 1)) + 8.0 * np.sqrt(state.hbar)
                  + 0.5 * np.max(np.abs(xi_p)))
    coarse = _gauss_legendre_chi(state, xi_p, xi_q, half_width, 512)
    reference = _gauss_legendre_chi(state, xi_p, xi_q, half_width, 1024)
    assert np.max(np.abs(reference - coarse)) < 1e-12  # the reference certifies itself
    values = exact._overlap(state, xi_p, xi_q, tensor=False)
    assert np.max(np.abs(values - reference)) < 1e-10


def test_far_chords_do_not_alias_onto_the_state(ring):
    """Chords with xi_q near an alias spacing of a small rule read ~0, not ~1.

    The closed form is below 1e-119 there; an unresolved first rule puts the
    plane wave's j = +-2 alias on the state at both node counts and passes
    the doubling certificate with |chi| ~ 1 at (0, 11.0), with 64 and 128
    nodes over the window r + 8 sqrt(hbar).
    """
    xi_q = np.array([11.0, 12.78, 14.0])
    xi_p = np.zeros_like(xi_q)
    closed = fock_chi_radial(ring.n, ring.hbar, xi_q)
    half_width = np.sqrt(ring.hbar * (2 * ring.n + 1)) + 8.0 * np.sqrt(ring.hbar)
    reference = _gauss_legendre_chi(ring, xi_p, xi_q, half_width, 1024)
    assert np.max(np.abs(reference - closed)) < 1e-12  # 1024 nodes resolve the wave
    batch = exact._overlap(ring, xi_p, xi_q, tensor=False)
    single = np.array([exact._overlap(ring, [0.0], [q], tensor=False)[0] for q in xi_q])
    row = exact._overlap(ring, [0.0], xi_q, tensor=True)[0]
    for values in (batch, single, row):
        assert np.max(np.abs(values - closed)) < 1e-10
        assert np.max(np.abs(values - reference)) < 1e-10


def test_fock_chi_radial_matches_pointwise():
    rho = np.linspace(0.0, 3.0, 31)
    vals = fock_chi_radial(5, HBAR, rho)
    for r, v in zip(rho, vals):
        assert v == pytest.approx(fock_chi_radial(5, HBAR, r))


def test_normalization_at_zero_chord(sheared):
    assert complex(evolved_chi(sheared, (0.0, 0.0))) == pytest.approx(1.0, abs=1e-12)


def test_hermiticity_and_modulus_bound(sheared):
    rng = np.random.default_rng(314)
    for _ in range(40):
        xi = rng.uniform(-1.9, 1.9, size=2)
        plus = complex(evolved_chi(sheared, xi))
        minus = complex(evolved_chi(sheared, -xi))
        assert abs(minus - np.conj(plus)) < 1e-12
        assert abs(plus) <= 1.0 + 1e-10


def test_grid_matches_pointwise(sheared):
    xp = axis(-1.0, 1.0, 7)
    xq = axis(-0.8, 1.2, 6)
    values = evolved_chi_grid(sheared, xp, xq)
    assert values.shape == (7, 6)
    for i in [0, 3, 6]:
        for j in [0, 2, 5]:
            assert values[i, j] == pytest.approx(
                complex(evolved_chi(sheared, (xp[i], xq[j]))), abs=1e-12)


def test_evaluator_interface(sheared):
    ev = ExactEvaluator(sheared)
    assert ev.name == "exact"
    assert ev.state is sheared
    out = ev((0.3, -0.2))
    assert abs(complex(out)) <= 1.0
    values, flags = ev.grid(axis(-0.5, 0.5, 5), axis(-0.5, 0.5, 5))
    assert values.shape == flags.shape == (5, 5)
    assert np.all(flags == 0)  # the oracle never degrades


# -- Gaussian-Hermite closed form against the quadrature ------------------------

# the quadrature's own round-off: below 4e-15 against a 60-digit evaluation of
# the closed form's sum, on n = 5 to 80 at t = 0 to 1
QUADRATURE_ROUNDOFF = 1e-14


def _seeded_chords(seed, count, reach):
    rng = np.random.default_rng(seed)
    return rng.uniform(-reach, reach, size=(2, count))


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 5.0])
@pytest.mark.parametrize("n", [0, 1, 3, 5, 8])
def test_closed_form_matches_the_quadrature(n, t):
    state = CurveSpec(n=n, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    xi_p, xi_q = _seeded_chords(700 + n, 40, 3.0)
    closed, bound = exact._closed_form(state, xi_p, xi_q)
    quadrature = exact._overlap(state, xi_p, xi_q, tensor=False)
    error = np.abs(closed - quadrature)
    assert np.all(bound <= exact.OVERLAP_TOL)
    assert np.all(error <= bound + QUADRATURE_ROUNDOFF)
    if n <= 5:  # at n = 8 the sum's cancellation leaves up to 1.2e-13 past the ring
        assert np.max(error) < 1e-13


@pytest.mark.parametrize("n", [10, 14, 20])
def test_round_off_bound_holds(n):
    """Every chord the bound accepts is within its bound of the quadrature;
    at these n the bound both accepts chords near 1e-10 and refuses some."""
    state = CurveSpec(n=n, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=1.0)
    xi_p, xi_q = _seeded_chords(800 + n, 200, 2.5 * state.radius)
    closed, bound = exact._closed_form(state, xi_p, xi_q)
    accepted = bound <= exact.OVERLAP_TOL
    assert np.any(accepted & (bound > 1e-12)) and not np.all(accepted)
    quadrature = exact._overlap(state, xi_p[accepted], xi_q[accepted], tensor=False)
    assert np.all(np.abs(closed[accepted] - quadrature) <= bound[accepted] + QUADRATURE_ROUNDOFF)


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 5.0])
@pytest.mark.parametrize("n, hbar", [(20, 1.1 / 41), (80, 1.1 / 161)])
def test_a_batch_refuses_what_each_chord_refuses_alone(n, hbar, t):
    """Out to +-4 the bound both accepts and refuses chords. Whether the
    batch majorant certifies a batch or each chord's own sum is taken, a
    chord's value keeps its bits, its bound is at least the one it has
    alone, and it is refused exactly when it is refused alone."""
    state = CurveSpec(n=n, hbar=hbar, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    xi_p, xi_q = _seeded_chords(900 + n, 200, 4.0)
    alone = [exact._closed_form(state, xi_p[k:k + 1], xi_q[k:k + 1]) for k in range(200)]
    value_alone = np.concatenate([value for value, _ in alone])
    bound_alone = np.concatenate([bound for _, bound in alone])
    refused_alone = ~(bound_alone <= exact.OVERLAP_TOL)
    assert refused_alone.any() and not refused_alone.all()
    accepted = np.flatnonzero(~refused_alone)
    # the whole set, groups of four in seed order, and groups of four accepted chords
    batches = [np.arange(200), *np.arange(200).reshape(-1, 4),
               *accepted[:accepted.size // 4 * 4].reshape(-1, 4)]
    certified = 0
    for batch in batches:
        value, bound = exact._closed_form(state, xi_p[batch], xi_q[batch])
        assert value.tobytes() == value_alone[batch].tobytes()
        assert np.array_equal(~(bound <= exact.OVERLAP_TOL), refused_alone[batch])
        assert np.all(bound >= bound_alone[batch])
        certified += np.any(bound > bound_alone[batch])
    # the straddling set takes each chord's own bound; some groups the majorant
    assert np.array_equal(exact._closed_form(state, xi_p, xi_q)[1], bound_alone)
    assert certified > 0


def test_the_majorant_certifies_the_blind_spot_reports_grid(sheared):
    """On the sheared recipe state the blind-spot report's 41^2 grid over
    +-0.45 is certified by its majorant: every chord's bound is the batch's
    largest magnitude sum, scaled by the chord's own prefactor."""
    ax = axis(-0.45, 0.45, 41)
    _, bound = exact._closed_form(sheared, ax[:, np.newaxis], ax)
    assert np.all(bound <= exact.OVERLAP_TOL)
    own = np.array([[exact._closed_form(sheared, ax[i:i + 1], ax[j:j + 1])[1][0]
                     for j in range(0, 41, 8)] for i in range(0, 41, 8)])
    assert np.all(bound[::8, ::8] >= own) and np.any(bound[::8, ::8] > own)


def test_refused_chords_go_to_the_quadrature():
    """At n = 80 the recurrences lose every digit inside the ring: the bound
    refuses those chords, and the chord list and the grid hand them to the
    quadrature while the accepted ones keep the closed form."""
    state = CurveSpec(n=80, hbar=0.006832298, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
    xi_p, xi_q = _seeded_chords(880, 60, 3.0)
    closed, bound = exact._closed_form(state, xi_p, xi_q)
    refused = ~(bound <= exact.OVERLAP_TOL)
    assert np.any(refused) and not np.all(refused)
    values, _ = ExactEvaluator(state).evaluate(xi_p, xi_q)
    assert np.array_equal(values[~refused], closed[~refused])
    assert np.array_equal(values[refused],
                          exact._overlap(state, xi_p[refused], xi_q[refused], tensor=False))
    assert np.max(np.abs(values[refused] - closed[refused])) > 1.0

    ax = axis(-3.0, 3.0, 15)
    closed, bound = exact._closed_form(state, ax[:, np.newaxis], ax)
    refused = ~(bound <= exact.OVERLAP_TOL)
    rows, cols = refused.any(axis=1), refused.any(axis=0)
    assert not np.all(rows) or not np.all(cols)
    grid = evolved_chi_grid(state, ax, ax)
    quadrature = exact._overlap(state, ax[rows], ax[cols], tensor=True)
    assert np.array_equal(grid[~refused], closed[~refused])
    assert np.array_equal(grid[np.ix_(rows, cols)][refused[np.ix_(rows, cols)]],
                          quadrature[refused[np.ix_(rows, cols)]])


@pytest.mark.parametrize("alpha0", [1e6, 1e8])
def test_the_constant_term_of_h_changes_no_bit(alpha0):
    """alpha0 adds a global phase to the shear, which the overlap drops: an
    n = 20 chord list and grid, whose chords mostly go to the quadrature,
    read the same bits at alpha0 = 0 and far from it."""
    shifted, plain = (CurveSpec(n=20, hbar=1.1 / 41, alpha=(a0, 1.0, 1.0, 1.0), t=0.1)
                      for a0 in (alpha0, 0.0))
    xi_p, xi_q = _seeded_chords(20, 40, 1.0)
    ax = axis(-1.0, 1.0, 11)
    _, bound = exact._closed_form(plain, ax[:, np.newaxis], ax)
    assert np.mean(~(bound <= exact.OVERLAP_TOL)) > 0.5
    assert (ExactEvaluator(shifted).evaluate(xi_p, xi_q)[0].tobytes()
            == ExactEvaluator(plain).evaluate(xi_p, xi_q)[0].tobytes())
    assert evolved_chi_grid(shifted, ax, ax).tobytes() == evolved_chi_grid(plain, ax, ax).tobytes()


# -- quadrature controls -------------------------------------------------------


def test_starved_quadrature_raises(monkeypatch):
    # at t = 1 the chord (0.5, 0.5) starts at 64 nodes and settles at 256
    monkeypatch.setattr(exact, "OVERLAP_MAX_NODES", 128)
    with pytest.raises(ConvergenceError, match=r"overlap .* within 128 nodes"):
        exact._overlap(CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=1.0),
                       [0.5], [0.5], tensor=False)


def _first_rules(monkeypatch):
    """Record the first node count of every overlap quadrature."""
    seen = []
    original = exact.periodic_mean

    def recording(f, n0, **kwargs):
        seen.append(n0)
        return original(f, n0=n0, **kwargs)

    monkeypatch.setattr(exact, "periodic_mean", recording)
    return seen


@pytest.mark.parametrize("xi_p, xi_q, start", [
    ([0.0], [0.0], 64),
    ([0.0], [12.78], 256),
    ([3.0, -1.0], [20.0, 0.5], 512),
    ([0.0], [1000.0], 16384),
])
def test_first_rule_clears_the_aliases(sheared, monkeypatch, xi_p, xi_q, start):
    seen = _first_rules(monkeypatch)
    exact._overlap(sheared, xi_p, xi_q, tensor=False)
    assert seen == [start]


def test_grid_first_rule(sheared, monkeypatch):
    seen = _first_rules(monkeypatch)
    exact._overlap(sheared, axis(-2.3, 2.3, 161), axis(-2.3, 2.3, 161), tensor=True)
    assert seen == [128]


def test_first_rule_past_the_budget_raises_before_any_node_pass(sheared, monkeypatch):
    seen = _first_rules(monkeypatch)
    radius = np.sqrt(sheared.hbar * (2 * sheared.n + 1))
    # the farthest xi_q whose first rule leaves one doubling under 32768 nodes
    half_width = radius + 8.0 * np.sqrt(sheared.hbar)
    edge = np.pi * sheared.hbar * 16384 / half_width - 4.0 * radius
    for xi in [(0.0, edge * (1 + 1e-9)), (0.0, 2000.0), (1e300, 0.0),
               (0.0, -1e300), (np.nan, 0.0), (0.0, np.inf)]:
        with pytest.raises(ConvergenceError, match="more than 32768 nodes"):
            exact._overlap(sheared, [xi[0]], [xi[1]], tensor=False)
    assert seen == []
    monkeypatch.undo()
    exact._overlap(sheared, [0.0], [edge * (1 - 1e-9)], tensor=False)


# -- Fourier self-consistency ---------------------------------------------------


@pytest.fixture(scope="module")
def fock1_grid():
    state = CurveSpec(n=1, hbar=HBAR)
    return scan_grid(ExactEvaluator(state), axis(-2.5, 2.5, 81),
                     axis(-2.5, 2.5, 81))


def test_fourier_invariance_of_pure_state(fock1_grid):
    """|chi|^2 of a pure state reproduces itself under the symplectic DFT."""
    assert fourier_invariance_residual(fock1_grid) < 1e-3


def test_correlation_equals_modulus_squared(fock1_grid):
    c = correlation_C(fock1_grid)
    abs2 = np.abs(fock1_grid.values) ** 2
    assert c[40, 40] == pytest.approx(1.0, abs=1e-3)  # purity at the center
    assert np.max(np.abs(c - abs2)) < 1e-3


PURITY_STATE = CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)


def _complex_dft(g, xi_p_axis, xi_q_axis, hbar, sign):
    """The symplectic DFT as two complex kernel products, built apart from exact."""
    kernel = np.exp(sign * 1j / hbar * np.outer(xi_p_axis, xi_q_axis))
    scale = ((xi_p_axis[1] - xi_p_axis[0]) * (xi_q_axis[1] - xi_q_axis[0])
             / (2.0 * np.pi * hbar))
    return scale * (kernel @ g.T @ np.conj(kernel))


@pytest.fixture(scope="module", params=[(161, 161), (160, 160), (161, 121)],
                ids=["odd", "even", "rectangular"])
def purity_grid(request):
    """The purity state on antisymmetric axes over +-3.2 of the given shape."""
    xi_p_axis, xi_q_axis = (axis(-3.2, 3.2, size) for size in request.param)
    return scan_grid(ExactEvaluator(PURITY_STATE), xi_p_axis, xi_q_axis)


def test_folded_transform_matches_the_complex_kernel(purity_grid):
    """On antisymmetric axes |chi|^2 is exactly even, and its transform is the
    real folded one, within 1e-15 of max |F| of the complex kernel's of
    either sign."""
    xi_p_axis, xi_q_axis = purity_grid.xi_p_axis, purity_grid.xi_q_axis
    g = np.abs(purity_grid.values) ** 2
    assert np.array_equal(g, g[::-1, ::-1])
    folded = exact._symplectic_dft(g, xi_p_axis, xi_q_axis, HBAR)
    assert folded.dtype == np.float64
    assert np.array_equal(folded, folded[::-1, ::-1])
    for sign in (1, -1):
        reference = _complex_dft(g, xi_p_axis, xi_q_axis, HBAR, sign)
        assert np.max(np.abs(folded - reference)) <= 1e-15 * np.max(np.abs(folded))


def test_residual_is_the_defect_of_the_correlation(purity_grid):
    """The self-reciprocity residual is ||C - |chi|^2|| / |||chi|^2||, bit for bit."""
    abs2 = np.abs(purity_grid.values) ** 2
    defect = np.linalg.norm(correlation_C(purity_grid) - abs2) / np.linalg.norm(abs2)
    assert fourier_invariance_residual(purity_grid) == float(defect)


@pytest.mark.parametrize("certificate", [fourier_invariance_residual, correlation_C])
def test_each_certificate_runs_one_transform(purity_grid, certificate, monkeypatch):
    dft, calls = exact._symplectic_dft, []

    def counting(*args, **kwargs):
        calls.append(args)
        return dft(*args, **kwargs)

    monkeypatch.setattr(exact, "_symplectic_dft", counting)
    certificate(purity_grid)
    assert len(calls) == 1


def test_off_centre_grid_takes_the_complex_kernel():
    """A contained grid that is not centred keeps the complex products."""
    xi_p_axis, xi_q_axis = axis(-3.4, 3.6, 161), axis(-3.2, 3.2, 161)
    grid = scan_grid(ExactEvaluator(PURITY_STATE), xi_p_axis, xi_q_axis)
    g = np.abs(grid.values) ** 2
    for field in (g, g + g[::-1, ::-1]):  # the second is even in its indices, not in xi
        transformed = exact._symplectic_dft(field, xi_p_axis, xi_q_axis, HBAR)
        assert transformed.dtype == np.complex128
        assert np.array_equal(transformed, _complex_dft(field, xi_p_axis, xi_q_axis, HBAR, -1))
    assert fourier_invariance_residual(grid) < 1e-8
    assert np.max(np.abs(correlation_C(grid) - g)) < 1e-8


def test_correlation_of_a_field_that_is_not_even_is_refused():
    """|chi|^2 off centre has a complex transform, and both certificates say so."""
    ax = axis(-3.2, 3.2, 81)
    bump = np.exp(-((ax[:, None] - 0.4) ** 2 + (ax - 0.3) ** 2) / (2.0 * HBAR))
    grid = ChordFieldGrid(xi_p_axis=ax, xi_q_axis=ax, values=bump.astype(complex),
                          flags=np.zeros(bump.shape, dtype=np.uint8), hbar=HBAR)
    for certificate in (fourier_invariance_residual, correlation_C):
        with pytest.raises(NumericalError, match="non-real"):
            certificate(grid)


def test_truncated_region_is_refused(ring):
    grid = scan_grid(ExactEvaluator(ring), axis(-1.0, 1.0, 21),
                     axis(-1.0, 1.0, 21))
    with pytest.raises(GridTooSmallError):
        fourier_invariance_residual(grid)
    with pytest.raises(GridTooSmallError):
        correlation_C(grid)


# -- batched evaluation and seeded properties -----------------------------------

STRONG = CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=1.0)


def _random_state(seed):
    rng = np.random.default_rng(seed)
    return CurveSpec(n=int(rng.integers(0, 9)), hbar=float(rng.uniform(0.05, 0.2)),
                     alpha=tuple(rng.uniform(-1.0, 1.0, 4)), t=float(rng.uniform(0.0, 1.0)))


@pytest.mark.parametrize("state", [CurveSpec(n=5, hbar=HBAR),
                                   CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1),
                                   STRONG], ids=["ring", "sheared", "t1"])
def test_batched_evaluate_matches_pointwise_chords(state):
    ev = ExactEvaluator(state)
    rng = np.random.default_rng(2718)
    chords = rng.uniform(-2.3, 2.3, size=(24, 2))
    values, flags = ev.evaluate(chords[:, 0], chords[:, 1])
    assert values.shape == flags.shape == (24,)
    assert np.all(flags == 0)
    pointwise = np.array([complex(ev(xi)) for xi in chords])
    assert np.max(np.abs(values - pointwise)) < 1e-10


STRONGEST = CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=5.0)


@pytest.mark.parametrize("state,shape,limit", [
    (CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1), (9, 7), 4.0),
    (STRONG, (6, 5), 4.0),
    (STRONGEST, (5, 5), 2.3),
], ids=["sheared", "t1", "t5"])
def test_batched_grid_matches_pointwise(state, shape, limit):
    """One shared window and certificate for the grid; sheared rows need different node counts."""
    ev = ExactEvaluator(state)
    rng = np.random.default_rng(1618)
    xp = np.sort(rng.uniform(-limit, limit, shape[0]))
    xq = np.sort(rng.uniform(-limit, limit, shape[1]))
    values, flags = ev.grid(xp, xq)
    assert values.shape == flags.shape == shape
    pointwise = np.array([[complex(ev((p, q))) for q in xq] for p in xp])
    assert np.max(np.abs(values - pointwise)) < 1e-10
    # the same chords as a same-shape batch
    batch, _ = ev.evaluate(*np.meshgrid(xp, xq, indexing="ij"))
    assert batch.shape == shape
    assert np.max(np.abs(batch - values)) < 1e-10


@pytest.mark.parametrize("t", [0.1, 5.0])
def test_a_large_grid_reads_the_bits_of_its_chord_list(t):
    """A 129 x 129 grid, 16 641 chords, is past numpy's elision of
    temporaries (256 KiB): the closed form's complex products keep their
    operand order there too, so the grid, its chords as one list and as
    lists of 1 000 read the same bits."""
    state = CurveSpec(n=5, hbar=HBAR, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    ax = axis(-1.2, 1.2, 129)
    grid = evolved_chi_grid(state, ax, ax)
    xi_p, xi_q = (mesh.ravel() for mesh in np.meshgrid(ax, ax, indexing="ij"))
    ev = ExactEvaluator(state)
    listed, _ = ev.evaluate(xi_p, xi_q)
    assert grid.tobytes() == listed.tobytes()
    parts = [ev.evaluate(xi_p[lo:lo + 1000], xi_q[lo:lo + 1000])[0]
             for lo in range(0, xi_p.size, 1000)]
    assert grid.tobytes() == np.concatenate(parts).tobytes()


def test_newton_stencils_match_one_chord_calls(sheared):
    """A batch laid out as Newton's Jacobian stencils, (p +- h, q) and
    (p, q +- h) about each seed, repeats each seed's xi_p; the chords that
    share one profile row read what they read alone."""
    seeds = np.array([[0.2082, 0.0], [0.0, 0.2296], [-0.15, 0.15], [0.31, -0.07]])
    offsets = 1e-6 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    chords = (seeds[:, None, :] + offsets).reshape(-1, 2)
    assert np.unique(chords[:, 0]).size < chords.shape[0]
    values = exact._overlap(sheared, chords[:, 0], chords[:, 1], tensor=False)
    single = np.array([exact._overlap(sheared, [p], [q], tensor=False)[0] for p, q in chords])
    assert np.max(np.abs(values - single)) < 1e-14


def test_evaluate_rejects_mismatched_shapes(sheared):
    with pytest.raises(ValueError):
        ExactEvaluator(sheared).evaluate(np.zeros(3), np.zeros(4))


def test_empty_batch(sheared):
    values, flags = ExactEvaluator(sheared).evaluate(np.zeros(0), np.zeros(0))
    assert values.shape == flags.shape == (0,)
    assert evolved_chi_grid(sheared, np.zeros(0), axis(-1.0, 1.0, 3)).shape == (0, 3)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_properties(seed):
    """chi(0) = 1, chi(-xi) = chi(xi)* and |chi| <= 1 on random states and chords."""
    state = _random_state(100 + seed)
    rng = np.random.default_rng(seed)
    chords = rng.uniform(-2.0, 2.0, size=(40, 2))
    xi = np.vstack([(0.0, 0.0), chords, -chords])
    values, _ = ExactEvaluator(state).evaluate(xi[:, 0], xi[:, 1])
    assert abs(values[0] - 1.0) < 1e-10
    assert np.max(np.abs(values[1:41] - np.conj(values[41:]))) < 1e-10
    assert np.max(np.abs(values)) <= 1.0 + 1e-10


def test_strong_shear_grid_properties():
    """At t = 5 the rows need thousands of nodes; chi(0) = 1, hermiticity and |chi| <= 1 hold."""
    ev = ExactEvaluator(STRONGEST)
    rng = np.random.default_rng(55)
    xp, xq = np.sort(rng.uniform(-2.3, 2.3, size=(2, 5)), axis=1)
    # the origin shares its window and certificate with the strong rows
    values = evolved_chi_grid(STRONGEST, np.append(0.0, xp), np.append(0.0, xq))
    mirrored, _ = ev.grid(-xp, -xq)
    assert abs(values[0, 0] - 1.0) < 1e-10
    assert np.max(np.abs(mirrored - np.conj(values[1:, 1:]))) < 1e-10
    assert np.max(np.abs(values)) <= 1.0 + 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_closed_form_at_zero_shear(seed):
    rng = np.random.default_rng(500 + seed)
    n, hbar = int(rng.integers(0, 12)), float(rng.uniform(0.05, 0.2))
    state = CurveSpec(n=n, hbar=hbar, alpha=tuple(rng.uniform(-1.0, 1.0, 4)), t=0.0)
    xi_p, xi_q = rng.uniform(-2.0, 2.0, size=(2, 6, 5))
    values, _ = ExactEvaluator(state).evaluate(xi_p, xi_q)
    assert values.shape == (6, 5)
    closed = fock_chi_radial(n, hbar, np.hypot(xi_p, xi_q))
    assert np.max(np.abs(values - closed)) < 1e-10


def test_modulus_guard_raises_numerical_error(sheared, monkeypatch):
    monkeypatch.setattr("chordscan.exact.MODULUS_SLACK", -1.0)
    with pytest.raises(NumericalError, match="exceeds 1"):
        evolved_chi(sheared, (0.3, 0.2))
    with pytest.raises(NumericalError, match="exceeds 1"):
        evolved_chi_grid(sheared, axis(-0.5, 0.5, 3), axis(-0.5, 0.5, 3))


# Re chi on the xi_p = 0 row of the t = 5 state on the 21-point axis of
# [-2.3, 2.3], at xi_q = 0, 0.23, ..., 2.3, as the overlap quadrature gave it
# before Im chi was set to 0 there (the row is even in xi_q).
T5_AXIS_ROW = (1.0000000000000002, -0.0022171790728555572, -0.2456952017131549,
               0.30460262383283748, -0.17132857086593833, -0.086764959537880701,
               0.24102133150996885, -0.032949216869110787, -0.25563970647988177,
               -0.17645944008488629, -0.06026261098541906)


def test_axis_row_is_real_and_unchanged():
    """On xi_p = 0 chi is the characteristic function of |psi_n(p)|^2: Im chi
    is exactly 0 on the grid and chord-batch paths (core.real_by_symmetry),
    and Re chi keeps its earlier values."""
    ax = axis(-2.3, 2.3, 21)
    want = np.concatenate([T5_AXIS_ROW[:0:-1], T5_AXIS_ROW])
    row = scan_grid(ExactEvaluator(STRONGEST), ax, ax).values[10]
    chords, _ = ExactEvaluator(STRONGEST).evaluate(np.zeros_like(ax), ax)
    for values in (row, chords):
        assert np.all(values.imag == 0.0)
        assert np.max(np.abs(values.real - want)) < 1e-12
    # the shear leaves the momentum marginal, so the unsheared closed form holds
    assert np.max(np.abs(row.real - fock_chi_radial(5, HBAR, np.abs(ax)))) < 1e-12
