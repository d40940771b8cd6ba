"""Exact reference evaluators for the chord function.

The exact chord function of the sheared number state is the overlap

    chi(xi) = \\int dp  psi_n*(p + xi_p/2)
                 exp(-(i/hbar) (t [H(p+xi_p/2) - H(p-xi_p/2)] - p xi_q))
              psi_n(p - xi_p/2),

with psi_n the momentum-representation oscillator eigenfunction. For a
cubic H the shear phase is quadratic in p, so the overlap is a Gaussian
integral of two Hermite functions with an O(n) closed form per chord
(_closed_form). That sum cancels terms that grow with |xi| / sqrt(hbar) and
with n, so each value carries a bound on its round-off, and a chord takes the
closed form only where the bound is within OVERLAP_TOL. Every other chord
(at large n most chords inside the ring, and every non-finite one) goes to
the certified overlap quadrature, _overlap: the chords of a call share one p
window and one nested trapezoid rule, run by quadrature.periodic_mean over the
window mapped onto [0, 2 pi). The integrand is entire, and past the classical
radius it decays like a Gaussian of width sqrt(hbar), to round-off inside
the window; so the rule converges geometrically and each doubling reuses
every node. A tensor grid is one (xi_p x nodes) @ (nodes x xi_q) product
per node pass, and one certificate covers the whole batch.

An accepted value depends on its chord alone; a refused one depends on the
other refused chords of its call, through the shared window and certificate.
ExactEvaluator is the core.Evaluator of the two routes: a chord batch calls
it directly, a tensor grid goes through evolved_chi_grid (the closed form
built once per xi_p row, the refused chords' rows and columns as one tensor
quadrature) and one chord through evolved_chi. Those two names stay apart
only for the benchmark's tracer, until it reads counters kept by the library
(ROADMAP item 1). fock_chi_radial is the unsheared state's Laguerre form,
which the tests and the acceptance battery use as an anchor. Grid-level
certificates (the symplectic Fourier invariance of |chi|^2 and the chord
correlation) are also implemented here because they only make sense
against the exact field.
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_laguerre

from .core import ChordValue, Evaluator, unflagged
from .curves import CurveSpec
from .quadrature import ConvergenceError, NumericalError, periodic_mean

OVERLAP_TAIL = 8.0  # p window half-width past the classical radius, in sqrt(hbar)
OVERLAP_TOL = 1e-10  # on chi: the closed form's largest accepted round-off bound, and the
# quadrature's change between successive doublings, uniform over a batch
OVERLAP_MAX_NODES = 32768  # largest trapezoid rule before ConvergenceError
BOUNDARY_TOL = 1e-8  # largest |chi|^2 on a grid edge that the certificates accept
_MODULUS_SLACK = 1e-8  # |chi| may exceed 1 only by the quadrature tolerance
ROUNDOFF_FACTOR = 8.0  # closed-form round-off, in eps per Hermite order and per unit of exponent


class GridTooSmallError(ValueError):
    """The scanned region does not contain the support of |chi|^2."""


def hermite_psi(n: int, hbar: float, p):
    """Momentum-representation oscillator eigenfunction psi_n(p).

    Evaluated through the recurrence for *normalized* Hermite functions
    h_k(u) = H_k(u) exp(-u^2/2) / sqrt(2^k k! sqrt(pi)), which keeps every
    intermediate O(1); no factorials or bare polynomial values appear. The
    Gaussian underflows harmlessly to zero far outside the classical region.

    psi_n(p) = (-i)^n hbar^(-1/4) h_n(p / sqrt(hbar)).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"need a non-negative integer index, got {n!r}")
    p = np.asarray(p, dtype=float)
    u = p / np.sqrt(hbar)
    expo = 0.5 * u * u
    gauss = np.where(expo > 700.0, 0.0, np.exp(-np.minimum(expo, 700.0)))
    h_prev = np.zeros_like(u)
    h = np.pi ** -0.25 * gauss
    for k in range(int(n)):
        h, h_prev = (np.sqrt(2.0 / (k + 1)) * u * h
                     - np.sqrt(k / (k + 1.0)) * h_prev), h
    return (-1j) ** int(n) * hbar ** -0.25 * h


def fock_chi_radial(n: int, hbar: float, rho):
    """Vectorized |xi| -> chi_n profile of the closed form.

    chi_n(xi) = exp(-|xi|^2 / 4 hbar) L_n(|xi|^2 / 2 hbar); the Laguerre
    argument |xi|^2 / 2 hbar is pinned by the t = 0 overlap quadrature.
    """
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    return np.exp(-rho2 / (4.0 * hbar)) * eval_laguerre(n, rho2 / (2.0 * hbar))


BLOCK_ELEMENTS = 2048  # chords x nodes per profile block: 16 rows of a 128-node rule


def _profile(state: CurveSpec, p, xi_p):
    """xi_q-independent factor of the integrand: rows xi_p, columns the nodes p."""
    # both shifts p +- xi_p/2 in one flat array, so psi_n and H each take one
    # pass of elementwise calls: their set-up is most of a one-chord batch
    shifted = (p + np.multiply.outer((0.5, -0.5), xi_p)[..., None]).ravel()
    psi = hermite_psi(state.n, state.hbar, shifted).reshape(2, xi_p.size, p.size)
    profile = np.conj(psi[0]) * psi[1]
    if state.t != 0.0:
        h = state.hamiltonian(shifted).reshape(psi.shape)
        profile *= np.exp(-1j / state.hbar * state.t * (h[0] - h[1]))
    return profile


def _overlap(state: CurveSpec, xi_p, xi_q, tensor: bool):
    """Certified overlap quadrature for a batch of chords.

    With ``tensor`` the chords are the grid xi_p x xi_q, of shape
    (xi_p.size, xi_q.size); otherwise xi_p[k] pairs with xi_q[k].

    The integrand is a xi_q-independent profile times the plane wave
    exp(i p xi_q / hbar). Past the classical radius r = sqrt(hbar (2n+1)) the
    Hermite functions fall like a Gaussian of width sqrt(hbar), so one window
    [-L, L), L = r + OVERLAP_TAIL sqrt(hbar) + max|xi_p| / 2, covers every
    shifted wavefunction down to a factor exp(-OVERLAP_TAIL^2 / 2) of its
    peak. All chords share the nodes and one certificate: a grid costs one
    (xi_p x nodes) @ (nodes x xi_q) product per node pass, and a chord list
    builds each distinct xi_p's profile once per pass.

    By Poisson summation an m-node rule returns the sum of chi(xi_p, xi_q + j D)
    over integers j, with D = pi hbar m / L. Doubling removes only the odd j,
    so when a j = +-2 alias of a far chord lands on the state both rules agree
    on a wrong value. The first rule is therefore the least power of two with
    D >= max|xi_q| + 4r: every alias lies 4r or more from the origin, and the
    nearest one is odd. No rule passes OVERLAP_MAX_NODES; a batch whose first
    rule leaves no room for one doubling under it raises ConvergenceError
    before any node pass.
    """
    xi_p = np.asarray(xi_p, dtype=float).ravel()
    xi_q = np.asarray(xi_q, dtype=float).ravel()
    shape = (xi_p.size, xi_q.size) if tensor else xi_p.shape
    if 0 in shape:
        return np.zeros(shape, dtype=complex)
    radius = state.radius
    half_width = radius + OVERLAP_TAIL * np.sqrt(state.hbar) + 0.5 * np.max(np.abs(xi_p))
    reach = np.max(np.abs(xi_q)) + 4.0 * radius
    # the certificate compares the first rule with its doubling
    if not np.pi * state.hbar * (OVERLAP_MAX_NODES // 2) / half_width >= reach:  # nan, overflow too
        raise ConvergenceError(
            f"overlap quadrature for |xi_p| up to {np.max(np.abs(xi_p)):g} and |xi_q| up to "
            f"{np.max(np.abs(xi_q)):g} needs more than {OVERLAP_MAX_NODES} nodes")
    n0 = 1
    while np.pi * state.hbar * n0 / half_width < reach:
        n0 *= 2
    if not tensor:
        # chords sorted by xi_p, so that a block's repeated xi_p sit together
        # and share one profile row; group[k] numbers the distinct xi_p
        order = np.argsort(xi_p, kind="stable")
        distinct, group = np.unique(xi_p[order], return_inverse=True)

    def node_sums(theta):
        p = half_width * (theta / np.pi - 1.0)
        rows = max(1, BLOCK_ELEMENTS // p.size)
        sums = np.empty(shape, dtype=complex)
        if tensor:
            wave = np.exp(1j / state.hbar * np.outer(p, xi_q))
            for lo in range(0, xi_p.size, rows):
                block = slice(lo, lo + rows)
                sums[block] = _profile(state, p, xi_p[block]) @ wave
        else:
            for lo in range(0, xi_p.size, rows):
                chords, ids = order[lo:lo + rows], group[lo:lo + rows]
                first = ids[0]
                profile = _profile(state, p, distinct[first:ids[-1] + 1])[ids - first]
                wave = np.exp(1j / state.hbar * np.outer(xi_q[chords], p))
                sums[chords] = np.einsum("kn,kn->k", profile, wave)
        return (2.0 * half_width * sums)[..., np.newaxis]

    try:
        est, _ = periodic_mean(node_sums, n0=n0, tol=OVERLAP_TOL,
                               max_doublings=(OVERLAP_MAX_NODES // n0).bit_length() - 1)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"overlap quadrature over {xi_p.size} xi_p values "
            f"(max |xi_p| {np.max(np.abs(xi_p)):g}) stalled: {err}",
            last=err.last, previous=err.previous,
        ) from err
    return est


def _closed_form(state: CurveSpec, xi_p, xi_q):
    """The overlap in closed form at the chords xi_p, xi_q broadcast together, and its round-off.

    The shear phase t [H(p + xi_p/2) - H(p - xi_p/2)] - p xi_q is quadratic
    in p, so in u = p / sqrt(hbar) the overlap is a Gaussian integral of
    h_n(u + s) h_n(u - s), and the generating function of the h_n turns it
    into an O(n) sum (Bargmann, Commun. Pure Appl. Math. 14, 1961):

        chi = c^(-n-1/2) exp(-s^2 + i phi0 - phi1^2 / 4c)
              sum_m n!/(n-m)! c^m E_m(mu+) E_m(mu-),

    s = xi_p / 2 sqrt(hbar), phi0 = -t xi_p (a1 + a3 xi_p^2 / 4) / hbar,
    phi1 = (xi_q - 2 t a2 xi_p) / sqrt(hbar), c = 1 + 3 i t a3 xi_p,
    mu+- = +-sqrt(2) s + i phi1 / (sqrt(2) c), and (m + 1) E_{m+1} =
    mu E_m + (1/c - 1) E_{m-1} from E_0 = 1, E_1 = mu. The weights are
    integers where c = 1, so chi(0) = 1 exactly. Every factor of xi_p alone
    has the shape of xi_p, so a tensor grid (xi_p as a column, xi_q as a row)
    builds it once per row, and each chord costs one complex exponential and
    the two recurrences.

    The recurrences cancel terms of size |mu| ~ |xi| / sqrt(hbar), more so as
    n grows, so each value comes with a bound on its round-off: the same
    recurrences and sum on magnitudes, times the prefactor's modulus and
    ROUNDOFF_FACTOR eps (n + 1 + s^2 + |phi0| + phi1^2 / 4|c|), the last
    terms for the exponent's own round-off. A chord whose prefactor or sum
    overflows has a bound of inf or nan.
    """
    _, a1, a2, a3 = state.alpha
    n, t, root = state.n, state.t, np.sqrt(state.hbar)
    xi_p, xi_q = np.asarray(xi_p, dtype=float), np.asarray(xi_q, dtype=float)
    with np.errstate(all="ignore"):
        # factors of xi_p alone
        s = xi_p / (2.0 * root)
        phi0 = -t * xi_p * (a1 + 0.25 * a3 * xi_p * xi_p) / state.hbar
        c = 1.0 + 3j * t * a3 * xi_p
        inv_c = 1.0 / c
        d = inv_c - 1.0
        scale = c ** -(n + 0.5)
        # factors of the chord
        phi1 = (xi_q - 2.0 * t * a2 * xi_p) / root
        nu = phi1 * (1j / np.sqrt(2.0) * inv_c)
        mu = np.empty((2,) + nu.shape, dtype=complex)
        np.add(nu, np.sqrt(2.0) * s, out=mu[0])
        np.subtract(nu, np.sqrt(2.0) * s, out=mu[1])
        prefactor = scale * np.exp((1j * phi0 - s * s) - phi1 * phi1 * (0.25 * inv_c))

        size, size_d, size_c = np.abs(mu), np.abs(d), np.abs(c)
        # E_0 = 1 and E_1 = mu; the sum starts from its m = 0 term, 1
        e_prev, e, m_e_prev, m_e = 1.0, mu, 1.0, size
        total = m_total = weight = m_weight = 1.0
        for m in range(1, n + 1):
            weight, m_weight = weight * (c * (n + 1 - m)), m_weight * (size_c * (n + 1 - m))
            total = total + weight * (e[0] * e[1])
            m_total = m_total + m_weight * (m_e[0] * m_e[1])
            if m < n:
                step = 1.0 / (m + 1)
                e, e_prev = (mu * e + d * e_prev) * step, e
                m_e, m_e_prev = (size * m_e + size_d * m_e_prev) * step, m_e
        phase_size = s * s + np.abs(phi0) + phi1 * phi1 / (4.0 * size_c)
        bound = (np.abs(prefactor) * m_total
                 * (ROUNDOFF_FACTOR * np.finfo(float).eps * (n + 1.0 + phase_size)))
        return prefactor * total, bound


def _certified(state: CurveSpec, xi_p, xi_q):
    """Closed-form values at chords broadcast from xi_p and xi_q, and where their bound refuses them.

    A chord is refused when its round-off bound exceeds OVERLAP_TOL, the
    quadrature's own tolerance, or is not finite, or its value is not finite.
    """
    values, bound = _closed_form(state, xi_p, xi_q)
    return values, ~((bound <= OVERLAP_TOL) & np.isfinite(values))


def _modulus_checked(values):
    peak = np.max(np.abs(values), initial=0.0)
    if peak > 1.0 + _MODULUS_SLACK:
        raise NumericalError(f"max |chi| = {peak} exceeds 1: the exact route is inconsistent")
    return values


def _exact_chords(state: CurveSpec, xi_p, xi_q):
    """Chord-list kernel: the closed form, and the quadrature for the chords it refuses."""
    values, refused = _certified(state, xi_p, xi_q)
    if refused.any():
        values[refused] = _overlap(state, xi_p[refused], xi_q[refused], tensor=False)
    return _modulus_checked(values)


def evolved_chi(state: CurveSpec, xi) -> ChordValue:
    """Chord function of the sheared number state at one chord: a batch of one."""
    values, _ = ExactEvaluator(state).evaluate(xi[0], xi[1])
    return ChordValue(complex(values))


def evolved_chi_grid(state: CurveSpec, xi_p_axis, xi_q_axis) -> np.ndarray:
    """Chord-function values on the tensor grid xi_p_axis x xi_q_axis.

    The closed form takes every chord its bound accepts. The refused chords
    go to one tensor quadrature over the rows and columns that hold them.
    """
    xi_p_axis = np.asarray(xi_p_axis, dtype=float).ravel()
    xi_q_axis = np.asarray(xi_q_axis, dtype=float).ravel()
    values, refused = _certified(state, xi_p_axis[:, np.newaxis], xi_q_axis)
    if refused.any():
        rows, cols = refused.any(axis=1), refused.any(axis=0)
        block = np.ix_(rows, cols)
        quadrature = _overlap(state, xi_p_axis[rows], xi_q_axis[cols], tensor=True)
        values[block] = np.where(refused[block], quadrature, values[block])
    return _modulus_checked(values)


class ExactEvaluator(Evaluator):
    """The exact chord function as an evaluator of ``state``.

    A chord batch takes one ``_exact_chords`` call and a tensor grid one
    evolved_chi_grid call; a single chord goes through evolved_chi. Every
    value is flagged OK.
    """

    def __init__(self, state: CurveSpec):
        super().__init__(
            "exact", state,
            lambda xi_p, xi_q: unflagged(_exact_chords(state, xi_p, xi_q)),
            lambda xi_p_axis, xi_q_axis: unflagged(evolved_chi_grid(state, xi_p_axis, xi_q_axis)))

    def __call__(self, xi) -> ChordValue:
        return evolved_chi(self.state, xi)


# -- grid-level certificates ---------------------------------------------


def _symplectic_dft(g, xi_p_axis, xi_q_axis, hbar: float, sign: int):
    """Discrete F[g](xi) = (1/2 pi hbar) \\int d^2 eta g(eta) e^{sign i xi∧eta / hbar}.

    The kernel separates, exp(sign*i xi_p eta_q / hbar) * exp(-sign*i xi_q
    eta_p / hbar), so the double Riemann sum is two dense matrix products;
    output lands on the input grid. Exact for any centered grid, no
    reciprocal-grid constraint.
    """
    xi_p_axis = np.asarray(xi_p_axis, dtype=float)
    xi_q_axis = np.asarray(xi_q_axis, dtype=float)
    dp = xi_p_axis[1] - xi_p_axis[0]
    dq = xi_q_axis[1] - xi_q_axis[0]
    kernel = np.exp(sign * 1j / hbar * np.outer(xi_p_axis, xi_q_axis))
    scale = dp * dq / (2.0 * np.pi * hbar)
    # F[a, b] = scale * sum_{m,n} kernel[a, n] g[m, n] conj(kernel)[m, b]
    return scale * (kernel @ g.T @ np.conj(kernel))


def _require_contained(abs2):
    edge = max(abs2[0, :].max(), abs2[-1, :].max(), abs2[:, 0].max(), abs2[:, -1].max())
    if edge > BOUNDARY_TOL:
        raise GridTooSmallError(
            f"grid too small: |chi|^2 reaches {edge:.3e} on the boundary "
            f"(tolerance {BOUNDARY_TOL:g}); enlarge the region")


def fourier_invariance_residual(grid) -> float:
    """Relative L2 defect of the self-reciprocity of |chi|^2.

    For a pure state, |chi|^2 is its own symplectic Fourier transform; the
    residual ||F[|chi|^2] - |chi|^2|| / |||chi|^2|| is a purity certificate
    for the scanned field (shape only; the normalization certificate is
    correlation_C at xi = 0).
    """
    abs2 = np.abs(grid.values) ** 2
    _require_contained(abs2)
    transformed = _symplectic_dft(abs2, grid.xi_p_axis, grid.xi_q_axis,
                                  grid.hbar, sign=+1)
    return float(np.linalg.norm(transformed - abs2) / np.linalg.norm(abs2))


def correlation_C(grid) -> np.ndarray:
    """Chord autocorrelation C(xi) = (1/2 pi hbar) \\int d^2 eta |chi(eta)|^2 e^{-i xi∧eta / hbar}.

    Real and even; C(0) equals the state purity (1 for a normalized pure
    field). For a pure state C coincides with |chi|^2 pointwise.
    """
    abs2 = np.abs(grid.values) ** 2
    _require_contained(abs2)
    c = _symplectic_dft(abs2, grid.xi_p_axis, grid.xi_q_axis, grid.hbar, sign=-1)
    imag_peak = np.max(np.abs(c.imag))
    scale = max(np.max(np.abs(c.real)), 1e-300)
    if imag_peak > 1e-9 * scale:
        raise NumericalError(f"correlation came out non-real (max imag {imag_peak:.3e})")
    return c.real
