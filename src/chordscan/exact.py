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
(at large n most chords inside the ring, and every overflowing one) goes to
the certified overlap quadrature, _overlap: the chords of a call share one p
window and one nested trapezoid rule, run by quadrature.periodic_mean over the
window mapped onto [0, 2 pi). The integrand is entire, and past the classical
radius it decays like a Gaussian of width sqrt(hbar), to round-off inside
the window; so the rule converges geometrically and each doubling reuses
every node. A tensor grid is one (xi_p x nodes) @ (nodes x xi_q) product
per node pass, and one certificate covers the whole batch.

An accepted value depends on its chord alone; a refused one depends on the
other refused chords of its call, through the shared window and certificate.
ExactEvaluator is the core.Evaluator of the two routes. One kernel, _exact,
serves its chord lists and tensor grids alike: the closed form (built once
per xi_p row of a grid), the refusal rule, one quadrature for the refused
chords and the |chi| check. A grid goes through evolved_chi_grid and one
chord through evolved_chi, names kept apart only for the benchmark's tracer
until it reads counters kept by the library (ROADMAP item 1). fock_chi_radial
and nodal_radii are the ring's Laguerre profile and the radii of its zeros,
polished in 40-digit decimal: anchors of the tests and the verify battery,
and the nodal set when alpha3 t = 0.
Grid-level certificates (the symplectic Fourier invariance of |chi|^2 and the
chord correlation) are also implemented here because they only make sense
against the exact field.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
from numpy.polynomial.laguerre import lagroots

from .core import ChordValue, Evaluator, refuse_non_finite, unflagged
from .curves import CurveSpec
from .quadrature import ConvergenceError, NumericalError, periodic_mean

OVERLAP_TAIL = 8.0  # p window half-width past the classical radius, in sqrt(hbar)
OVERLAP_TOL = 1e-10  # on chi: the closed form's largest accepted round-off bound, and the
# quadrature's change between successive doublings, uniform over a batch
OVERLAP_MAX_NODES = 32768  # largest trapezoid rule before ConvergenceError
BOUNDARY_TOL = 1e-8  # largest |chi|^2 on a grid edge that the certificates accept
MODULUS_SLACK = 1e-8  # how far an exact or taylor:K |chi| may exceed 1 before NumericalError
ROUNDOFF_FACTOR = 8.0  # closed-form round-off, in eps per Hermite order and per unit of exponent
_EPS = float(np.finfo(float).eps)  # looked up once, not per batch


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
    from scipy.special import eval_laguerre  # off the CLI's import path

    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    return np.exp(-rho2 / (4.0 * hbar)) * eval_laguerre(n, rho2 / (2.0 * hbar))


def nodal_radii(n: int, hbar: float) -> np.ndarray:
    """The n radii sqrt(2 hbar x_k) of the zeros of fock_chi_radial, ascending.

    numpy's lagroots takes the zeros x_k of L_n as companion-matrix
    eigenvalues, which are off by up to 1.7e-12 relative at n = 160. Two
    Newton steps x - x L_n / n (L_n - L_{n-1}), each on the recurrence
    (k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1} in 40-digit decimal and
    rounded once, put each on its zero to the last bit or so.
    """
    x = np.sort(lagroots([0.0] * n + [1.0])).tolist()
    with localcontext() as context:
        context.prec = 40
        for _ in range(2):
            for i, root in enumerate(map(Decimal, x)):
                previous, value = Decimal(1), 1 - root
                for k in range(1, n):
                    previous, value = value, ((2 * k + 1 - root) * value - k * previous) / (k + 1)
                x[i] = float(root - root * value / (n * (value - previous)))
    return np.sqrt(2.0 * hbar * np.array(x))


BLOCK_ELEMENTS = 2048  # chords x nodes per profile block: 16 rows of a 128-node rule


def _profile(state: CurveSpec, p, xi_p):
    """xi_q-independent factor of the integrand: rows xi_p, columns the nodes p."""
    # both shifts p +- xi_p/2 in one flat array, so psi_n takes one pass of
    # elementwise calls: its set-up is most of a one-chord batch
    shifted = (p + np.multiply.outer((0.5, -0.5), xi_p)[..., None]).ravel()
    psi = hermite_psi(state.n, state.hbar, shifted).reshape(2, xi_p.size, p.size)
    profile = np.conj(psi[0]) * psi[1]
    if state.t != 0.0:
        # H(p + xi_p/2) - H(p - xi_p/2) in closed form, as _closed_form has
        # it: alpha0 is a global phase and must not enter even by round-off
        _, a1, a2, a3 = state.alpha
        x = xi_p[:, None]
        dh = x * (a1 + 2.0 * a2 * p + a3 * (3.0 * p * p + 0.25 * x * x))
        profile *= np.exp(-1j / state.hbar * state.t * dh)
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
    recurrences and sum on magnitudes (_magnitude_sum), times the
    prefactor's modulus and ROUNDOFF_FACTOR eps (n + 1 + s^2 + |phi0| +
    phi1^2 / 4|c|), the last terms for the exponent's own round-off. The sum
    on magnitudes is first taken once, at the batch's largest |mu+|, |mu-|,
    |d| and |c|: a majorant of every chord's. When the bound it gives is
    within OVERLAP_TOL at every chord, it is the batch's bound; otherwise
    each chord's own sum is. Either way a chord's bound is at least the one
    it has alone, and it is refused exactly when it is alone. A chord whose
    prefactor or sum overflows has a bound of inf or nan.
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
        # complex products whose second operand is a temporary are explicit
        # ufunc calls: on a batch of 256 KiB or more numpy would otherwise
        # reuse the temporary as the output and swap the operands, and a
        # complex product is not bitwise commutative, so a chord's bits would
        # depend on the size of its batch
        prefactor = np.multiply(scale, np.exp((1j * phi0 - s * s) - phi1 * phi1 * (0.25 * inv_c)))

        # E_0 = 1 and E_1 = mu; the sum starts from its m = 0 term, 1
        e_prev, e = 1.0, mu
        total = weight = 1.0
        for m in range(1, n + 1):
            weight = np.multiply(weight, c * (n + 1 - m))
            total = total + np.multiply(weight, e[0] * e[1])
            if m < n:
                e, e_prev = (mu * e + d * e_prev) * (1.0 / (m + 1)), e
        size, size_d, size_c = np.abs(mu), np.abs(d), np.abs(c)
        phase_size = s * s + np.abs(phi0) + phi1 * phi1 / (4.0 * size_c)
        modulus = np.abs(prefactor)
        roundoff = ROUNDOFF_FACTOR * _EPS * (n + 1.0 + phase_size)
        # the magnitude sum grows with each of its sizes and rounding is
        # monotone, so its value at the batch's largest sizes bounds every
        # chord's; where that bounds every chord within OVERLAP_TOL, it is
        # the batch's bound, and each chord's own sum is not needed
        largest = size.reshape(2, -1).max(axis=1, initial=0.0).tolist()
        bound = modulus * _magnitude_sum(n, *largest, float(size_d.max(initial=0.0)),
                                         float(size_c.max(initial=0.0))) * roundoff
        if not np.all(bound <= OVERLAP_TOL):
            bound = modulus * _magnitude_sum(n, size[0], size[1], size_d, size_c) * roundoff
        return prefactor * total, bound


def _magnitude_sum(n: int, size_plus, size_minus, size_d, size_c):
    """_closed_form's sum on magnitudes: its recurrences and sum with mu+-,
    d and c replaced by their moduli, elementwise on arrays or on floats.

    Every operation is monotone in its operands, all of them non-negative,
    so larger sizes give a sum at least as large, in floating point too.
    """
    # M_0 = 1 and M_1 = |mu|; the sum starts from its m = 0 term, 1
    plus_prev, plus, minus_prev, minus = 1.0, size_plus, 1.0, size_minus
    total = weight = 1.0
    for m in range(1, n + 1):
        weight = weight * (size_c * (n + 1 - m))
        total = total + weight * (plus * minus)
        if m < n:
            step = 1.0 / (m + 1)
            plus, plus_prev = (size_plus * plus + size_d * plus_prev) * step, plus
            minus, minus_prev = (size_minus * minus + size_d * minus_prev) * step, minus
    return total


def _exact(state: CurveSpec, xi_p, xi_q):
    """The exact chord function at a chord list or a tensor grid.

    The chords are two 1-d arrays paired elementwise, or xi_p as a column
    and xi_q as a row. The closed form takes each chord whose round-off bound
    is within OVERLAP_TOL, the quadrature's own tolerance, and whose value is
    finite. A list's refused chords go to one chord-list quadrature; a grid's
    go to one tensor quadrature over the rows and columns that hold them. A
    |chi| above 1 + MODULUS_SLACK raises NumericalError.
    """
    values, bound = _closed_form(state, xi_p, xi_q)
    refused = ~((bound <= OVERLAP_TOL) & np.isfinite(values))
    if refused.any():
        if refused.ndim == 1:
            values[refused] = _overlap(state, xi_p[refused], xi_q[refused], tensor=False)
        else:
            rows, cols = refused.any(axis=1), refused.any(axis=0)
            block = np.ix_(rows, cols)
            quadrature = _overlap(state, xi_p[rows], xi_q[cols], tensor=True)
            values[block] = np.where(refused[block], quadrature, values[block])
    peak = np.max(np.abs(values), initial=0.0)
    if peak > 1.0 + MODULUS_SLACK:
        raise NumericalError(f"max |chi| = {peak} exceeds 1: the exact route is inconsistent")
    return values


def evolved_chi(state: CurveSpec, xi) -> ChordValue:
    """Chord function of the sheared number state at one chord: a batch of one."""
    values, _ = ExactEvaluator(state).evaluate(xi[0], xi[1])
    return ChordValue(complex(values))


def evolved_chi_grid(state: CurveSpec, xi_p_axis, xi_q_axis) -> np.ndarray:
    """Chord-function values on the tensor grid xi_p_axis x xi_q_axis. A
    non-finite chord is a ValueError (core.refuse_non_finite), as in evaluate."""
    xi_p = np.asarray(xi_p_axis, dtype=float).reshape(-1, 1)
    xi_q = np.asarray(xi_q_axis, dtype=float).ravel()
    refuse_non_finite(xi_p, xi_q)
    return _exact(state, xi_p, xi_q)


class ExactEvaluator(Evaluator):
    """The exact chord function as an evaluator of ``state``.

    A chord batch and a tensor grid (through evolved_chi_grid) each take one
    _exact call; a single chord goes through evolved_chi. Every value is
    flagged OK.
    """

    def __init__(self, state: CurveSpec):
        super().__init__(
            "exact", state,
            lambda xi_p, xi_q: unflagged(_exact(state, xi_p, xi_q)),
            lambda xi_p_axis, xi_q_axis: unflagged(evolved_chi_grid(state, xi_p_axis, xi_q_axis)))

    def __call__(self, xi) -> ChordValue:
        return evolved_chi(self.state, xi)


# -- grid-level certificates ---------------------------------------------


def _symplectic_dft(g, xi_p_axis, xi_q_axis, hbar: float):
    """Discrete F[g](xi) = (1/2 pi hbar) \\int d^2 eta g(eta) e^{-i xi∧eta / hbar}.

    The kernel separates, exp(-i xi_p eta_q / hbar) * exp(i xi_q eta_p / hbar),
    so the double Riemann sum is two dense matrix products; output lands on
    the input grid. Exact for any centered grid, no reciprocal-grid constraint.

    When both axes are exactly antisymmetric and g is exactly even under
    (m, n) -> (-m, -n), as |chi|^2 of every scan_grid field is, F[g] is real
    and even, the same for either sign of the kernel. g then folds onto the
    non-negative quadrant as its even-even part G_ee and odd-odd part G_oo
    (the centre row and column of an odd axis taken once), and with C and S
    the cosine and sine of h_p (x) h_q / hbar on the non-negative half-axes,
    F is scale (C G_ee^T C + S G_oo^T S) on the (+,+) and (-,-) quadrants and
    scale (C G_ee^T C - S G_oo^T S) on the mixed ones: four real GEMMs of a
    quarter of the grid, a real array. Any other input takes the complex
    products, and its result is complex.
    """
    scale = (xi_p_axis[1] - xi_p_axis[0]) * (xi_q_axis[1] - xi_q_axis[0]) / (2.0 * np.pi * hbar)
    if (all(np.array_equal(a, -a[::-1]) for a in (xi_p_axis, xi_q_axis))
            and np.array_equal(g, g[::-1, ::-1])):
        lp, lq = xi_p_axis.size // 2, xi_q_axis.size // 2  # the first samples >= 0
        upper, lower = g[lp:, lq:], g[::-1][lp:, lq:]  # g(h_p, h_q) and g(-h_p, h_q)
        even, odd = 2.0 * (upper + lower), 2.0 * (upper - lower)
        # an odd axis's zero sample is its own mirror, so even counts it once;
        # in odd it meets sin 0 = 0
        even[:xi_p_axis.size % 2] *= 0.5
        even[:, :xi_q_axis.size % 2] *= 0.5
        phase = np.outer(xi_p_axis[lp:], xi_q_axis[lq:]) / hbar
        cos, sin = np.cos(phase), np.sin(phase)
        cc, ss = cos @ even.T @ cos, sin @ odd.T @ sin
        out = np.empty(g.shape)
        out[lp:, lq:] = out[::-1, ::-1][lp:, lq:] = scale * (cc + ss)
        out[::-1][lp:, lq:] = out[:, ::-1][lp:, lq:] = scale * (cc - ss)
        return out
    kernel = np.exp(-1j / hbar * np.outer(xi_p_axis, xi_q_axis))
    # F[a, b] = scale * sum_{m,n} kernel[a, n] g[m, n] conj(kernel)[m, b]
    return scale * (kernel @ g.T @ np.conj(kernel))


def _chord_correlation(grid):
    """|chi|^2 of a contained grid field and its chord correlation C, from one transform."""
    abs2 = np.abs(grid.values) ** 2
    edge = max(abs2[0, :].max(), abs2[-1, :].max(), abs2[:, 0].max(), abs2[:, -1].max())
    if edge > BOUNDARY_TOL:
        raise GridTooSmallError(
            f"grid too small: |chi|^2 reaches {edge:.3e} on the boundary "
            f"(tolerance {BOUNDARY_TOL:g}); enlarge the region")
    c = _symplectic_dft(abs2, grid.xi_p_axis, grid.xi_q_axis, grid.hbar)
    imag_peak = np.max(np.abs(c.imag))
    if imag_peak > 1e-9 * max(np.max(np.abs(c.real)), 1e-300):
        raise NumericalError(f"correlation came out non-real (max imag {imag_peak:.3e})")
    return abs2, c.real


def fourier_invariance_residual(grid) -> float:
    """Relative L2 defect of the self-reciprocity of |chi|^2.

    For a pure state, |chi|^2 is its own symplectic Fourier transform, the
    chord correlation C of correlation_C; the residual ||C - |chi|^2|| /
    |||chi|^2||, read off the same transform, is a purity certificate for the
    scanned field (shape only; the normalization certificate is C at xi = 0)
    and refuses every field that correlation_C refuses.
    """
    return _invariance_residual(*_chord_correlation(grid))


def _invariance_residual(abs2, c) -> float:
    """||C - |chi|^2|| / |||chi|^2||, from _chord_correlation's pair."""
    return float(np.linalg.norm(c - abs2) / np.linalg.norm(abs2))


def correlation_C(grid) -> np.ndarray:
    """Chord autocorrelation C(xi) = (1/2 pi hbar) \\int d^2 eta |chi(eta)|^2 e^{-i xi∧eta / hbar}.

    Real and even; C(0) equals the state purity (1 for a normalized pure
    field). For a pure state C coincides with |chi|^2 pointwise. On a
    scan_grid field (antisymmetric axes, |chi|^2 even) _symplectic_dft's
    fold makes C real and even by construction; on any other grid the
    complex products run, and an imaginary part above 1e-9 of max |C|
    raises NumericalError.
    """
    return _chord_correlation(grid)[1]
