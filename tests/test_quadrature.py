import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss as numpy_leggauss

from chordscan.quadrature import (_STENCILS, ConvergenceError, NumericalError, _gl_nodes,
                                  periodic_mean, richardson_derivative)


@pytest.mark.parametrize("n", [8, 128, 150, 151, 512, 1024])
def test_gl_nodes_match_numpy_leggauss(n):
    x, w = _gl_nodes(n)
    x_ref, w_ref = numpy_leggauss(n)
    assert np.max(np.abs(x - x_ref)) < 1e-13
    assert np.max(np.abs(w - w_ref)) < 1e-13
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n", [2048, 4096])
def test_gl_nodes_integrate_even_powers(n):
    """n nodes integrate x^m exactly for m < 2n; even powers carry the weights."""
    x, w = _gl_nodes(n)
    for k in range(0, 200, 7):
        assert abs(math.fsum(w * x ** (2 * k)) - 2.0 / (2 * k + 1)) < 1e-12
    assert abs(math.fsum(w * x ** 3)) < 1e-15


def test_convergence_error_is_a_numerical_error():
    assert issubclass(ConvergenceError, NumericalError)
    assert issubclass(NumericalError, RuntimeError)


def test_periodic_mean_trig_polynomial():
    """Trapezoid doubling is exact (to roundoff) for low trig polynomials."""
    mean, nodes = periodic_mean(lambda t: np.cos(t) ** 2 + 3.0, n0=64, tol=1e-13,
                                max_doublings=14)
    assert mean.real == pytest.approx(3.5, abs=1e-13)
    assert mean.imag == pytest.approx(0.0, abs=1e-15)
    assert nodes >= 64


def test_periodic_mean_stacked():
    mean, _ = periodic_mean(lambda t: np.stack([np.sin(t) ** 2, np.cos(4 * t)]),
                            n0=64, tol=1e-13, max_doublings=14)
    np.testing.assert_allclose(mean.real, [0.5, 0.0], atol=1e-13)


def test_periodic_mean_budget_exhaustion():
    with pytest.raises(ConvergenceError) as err:
        periodic_mean(np.cos, n0=64, tol=0.0, max_doublings=2)
    # the failed certificate still reports its last two estimates
    assert err.value.last is not None
    assert err.value.previous is not None


@pytest.mark.parametrize("order,tol,accuracy", [
    (1, 1e-9, 5e-9), (2, 1e-9, 5e-8),
])
def test_richardson_derivative_exp(order, tol, accuracy):
    calls = []

    def f(s):
        calls.append(s.shape)
        return np.exp(s)

    d, err = richardson_derivative(f, order=order, h0=0.4, tol=tol)
    assert d == pytest.approx(1.0, abs=accuracy)
    assert err < 10 * tol
    # one call on every level's stencil, early exit or not
    assert calls == [(6, len(_STENCILS[order]))]


def test_richardson_derivative_complex():
    d, _ = richardson_derivative(lambda x: np.exp(2j * x), order=2, h0=0.3,
                                 tol=1e-9)
    assert d == pytest.approx(-4.0, abs=1e-7)


def test_richardson_unsupported_order():
    for order in (0, 3):
        with pytest.raises(ValueError, match="not supported"):
            richardson_derivative(np.exp, order=order, h0=0.1, tol=1e-8)


def test_richardson_budget_exhaustion():
    with pytest.raises(ConvergenceError):
        richardson_derivative(np.exp, order=1, h0=0.1, tol=0.0)
