import math

import numpy as np
import pytest

from chordscan import CurveSpec, InvalidStateError

RADIUS = math.sqrt(1.1)  # n = 5 at hbar = 0.1: I = 0.55, r = sqrt(2 I)


@pytest.mark.parametrize("kwargs", [
    dict(n=-3, hbar=0.1),
    dict(n=1.5, hbar=0.1),
    dict(n=5, hbar=0.0),
    dict(n=5, hbar=-1.0),
    dict(n=5, hbar=float("nan")),
    dict(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0)),
    dict(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, float("inf"))),
    dict(n=5, hbar=0.1, t=float("inf")),
])
def test_rejects_bad_parameters(kwargs):
    with pytest.raises(InvalidStateError):
        CurveSpec(**kwargs)


def test_action_and_radius(ring):
    assert ring.action == pytest.approx(0.55)
    assert ring.radius == pytest.approx(RADIUS)


def test_hamiltonian_and_drift(sheared):
    p = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(sheared.hamiltonian(p), p + p ** 2 + p ** 3)
    np.testing.assert_allclose(sheared.drift(p), 1 + 2 * p + 3 * p ** 2)
    np.testing.assert_allclose(sheared.drift_d1(p), 2 + 6 * p)


def test_point_at_zero_angle(sheared):
    p, q = sheared.point(0.0)
    assert p == pytest.approx(RADIUS)
    # theta = 0 sits on the positive-p axis; the shear moves it by H'(r) t
    assert q == pytest.approx(sheared.drift(RADIUS) * 0.1)
    assert q == pytest.approx(0.63976176963403034, rel=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.1])
@pytest.mark.parametrize("theta", [0.0, 0.9, 2.2, 4.0, 5.7])
def test_velocity_and_acceleration_match_finite_differences(t, theta):
    curve = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    h = 1e-5
    got = np.array(curve.velocity(theta))
    fd = (np.array(curve.point(theta + h)) - np.array(curve.point(theta - h))) / (2 * h)
    np.testing.assert_allclose(got, fd, atol=5e-9)


@pytest.mark.parametrize("t", [0.0, 0.1, -0.3])
def test_enclosed_area_is_shear_invariant(t, enclosed_area):
    """The shear has unit Jacobian, so the loop keeps its area 2 pi I."""
    curve = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
    assert enclosed_area(curve) == pytest.approx(2 * math.pi * 0.55, rel=1e-11)


def test_curve_is_level_set_of_action_value(sheared):
    theta = np.linspace(0.0, 2 * np.pi, 33)
    np.testing.assert_allclose(sheared.action_value(sheared.point(theta)),
                               sheared.action, atol=1e-13)


@pytest.mark.parametrize("x", [(0.3, 0.4), (-1.0, 0.2), (0.9, -1.3)])
def test_action_gradient_matches_finite_differences(sheared, x):
    h = 1e-6
    got = sheared.action_gradient(x)
    fd_p = (sheared.action_value((x[0] + h, x[1]))
            - sheared.action_value((x[0] - h, x[1]))) / (2 * h)
    fd_q = (sheared.action_value((x[0], x[1] + h))
            - sheared.action_value((x[0], x[1] - h))) / (2 * h)
    np.testing.assert_allclose(got, (fd_p, fd_q), atol=1e-8)


@pytest.mark.parametrize("curve", [
    CurveSpec(n=5, hbar=0.1, t=0.0),
    CurveSpec(n=5, hbar=0.1, t=0.1),
    CurveSpec(n=5, hbar=0.1, t=5.0),
    CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 0.0), t=0.3),
], ids=["ring", "t0.1", "t5", "a3=0"])
def test_velocity_is_the_action_flow(curve):
    """x'(theta) = (-dI/dq, dI/dp): the parameter is the flow time of the
    action, so the realization slope h' is also the two-point bracket."""
    theta = np.linspace(0.0, 2 * np.pi, 37)
    grad_p, grad_q = curve.action_gradient(curve.point(theta))
    dp, dq = curve.velocity(theta)
    speed = np.max(np.hypot(dp, dq))
    np.testing.assert_allclose(dp, -grad_q, rtol=0.0, atol=1e-14 * speed)
    np.testing.assert_allclose(dq, grad_p, rtol=0.0, atol=1e-14 * speed)


def test_point_vectorizes(ring):
    theta = np.linspace(0, 2 * np.pi, 50)
    p, q = ring.point(theta)
    assert p.shape == q.shape == (50,)
    np.testing.assert_allclose(p ** 2 + q ** 2, RADIUS ** 2, atol=1e-12)
