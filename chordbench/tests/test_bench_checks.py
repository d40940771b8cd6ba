"""Each output check passes a right field and rejects a wrong one.

The right fields come from ``reference`` (closed forms and the benchmark's
own quadrature); the wrong ones are the same fields conjugated, rescaled
or shifted by a grid step.

    python3 -m pytest chordbench/tests
"""

import math

import numpy as np
import pytest

import checks
import reference as ref

HBAR = 0.1
ALPHA = (0.0, 1.0, 1.0, 1.0)


def symmetric_axis(half, count):
    m = 0.5 * (count - 1)
    return half * (np.arange(count) - m) / m


@pytest.fixture(scope="module")
def ring():
    ax = symmetric_axis(1.75, 41)
    rho = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
    return ax, ref.ring_chi(5, HBAR, rho).astype(complex)


@pytest.fixture(scope="module")
def sheared():
    ax = symmetric_axis(2.3, 21)
    values = np.array([[ref.overlap_chi(5, HBAR, ALPHA, 0.1, (p, q)) for q in ax] for p in ax])
    return ax, values


def shifted(values):
    return np.roll(values, 1, axis=0)


def test_reference_quadrature_matches_ring_closed_form():
    for xi in [(0.3, -0.2), (1.1, 0.4), (-0.05, 1.7)]:
        closed = ref.ring_chi(5, HBAR, math.hypot(*xi))
        assert abs(ref.overlap_chi(5, HBAR, ALPHA, 0.0, xi) - closed) < 1e-12


def test_ladder_and_node_radii():
    m = ref.ladder_moments(5, HBAR, ALPHA, 0.1)
    assert m["p2"] == pytest.approx(0.55) and m["mean_q"] == pytest.approx(0.265)
    radii = ref.ring_node_radii(5, HBAR)
    assert np.max(np.abs(ref.ring_chi(5, HBAR, radii))) < 1e-12


def test_ring_closed_form(ring):
    ax, v = ring
    assert checks.ring_closed_form(ax, ax, v, 5, HBAR) == []
    assert checks.ring_closed_form(ax, ax, 0.99 * v, 5, HBAR)
    assert checks.ring_closed_form(ax, ax, shifted(v), 5, HBAR)


def test_origin_and_bound(ring):
    ax, v = ring
    assert checks.unit_at_origin(ax, ax, v) == [] and checks.bounded_by_one(v) == []
    assert checks.unit_at_origin(ax, ax, 0.99 * v)
    assert checks.bounded_by_one(1.01 * v)
    assert checks.unit_at_origin(ax + 0.01, ax, v)  # no sample at the origin


def test_hermitian(sheared):
    ax, v = sheared
    assert checks.hermitian(ax, ax, v, 1e-9) == []
    assert checks.hermitian(ax, ax, shifted(v), 1e-9)
    assert checks.hermitian(ax, ax + 0.01, v, 1e-9)  # asymmetric axis


def test_probes(sheared):
    ax, v = sheared
    idx = np.array([[3, 17], [10, 10], [15, 2], [7, 12]])
    expected = v[idx[:, 0], idx[:, 1]].copy()
    assert checks.probes(ax, ax, v, idx, expected) == []
    assert checks.probes(ax, ax, np.conj(v), idx, expected)
    assert checks.probes(ax, ax, 1.001 * v, idx, expected)
    assert checks.probes(ax, ax, shifted(v), idx, expected)


def test_normalization():
    ax = symmetric_axis(3.2, 161)
    v = ref.ring_chi(5, HBAR, np.hypot(*np.meshgrid(ax, ax, indexing="ij")))
    assert checks.normalization(ax, ax, v, HBAR) == []
    assert checks.normalization(ax, ax, 0.999 * v, HBAR)


def test_purity_certificates(ring):
    _, v = ring
    corr = np.abs(v) ** 2
    assert checks.purity_certificates(v, 1e-9, corr) == []
    assert checks.purity_certificates(v, 1e-3, corr)
    assert checks.purity_certificates(v, 1e-9, 0.99 * corr)
    assert checks.purity_certificates(v, 1e-9, shifted(corr))


def circle(radius, count=200):
    theta = np.linspace(0.0, 2.0 * np.pi, count)
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def test_nodal_rings():
    radii = ref.ring_node_radii(5, HBAR)
    cell = 0.02
    good = [(circle(r), True) for r in radii]
    assert checks.nodal_rings(good + [(circle(2.0)[:50], False)], 5, HBAR, cell) == []
    assert checks.nodal_rings([(circle(1.01 * r), True) for r in radii], 5, HBAR, cell)
    assert checks.nodal_rings([(circle(r + cell), True) for r in radii], 5, HBAR, cell)
    assert checks.nodal_rings(good[:4], 5, HBAR, cell)


def test_long_chords_evanescent():
    ax = symmetric_axis(2.3, 41)
    diameter = ref.curve_diameter(5, HBAR, ALPHA, 0.1)
    length = np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
    flags = np.where(length > diameter, "evanescent", "ok")
    assert checks.long_chords_evanescent(ax, ax, flags, diameter) == []
    assert checks.long_chords_evanescent(ax, ax, np.roll(flags, 3, axis=0), diameter)
    assert checks.long_chords_evanescent(ax, ax, np.full(flags.shape, "ok"), diameter)
    assert checks.long_chords_evanescent(0.5 * ax, 0.5 * ax, flags, diameter)  # vacuous


@pytest.fixture(scope="module")
def cut():
    u = np.array([0.8172, 1.0]) / math.hypot(0.8172, 1.0)
    s = np.linspace(0.0, 2.3, 401)
    abs2 = np.array([abs(ref.overlap_chi(5, HBAR, ALPHA, 0.1, x * u)) ** 2 for x in s])
    return s, abs2


def test_cut_agreement(cut):
    s, a = cut
    ok = np.full(s.shape, "ok")
    assert checks.cut_agreement(s, a, a, ok) == []
    assert checks.cut_agreement(s, a, 1.1 * a, ok)
    assert checks.cut_agreement(s, a, np.roll(a, 3), ok)
    # near-caustic samples are excluded from the comparison
    flags = np.where(s > 1.0, "near_caustic", "ok")
    assert checks.cut_agreement(s, a, np.where(s > 1.0, 0.0, a), flags) == []


def test_cut_start_and_probes(cut):
    s, a = cut
    values = np.sqrt(a).astype(complex)  # |chi| stands in for chi along the cut
    idx = np.array([0, 57, 200, 333])
    assert checks.cut_starts_at_one(s, values) == []
    assert checks.cut_starts_at_one(s, 0.99 * values)
    assert checks.cut_starts_at_one(s[1:], values[1:])
    assert checks.cut_probes(values, idx, values[idx]) == []
    assert checks.cut_probes(np.conj(1j * values), idx, 1j * values[idx])
    assert checks.cut_probes(1.001 * values, idx, values[idx])
    assert checks.cut_probes(np.roll(values, 1), idx, values[idx])


def test_moments_and_estimate():
    expected = ref.ladder_moments(5, HBAR, ALPHA, 0.1)
    report = {"moments": dict(expected), "estimate_radius": math.sqrt(2 * HBAR ** 2 / 0.55)}
    assert checks.moments(report, expected) == []
    assert checks.estimate_radius(report, HBAR, expected["p2"]) == []
    wrong = {"moments": {**expected, "p2": 1.01 * expected["p2"]}}
    assert checks.moments(wrong, expected)
    assert checks.moments({"moments": {**expected, "mean_p": 1e-6}}, expected)
    assert checks.estimate_radius({"estimate_radius": 0.2}, HBAR, expected["p2"])
    assert checks.estimate_radius({}, HBAR, expected["p2"])


def ring_function(xi):
    return complex(ref.ring_chi(5, HBAR, math.hypot(xi[0], xi[1])))


def test_spots():
    r1 = ref.ring_node_radii(5, HBAR)[0]
    spots = [(r1, 0.0), (-r1, 0.0), (0.0, r1), (0.0, -r1)]
    assert checks.spots_are_zeros(spots, ring_function) == []
    assert checks.spots_paired(spots) == []
    assert checks.spots_are_zeros([(r1 + 1e-3, 0.0)], ring_function)
    assert checks.spots_are_zeros([], ring_function)
    assert checks.spots_paired(spots[:3])
    assert checks.spots_paired([(x + 1e-4, y) for x, y in spots])


def test_ray_zero():
    r1 = ref.ring_node_radii(5, HBAR)[0]
    assert checks.ray_zero(r1, (0.0, 1.0), ring_function, estimate=0.83 * r1) == []
    assert checks.ray_zero(r1 * 1.001, (0.0, 1.0), ring_function)
    assert checks.ray_zero(r1, (0.0, 1.0), ring_function, estimate=0.9 * r1)
