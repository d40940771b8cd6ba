import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from chordscan.core import (FLAG_CODES, FLAGS_BY_CODE, Chord, ChordValue, Flag, two_product,
                            veltkamp_split, wedge, worst_flag, worst_flag_codes)


def test_wedge_antisymmetric():
    a, b = (1.3, -0.7), (0.2, 2.5)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a) == 0.0


def test_wedge_value():
    # (p, q) ordering: a ∧ b = a_p b_q - a_q b_p
    assert wedge((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert wedge((2.0, 3.0), (5.0, 7.0)) == pytest.approx(2 * 7 - 3 * 5)


def test_wedge_broadcasts():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 40))
    b = rng.normal(size=(2, 40))
    got = wedge(a, b)
    assert got.shape == (40,)
    np.testing.assert_allclose(got, a[0] * b[1] - a[1] * b[0])


def test_chord_norm():
    assert Chord(3.0, 4.0).norm == pytest.approx(5.0)


def test_chord_value_components():
    cv = ChordValue(0.25 - 0.5j)
    assert cv.c == 0.25          # even (cosine) part
    assert cv.s == -0.5          # odd (sine) part
    assert complex(cv) == 0.25 - 0.5j
    assert cv.flag is Flag.OK


@pytest.mark.parametrize("flags,expected", [
    ((Flag.OK,), Flag.OK),
    ((Flag.OK, Flag.EVANESCENT), Flag.EVANESCENT),
    ((Flag.EVANESCENT, Flag.NEAR_CAUSTIC, Flag.OK), Flag.NEAR_CAUSTIC),
])
def test_worst_flag(flags, expected):
    assert worst_flag(*flags) is expected


def test_worst_flag_codes_is_elementwise_worst_flag():
    a, b = np.meshgrid(list(FLAGS_BY_CODE), list(FLAGS_BY_CODE))
    got = worst_flag_codes(a, b)
    want = [[FLAG_CODES[worst_flag(FLAGS_BY_CODE[x], FLAGS_BY_CODE[y])] for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]
    np.testing.assert_array_equal(got, want)


def _doubles(rng, size, exponents):
    """Doubles of random sign, mantissa in [1, 2) and binary exponent in ``exponents``."""
    lo, hi = exponents
    signs = rng.choice([-1.0, 1.0], size)
    return signs * np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(lo, hi + 1, size))


# powers of two, their neighbours, and both signs
_EDGES = np.array([x for e in (-60, -1, 0, 1, 26, 27, 52, 53, 300)
                   for x in (math.ldexp(1.0, e), math.nextafter(math.ldexp(1.0, e), 0.0),
                             math.nextafter(math.ldexp(1.0, e), math.inf))])
_EDGES = np.concatenate([_EDGES, -_EDGES])

# binary exponents of the two operands: factors up to 2^12 against values up
# to 2^560 ("laguerre"), and factors up to 2^60 against values up to 2^60 ("tau")
_PRODUCT_RANGES = {"laguerre": ((-60, 12), (-200, 560)), "tau": ((-60, 60), (-200, 60))}


def _pairs(rng, first, second):
    return _doubles(rng, 2000, first), _doubles(rng, 2000, second)


def _assert_error_free(transform, operation, a, b):
    """transform(a, b) is (fl(a op b), e) with fl(a op b) + e = a op b exactly."""
    rounded, error = transform(a, b)
    for a_k, b_k, r_k, e_k in zip(*(np.ravel(v).tolist()
                                    for v in np.broadcast_arrays(a, b, rounded, error))):
        assert r_k == operation(a_k, b_k)
        assert Fraction(r_k) + Fraction(e_k) == operation(Fraction(a_k), Fraction(b_k)), (a_k, b_k)


def _assert_two_product_exact(a, b):
    _assert_error_free(two_product, operator.mul, a, b)


@pytest.mark.parametrize("ranges", _PRODUCT_RANGES)
def test_two_product_is_exact(ranges):
    a, b = _pairs(np.random.default_rng(12), *_PRODUCT_RANGES[ranges])
    _assert_two_product_exact(a, b)
    _assert_two_product_exact(b, a)


def test_two_product_is_exact_on_the_csv_digits():
    """A magnitude of the CSV writer's FAST_RANGE [1e-280, 1e280] times the
    double nearest 10^(16 - E), E its decimal exponent: the writer's extremes
    of both factors."""
    rng = np.random.default_rng(13)
    v = np.concatenate([10.0 ** rng.uniform(-280.0, 280.0, 2000), [1e-280, 1e280]])
    k = 16 - np.floor(np.log10(v)).astype(int)
    power = np.array([10**j / 1 if j >= 0 else 1 / 10**-j for j in k.tolist()])
    _assert_two_product_exact(v, power)


def test_error_free_transformations_at_powers_of_two_and_ties():
    a, b = _EDGES[:, None], _EDGES[None, :]
    _assert_two_product_exact(a, b)
    # products that fall halfway between two doubles
    ties = np.array([(2.0**27 + 1.0, 2.0**26 + 1.0), (2.0**27 - 1.0, 2.0**27 + 1.0),
                     (-(2.0**27 + 1.0), 2.0**-30 * (2.0**26 + 1.0))])
    rounded, error = two_product(*ties.T)
    for x, e in zip(rounded.tolist(), error.tolist()):  # halfway to the next double
        assert abs(math.nextafter(x, math.copysign(math.inf, e)) - x) == 2 * abs(e), ties
    _assert_two_product_exact(*ties.T)


def test_veltkamp_halves_add_back_with_26_bits_each():
    rng = np.random.default_rng(14)
    x = np.concatenate([_doubles(rng, 2000, (-1000, 990)), _EDGES,
                        np.nextafter(np.ldexp(1.0, 995), 0.0) * np.array([1.0, -1.0])])
    high, low = veltkamp_split(x)
    for x_k, high_k, low_k in zip(x.tolist(), high.tolist(), low.tolist()):
        assert Fraction(high_k) + Fraction(low_k) == Fraction(x_k)
        for half in (high_k, low_k):
            m = abs(half.as_integer_ratio()[0])  # the significand, up to powers of two
            assert m.bit_length() - (m & -m).bit_length() + 1 <= 26, (x_k, half)
