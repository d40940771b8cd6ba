import numpy as np
import pytest

from chordscan.core import (FLAG_CODES, FLAGS_BY_CODE, Chord, ChordValue, Flag, wedge,
                            worst_flag, worst_flag_codes)


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
