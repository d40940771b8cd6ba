"""A fixed yardstick computation that measures how fast the machine runs now.

The benchmark shares its machine with other work. On the 2-core host it was
written on, the same pass ran up to 1.7 times slower for stretches of
seconds to minutes. The yardstick runs a fixed mix of the kinds of work the
program does: vectorized numpy (the benchmark's own overlap quadrature),
scalar root solves through numpy, and plain Python arithmetic. Its time,
against ``NOMINAL_S``, says how slow the machine was at that moment. One
yardstick takes about 25 ms and is itself noisy, so a pass is scaled by the
median of all the yardsticks taken around its calls. The yardstick uses no
chordscan code, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.optimize import brentq

import reference as ref

# typical yardstick time on the reference machine when it is not slowed
NOMINAL_S = 0.025

_CHORDS = [(0.1 * k - 1.0, 0.07 * k - 0.7) for k in range(20)]


def _scalar_residual(x):
    return float(np.cos(np.array([x]))[0]) - 0.3 * x


def yardstick_s() -> float:
    """Seconds taken by the fixed yardstick work."""
    started = time.perf_counter()
    for xi in _CHORDS:
        ref.overlap_chi(5, 0.1, (0.0, 1.0, 1.0, 1.0), 1.0, xi)
    for k in range(300):
        brentq(_scalar_residual, 0.0, 2.0 + 1e-3 * k, xtol=1e-13)
    total = 0.0
    for i in range(60000):
        total += math.sin(0.5 * i)
    return time.perf_counter() - started


def nominal_seconds(raw_s: float, yardsticks) -> float:
    """``raw_s`` scaled to nominal speed by the median of the yardstick
    times taken while it was measured."""
    return raw_s * NOMINAL_S / statistics.median(yardsticks)
