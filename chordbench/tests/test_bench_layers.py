"""The tracer counts what it wraps and puts the package back as it was."""

import chordscan
import chordscan.blindspots
import chordscan.exact

import layers


def test_install_counts_and_uninstall_restores():
    state = chordscan.CurveSpec(n=5, hbar=0.1, alpha=(0, 1, 1, 1), t=0.1)
    original = chordscan.exact.evolved_chi
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.phase = 0
        root = chordscan.first_zero_along(chordscan.make_evaluator("exact", state),
                                          (0.0, 1.0), s_max=0.4)
    finally:
        tracer.uninstall()
    assert chordscan.exact.evolved_chi is original
    assert chordscan.blindspots.first_zero_along is chordscan.first_zero_along
    totals = tracer.phase_totals(0)
    evals = tracer.counter(0, "blindspots.ray_evals")
    assert 0.2 < root < 0.25
    assert evals > 0 and totals["exact.point"][0] == evals
    assert totals["blindspots.ray"][0] == 1
    # the ray's own time is its span minus its exact.point children
    ray_calls, ray_s, ray_self = totals["blindspots.ray"]
    assert 0 < ray_self < ray_s
