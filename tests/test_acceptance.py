"""Acceptance battery: every packaged quantitative claim at its tolerance.

Each criterion prints its own PASS/FAIL line (visible with ``pytest -s`` or
on failure) and is asserted individually, so a regression names the exact
claim it broke.
"""

import time

import numpy as np
import pytest

from chordscan import axis, make_evaluator, scan_grid
from chordscan.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[c.__name__.removeprefix("criterion_")
                              for c in CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_battery_is_complete():
    names = [c.__name__ for c in CRITERIA]
    assert len(names) == 11
    assert len(set(names)) == 11


def test_run_all_reports_one_line_per_criterion(monkeypatch):
    from chordscan import acceptance

    def fake_pass():
        return acceptance.CriterionResult(name="stub_ok", passed=True,
                                          measured=0.0, tolerance=1.0)

    def fake_fail():
        time.sleep(0.005)
        return acceptance.CriterionResult(name="stub_bad", passed=False,
                                          measured=2.0, tolerance=1.0,
                                          detail="still reported")

    monkeypatch.setattr(acceptance, "CRITERIA", (fake_pass, fake_fail))
    lines = []
    results = acceptance.run_all(report=lines.append)
    assert [r.passed for r in results] == [True, False]
    assert results[0].elapsed_seconds >= 0.0 and results[1].elapsed_seconds >= 0.005
    assert lines[0].startswith("PASS  stub_ok")
    assert lines[1].startswith("FAIL  stub_bad")
    assert "still reported" in lines[1]


def test_purity_criterion_runs_one_transform(monkeypatch):
    """The residual and the pointwise defect are read off one transform, and
    the criterion measures what its two certificates would."""
    from chordscan import acceptance, exact

    dft, calls = exact._symplectic_dft, []

    def counting(*args, **kwargs):
        calls.append(args)
        return dft(*args, **kwargs)

    monkeypatch.setattr(exact, "_symplectic_dft", counting)
    result = acceptance.criterion_purity_invariance()
    assert len(calls) == 1
    monkeypatch.setattr(exact, "_symplectic_dft", dft)
    ax = axis(-3.2, 3.2, 161)
    grid = scan_grid(make_evaluator("exact", acceptance.SHEARED_STATE), ax, ax)
    residual = exact.fourier_invariance_residual(grid)
    pointwise = float(np.max(np.abs(exact.correlation_C(grid) - np.abs(grid.values) ** 2)))
    assert result.measured == max(residual, pointwise)
    assert result.detail == (f"transform residual {residual:.1e}, "
                             f"correlation defect {pointwise:.1e}")
