"""Acceptance battery: every packaged quantitative claim at its tolerance.

Each criterion prints its own PASS/FAIL line (visible with ``pytest -s`` or
on failure) and is asserted individually, so a regression names the exact
claim it broke.
"""

import time

import pytest

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
