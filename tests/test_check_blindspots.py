"""The blind-spot report checker that CI runs on its reports (tests/check_blindspots.py)."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).with_name("check_blindspots.py")
_spec = importlib.util.spec_from_file_location("check_blindspots", SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def spot(xi_p, xi_q, residual=1e-15):
    return {"xi_p": xi_p, "xi_q": xi_q, "radius": math.hypot(xi_p, xi_q), "residual": residual}


# three +-xi pairs: the first four spots tie in radius and are in xi_q
# order, the last two tie at xi_q = 0
SPOTS = [spot(0.3, -0.4), spot(-0.4, -0.3), spot(0.4, 0.3), spot(-0.3, 0.4),
         spot(0.9, 0.0), spot(-0.9, 0.0)]


def report(spots):
    """A report on a 41^2 grid over +-1 (cells of 0.05) listing ``spots``."""
    return {"config": {"region": "-1:1", "resolution": 41},
            "resolution_ratio": {"xi_p": 0.1, "xi_q": 0.1},
            "under_resolved": False,
            "located_spots": spots}


def test_a_good_report_passes():
    assert check.problems(report(SPOTS)) == []
    assert check.problems(report(SPOTS), count=6, under_resolved=False) == []


@pytest.mark.parametrize("spots, options, problem", [
    ([], {}, "no spots"),
    (SPOTS, {"count": 8}, "6 spots, want 8"),
    (SPOTS, {"under_resolved": True}, "under_resolved is False, want True"),
    (SPOTS[:4] + [spot(1.2, 0.0), spot(-1.2, 0.0)], {}, "spot outside the region"),
    ([spot(0.3, -0.4, residual=2e-12)] + SPOTS[1:], {}, "residual above 1e-12"),
    ([spot(0.3 + 2e-6, -0.4)] + SPOTS[1:], {}, "no partner under xi -> -xi"),
    # a second pair 1e-9 from the last one: paired, but not 1e-6 cell diagonals apart
    (SPOTS + [spot(0.9 + 1e-9, 0.0), spot(-0.9 - 1e-9, 0.0)], {},
     "two spots within 1e-06 cell diagonals"),
    ([SPOTS[0], SPOTS[2], SPOTS[1]] + SPOTS[3:], {}, "radius tie out of xi_q order"),
])
def test_a_broken_report_fails_on_its_fault(spots, options, problem):
    found = check.problems(report(spots), **options)
    assert found and all(problem in line for line in found), found


def test_the_script_exits_1_naming_the_report(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(report(SPOTS)))
    bad.write_text(json.dumps(report([spot(0.3, -0.4, residual=1.0)] + SPOTS[1:])))
    run = subprocess.run([sys.executable, str(SCRIPT), str(good), "--count", "6", "--resolved"],
                         capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    run = subprocess.run([sys.executable, str(SCRIPT), str(good), str(bad)],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith(f"{bad}: residual above 1e-12") and run.stderr.count("\n") == 1
