"""The "%.17g" checker that CI runs on the CLI's CSV files (tests/check_g17.py)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("check_g17.py")
_spec = importlib.util.spec_from_file_location("check_g17", SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

HEADER = "xi_p,xi_q,re,im,abs2,phase,flag\n"
GOOD = (HEADER + "-2.2999999999999998,0.10000000000000001,1,0,1,0,ok\n"
        "0,-1.5e-05,-0.40817412542183679,-0,0.166606116686593,3.1415926535897931,evanescent\n")


def test_a_good_csv_passes():
    assert check.problems(GOOD) == []
    assert check.problems(HEADER) == []


def test_a_bad_csv_fails_on_its_fault():
    # 0.1 is "%.17g" 0.10000000000000001, and 1.0 is 1
    assert check.problems(GOOD.replace("0.10000000000000001", "0.1")) == [
        "line 2 reads '-2.2999999999999998,0.1,1,0,1,0,ok', "
        "not '-2.2999999999999998,0.10000000000000001,1,0,1,0,ok'"]
    assert check.problems(GOOD.replace(",1,0,1,", ",1.0,0,1,"))[0].startswith("line 2 reads")
    assert check.problems(GOOD[:-1]) == ["no newline at the end"]
    assert check.problems("") == ["no header line"]


def test_the_script_exits_1_naming_the_file(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(GOOD)
    bad.write_text(GOOD.replace("-1.5e-05", "-0.000015"))
    run = subprocess.run([sys.executable, str(SCRIPT), str(good)], capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    run = subprocess.run([sys.executable, str(SCRIPT), str(good), str(bad)],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith(f"{bad}: line 3 reads") and run.stderr.count("\n") == 1
