"""End-to-end runs of the command-line driver (in process via main)."""

import json
import math
import warnings

import numpy as np
import pytest

from chordscan import CurveSpec, axis, cli, make_evaluator, scan_grid
from chordscan.acceptance import CriterionResult
from chordscan.core import FLAGS_BY_CODE


def run(*argv):
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# -- option plumbing -------------------------------------------------------------


def test_parse_interval():
    assert cli._parse_interval("-1.5:2") == (-1.5, 2.0)
    with pytest.raises(ValueError):
        cli._parse_interval("0:1:2")
    with pytest.raises(ValueError):
        cli._parse_interval("2:1")
    for text in ("-inf:inf", "0:nan"):
        with pytest.raises(ValueError, match="finite"):
            cli._parse_interval(text)


@pytest.mark.parametrize("command", [
    ("scan", "--region=-inf:inf"),
    ("scan", "--region=-1.7e308:1.7e308", "--resolution", "3"),
    ("cut", "--direction", "nan,1"),
    ("cut", "--slope", "inf"),
    ("cut", "--slope", "1", "--range=0:inf"),
])
def test_non_finite_chords_are_a_config_error(tmp_path, capsys, command):
    try:
        code = run(*command, "--out", str(tmp_path / "x.csv"))
    except SystemExit as err:  # argparse rejects a flag's value itself
        code = err.code
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_non_finite_slope_in_a_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("slope=nan\n")
    assert run("cut", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 1


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nevaluator = small\nregion=-1:1  # inline\n"
                   "resolution=5\n")
    values = cli.load_config(str(cfg), "scan")
    assert values == {"evaluator": "small", "region": (-1.0, 1.0),
                      "resolution": 5}


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("evaluatr=small\n")
    with pytest.raises(ValueError, match="unknown key"):
        cli.load_config(str(cfg), "scan")


@pytest.mark.parametrize("command, text, key", [
    ("cut", "slope=1\nresolution=7\nrange=0:0.1\nsamples=3\n", "resolution"),
    ("scan", "region=-0.1:0.1\nsamples=5\nresolution=3\n", "samples"),
], ids=["cut", "scan"])
def test_config_key_of_another_command_is_a_config_error(tmp_path, capsys, command, text,
                                                         key):
    """A key that only another command takes is refused on one stderr line
    naming the file, the line and the key; without it the run succeeds."""
    cfg = tmp_path / "f.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"chordscan: {cfg}:2: unknown key {key!r} for {command}\n"
    assert not out.exists()
    cfg.write_text("".join(line + "\n" for line in text.splitlines()
                           if not line.startswith(key)))
    assert run(command, "--config", str(cfg), "--out", str(out)) == 0


def test_load_config_rejects_bare_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("small\n")
    with pytest.raises(ValueError, match="KEY=VALUE"):
        cli.load_config(str(cfg), "scan")


def test_bad_flag_value_is_a_config_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("scan", "--region", "bad", "--out", str(tmp_path / "x.csv"))
    assert err.value.code == 1


def test_unknown_command_is_a_config_error():
    with pytest.raises(SystemExit) as err:
        run("paint")
    assert err.value.code == 1


# -- scan -------------------------------------------------------------------------


def test_scan_roundtrip(tmp_path):
    out = tmp_path / "field.csv"
    code = run("scan", "--region=-0.4:0.4", "--resolution", "5",
               "--evaluator", "small", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["xi_p", "xi_q", "re", "im", "abs2", "phase", "flag"]
    assert len(rows) == 25
    assert all(row[6] == "ok" for row in rows)
    for row in rows[:3]:
        re, im, abs2, phase = (float(v) for v in row[2:6])
        assert abs2 == pytest.approx(re ** 2 + im ** 2, rel=1e-12)
        assert phase == pytest.approx(np.arctan2(im, re), abs=1e-12)
    # 17 significant digits round-trip exactly through repr
    re0 = float(rows[0][2])
    assert f"{re0:.17g}" == rows[0][2]

    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["command"] == "scan"
    assert meta["parameters"]["evaluator"] == "small"
    assert meta["parameters"]["t"] == 0.1  # spec default is the sheared state
    assert meta["rows"] == 25
    assert meta["flag_counts"] == {"ok": 25}
    assert "elapsed_seconds_nondeterministic" in meta


def test_exact_scan_axis_row_phase(tmp_path):
    """On the xi_p = 0 row Im chi is exactly 0, so the phase is 0 or pi and
    never the -pi that a negative round-off would give."""
    out = tmp_path / "t5.csv"
    assert run("scan", "--t", "5", "--resolution", "21", "--out", str(out)) == 0
    _, rows = read_csv(out)
    row = [r for r in rows if float(r[0]) == 0.0]
    assert len(row) == 21
    assert all(float(r[3]) == 0.0 for r in row)
    assert {float(r[5]) for r in row} == {0.0, np.pi}


@pytest.mark.parametrize("evaluator", ["exact", "semiclassical", "sp_full"])
def test_scan_is_deterministic(tmp_path, evaluator):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("scan", "--region=-0.8:0.8", "--resolution", "7",
                   "--evaluator", evaluator, "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def _cell(x):
    return f"{x:.17g}"


def test_csv_rows_match_the_per_cell_format(tmp_path):
    """Whole-row formatting writes the bytes of a per-cell join of the same
    values (17 significant digits, |z| of the complex scalar)."""
    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
    scan_out = tmp_path / "scan.csv"
    assert run("scan", "--region=-2.3:2.3", "--resolution", "9",
               "--evaluator", "semiclassical", "--out", str(scan_out)) == 0
    xp = xq = axis(-2.3, 2.3, 9)
    grid = scan_grid(make_evaluator("semiclassical", state), xp, xq)
    lines = ["xi_p,xi_q,re,im,abs2,phase,flag"]
    for i in range(xp.size):
        for j in range(xq.size):
            v = grid.values[i, j]
            lines.append(",".join((
                _cell(xp[i]), _cell(xq[j]), _cell(v.real), _cell(v.imag),
                _cell(abs(v) ** 2), _cell(float(np.angle(v))),
                FLAGS_BY_CODE[int(grid.flags[i, j])].value)))
    assert scan_out.read_text() == "\n".join(lines) + "\n"
    assert {"ok", "evanescent"} <= {line.rsplit(",", 1)[1] for line in lines[1:]}

    cut_out = tmp_path / "cut.csv"
    assert run("cut", "--slope", "0.8172", "--range", "0:2.6", "--samples", "14",
               "--evaluator", "exact,sp_full", "--out", str(cut_out)) == 0
    d = np.array([0.8172, 1.0]) / np.hypot(0.8172, 1.0)
    ss = np.linspace(0.0, 2.6, 14)
    columns = [make_evaluator(name, state).evaluate(ss * d[0], ss * d[1])
               for name in ("exact", "sp_full")]
    lines = [cut_out.read_text().splitlines()[0]]
    for k, s in enumerate(ss):
        cells = [_cell(s), _cell(s * d[0]), _cell(s * d[1])]
        for values, flags in columns:
            v = complex(values[k])
            cells += [_cell(v.real), _cell(v.imag), _cell(abs(v) ** 2),
                      FLAGS_BY_CODE[int(flags[k])].value]
        lines.append(",".join(cells))
    assert cut_out.read_text() == "\n".join(lines) + "\n"


def test_scan_smallest_grid(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run("scan", "--resolution", "2", "--region=-0.1:0.1",
               "--evaluator", "small", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4


def test_scan_requires_out():
    assert run("scan", "--region=0:1") == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(f"evaluator=small\nt=0.3\nregion=-0.5:0.5\nresolution=4\n"
                   f"out={out}\n")
    assert run("scan", "--config", str(cfg), "--evaluator", "exact") == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["parameters"]["evaluator"] == "exact"  # flag wins
    assert meta["parameters"]["t"] == 0.3              # file survives


def _report_without_timing(path):
    report = json.loads(path.read_text())
    del report["elapsed_seconds_nondeterministic"]
    return report


@pytest.mark.parametrize("command", [
    ("scan", "--region=-0.6:0.6", "--resolution", "4", "--evaluator", "small",
     "--t", "0.05"),
    ("cut", "--slope", "0.8172", "--range", "0:1", "--samples", "5",
     "--evaluator", "exact,small"),
    ("cut", "--direction", "0.3,1", "--range=-0.5:0.5", "--samples", "5",
     "--evaluator", "small", "--alpha2", "0.5"),
    ("blindspots", "--region=-0.3:0.3", "--resolution", "15", "--tol", "1e-9"),
], ids=["scan", "cut-slope", "cut-direction", "blindspots"])
def test_sidecar_config_reparses_to_the_same_run(tmp_path, command):
    """The sidecar's config block is itself a valid config file that
    reproduces the run bit for bit (a report up to its wall time)."""
    suffix = ".json" if command[0] == "blindspots" else ".csv"
    first, second = tmp_path / f"first{suffix}", tmp_path / f"second{suffix}"
    assert run(*command, "--out", str(first)) == 0
    echo = json.loads(first.with_suffix(".json").read_text())["config"]
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in echo.items()))
    assert run(command[0], "--config", str(cfg), "--out", str(second)) == 0
    if suffix == ".json":
        assert _report_without_timing(first) == _report_without_timing(second)
    else:
        assert first.read_bytes() == second.read_bytes()
        assert (_report_without_timing(first.with_suffix(".json"))
                == _report_without_timing(second.with_suffix(".json")))


def test_missing_config_file(tmp_path):
    assert run("scan", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "x.csv")) == 1


def test_invalid_state_is_reported(tmp_path, capsys):
    assert run("scan", "--n", "-2", "--out", str(tmp_path / "x.csv")) == 1
    assert "non-negative" in capsys.readouterr().err


def test_broken_hbar_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("hbar=0\n")
    assert run("scan", "--config", str(cfg),
               "--out", str(tmp_path / "x.csv")) == 1
    assert "hbar" in capsys.readouterr().err


# -- cut --------------------------------------------------------------------------


def test_cut_along_slope(tmp_path):
    out = tmp_path / "cut.csv"
    assert run("cut", "--slope", "0.8172", "--range", "0:1", "--samples", "21",
               "--evaluator", "semiclassical", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["s", "xi_p", "xi_q", "semiclassical_re",
                      "semiclassical_im", "semiclassical_abs2",
                      "semiclassical_flag"]
    assert len(rows) == 21
    s0 = rows[0]
    assert float(s0[0]) == 0.0 and float(s0[3]) == 1.0 and float(s0[4]) == 0.0
    # the ray direction is normalized: xi_p^2 + xi_q^2 = s^2
    for row in rows:
        s, xp, xq = (float(v) for v in row[:3])
        assert xp ** 2 + xq ** 2 == pytest.approx(s ** 2, abs=1e-12)
        assert xp == pytest.approx(0.8172 * xq, abs=1e-12)


def test_cut_compares_evaluators(tmp_path):
    out = tmp_path / "compare.csv"
    assert run("cut", "--direction", "0,1", "--range", "0.4:0.9",
               "--samples", "6", "--evaluator", "exact,sp_full", "--t", "0",
               "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header[3:] == ["exact_re", "exact_im", "exact_abs2", "exact_flag",
                          "sp_full_re", "sp_full_im", "sp_full_abs2",
                          "sp_full_flag"]
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[7]), abs=0.02)
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["evaluators"] == ["exact", "sp_full"]


def test_cut_single_sample(tmp_path):
    out = tmp_path / "one.csv"
    assert run("cut", "--direction", "0,1", "--range", "0:1", "--samples", "1",
               "--evaluator", "small", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0


def test_cut_requires_direction(tmp_path):
    assert run("cut", "--out", str(tmp_path / "x.csv")) == 1


def test_cut_rejects_zero_direction(tmp_path):
    assert run("cut", "--direction", "0,0", "--out", str(tmp_path / "x.csv")) == 1


# -- blindspots ---------------------------------------------------------------------


def test_blindspots_report(tmp_path):
    out = tmp_path / "spots.json"
    assert run("blindspots", "--region=-0.3:0.3", "--resolution", "31",
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert not report["degenerate"]
    assert report["moments"]["mean_q"] == pytest.approx(0.265, abs=1e-6)
    assert report["moments"]["p2"] == pytest.approx(0.55, abs=1e-6)
    assert report["estimate_radius"] == pytest.approx(0.190693, abs=1e-5)
    spots = report["located_spots"]
    assert len(spots) >= 2
    for spot in spots:
        assert spot["residual"] < 1e-6
    # zeros come in +/- pairs
    arr = np.array([[s["xi_p"], s["xi_q"]] for s in spots])
    for row in arr:
        assert np.min(np.hypot(*(arr + row).T)) < 1e-6
    assert report["polish_evaluator"] == "exact"
    assert 0.5 < report["estimate_over_nearest"] < 1.0


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_blindspots_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys, tol):
    out = tmp_path / "spots.json"
    assert run("blindspots", "--tol", tol, "--region=-0.3:0.3", "--resolution", "11",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("chordscan: tol must be finite and positive")
    assert err.count("\n") == 1
    assert not out.exists()


def test_blindspots_degenerate_outcome(tmp_path):
    """t = 0 is symmetric: the report carries nodal radii, not a failure."""
    out = tmp_path / "rings.json"
    assert run("blindspots", "--t", "0", "--region=-1.6:1.6",
               "--resolution", "101", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["degenerate"]
    assert report["located_spots"] == []
    radii = report["nodal_radii"]
    assert len(radii) == 5
    # Laguerre-root radii sqrt(2 hbar z_k) of the n = 5 state
    want = np.sqrt(0.2 * np.sort(np.polynomial.laguerre.lagroots(
        [0, 0, 0, 0, 0, 1])))
    np.testing.assert_allclose(sorted(radii), want, atol=0.035)


# -- verify -----------------------------------------------------------------------


def _fake_results(ok):
    # numpy scalar types on purpose: the JSON table must coerce them
    return [CriterionResult(name="stub", passed=np.bool_(ok),
                            measured=np.float64(0.0), tolerance=1.0,
                            detail="stub")]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_table_is_standard_json(tmp_path, monkeypatch):
    """A non-finite measurement is written as null, not as Infinity or NaN."""
    results = [CriterionResult(name=name, passed=False, measured=value,
                               tolerance=1.0, detail="stub")
               for name, value in (("inf", math.inf), ("nan", np.float64(np.nan)),
                                   ("finite", np.float64(0.25)))]
    monkeypatch.setattr(cli, "run_all", lambda report: results)
    table = tmp_path / "verify.json"
    assert run("verify", "--out", str(table)) == 2
    written = json.loads(table.read_text(), parse_constant=_reject_constant)
    assert [c["measured"] for c in written["criteria"]] == [None, None, 0.25]
    assert [c["tolerance"] for c in written["criteria"]] == [1.0] * 3


def test_verify_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all",
                        lambda report: [report(r.line()) or r for r in _fake_results(True)])
    table = tmp_path / "verify.json"
    assert run("verify", "--out", str(table)) == 0
    written = json.loads(table.read_text())
    assert written["passed"] and written["criteria"][0]["name"] == "stub"
    assert written["criteria"][0]["elapsed_seconds_nondeterministic"] >= 0.0
    monkeypatch.setattr(cli, "run_all",
                        lambda report: [report(r.line()) or r for r in _fake_results(False)])
    assert run("verify") == 2
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out


@pytest.mark.parametrize("command", [
    ("scan", "--region=-1e300:1e300", "--resolution", "3"),
    ("cut", "--direction", "0,1", "--range", "0:1e300", "--samples", "2"),
])
def test_chords_past_the_node_budget_exit_3(tmp_path, capsys, command):
    assert run(*command, "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: did not converge:") and "32768 nodes" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_long_chords_of_sp_full_raise_no_warnings(tmp_path):
    """A cut far past the curve overflows the level quartic; the kernel reads
    it as no realization without a RuntimeWarning."""
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("cut", "--slope", "1", "--range=0:1e300", "--samples", "3",
                   "--evaluator", "sp_full", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert [row[3:] for row in rows] == [["0", "0", "0", "near_caustic"],
                                         ["0", "0", "0", "evanescent"],
                                         ["0", "0", "0", "evanescent"]]


def test_long_chords_of_taylor_exit_3(tmp_path, capsys):
    """Far out the Taylor polynomial overflows; its NaN is refused, not flagged ok."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("cut", "--slope", "1", "--range=0:1e300", "--samples", "3",
                   "--evaluator", "taylor:4", "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: numerical failure:") and "not finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("scan", "--resolution", "5", "--region=-0.5:0.5"),
    ("cut", "--slope", "0.8", "--samples", "4", "--range", "0:0.5"),
])
def test_numerical_failure_exits_3_without_traceback(tmp_path, monkeypatch, capsys, command):
    """A broken guard (here |chi| <= 1 with its slack forced negative) is exit code 3."""
    monkeypatch.setattr("chordscan.exact._MODULUS_SLACK", -1.0)
    assert run(*command, "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: numerical failure:") and "exceeds 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
