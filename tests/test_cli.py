"""End-to-end runs of the command-line driver (in process via main)."""

import json
import math
import warnings
from pathlib import Path

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
    assert meta["evaluator"] == "small"
    assert float(meta["config"]["t"]) == 0.1  # spec default is the sheared state
    assert "parameters" not in meta
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


def _branch(cell):
    """The "%.17g" layout a numeric cell took."""
    if float(cell) == 0.0:
        return "zero"
    if "e" in cell:
        return "scientific"
    return "positional E >= 0" if abs(float(cell)) >= 1.0 else "positional -4 <= E < 0"


def test_csv_rows_match_the_per_cell_format(tmp_path):
    """The bulk writer writes the bytes of a per-cell join of the same values
    (17 significant digits, |z| of the complex scalar). Between them the scans
    and the cut reach every layout of "%.17g" and negative values; exact zeros
    come from evanescent semiclassical cells and the xi_p = 0 row at t = 0."""
    numeric = []
    for t, evaluator in ((0.1, "semiclassical"), (0.0, "exact")):
        state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=t)
        scan_out = tmp_path / f"scan-{evaluator}.csv"
        assert run("scan", "--region=-2.3:2.3", "--resolution", "9", "--t", str(t),
                   "--evaluator", evaluator, "--out", str(scan_out)) == 0
        xp = xq = axis(-2.3, 2.3, 9)
        grid = scan_grid(make_evaluator(evaluator, state), xp, xq)
        lines = ["xi_p,xi_q,re,im,abs2,phase,flag"]
        for i in range(xp.size):
            for j in range(xq.size):
                v = grid.values[i, j]
                lines.append(",".join((
                    _cell(xp[i]), _cell(xq[j]), _cell(v.real), _cell(v.imag),
                    _cell(abs(v) ** 2), _cell(float(np.angle(v))),
                    FLAGS_BY_CODE[int(grid.flags[i, j])].value)))
        assert scan_out.read_text() == "\n".join(lines) + "\n"
        numeric += [cell for line in lines[1:] for cell in line.split(",")[:-1]]
        if evaluator == "semiclassical":
            assert {"ok", "evanescent"} <= {line.rsplit(",", 1)[1] for line in lines[1:]}
        else:
            assert all(line.split(",")[3] == "0" for line in lines[1:]
                       if line.startswith("0,"))

    state = CurveSpec(n=5, hbar=0.1, alpha=(0.0, 1.0, 1.0, 1.0), t=0.1)
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
    numeric += [cell for line in lines[1:] for cell in line.split(",")
                if not cell[0].isalpha()]

    assert {_branch(cell) for cell in numeric} == {
        "zero", "scientific", "positional E >= 0", "positional -4 <= E < 0"}
    assert any(cell.startswith("-") and _branch(cell) != "zero" for cell in numeric)


def test_bulk_format_matches_the_per_value_format(tmp_path):
    """The writer's float columns are "%.17g" of each value, also where its fast
    path does not apply: a million doubles drawn over every exponent and sign,
    with zeros, infinities, nan, subnormals, powers of ten and their
    neighbours, integers above 2^53 and exact ties at the 17th digit."""
    rng = np.random.default_rng(20261018)
    powers = 10.0 ** np.arange(-323, 309)
    special = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308,
         2.2250738585072014e-308, 1.7976931348623157e308],
        rng.integers(1, 2**52, 1000).view(np.float64),  # subnormals
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        2.0**53 + rng.integers(0, 2**40, 1000) * 2.0,  # integers above 2^53
        # in [2^50, 2^51) quarters are exact: 16 integer digits and .25 or .75
        # make an exact tie at the 17th digit, resolved down or up to even
        2.0**50 + rng.integers(0, 2**50, 1000) + rng.choice([0.25, 0.75], 1000),
        [2251799813685247.75, 1e16 + 2, 1e17 - 16, 123456789012345678.0],
    ])
    drawn = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
    x = np.concatenate([special, -special, drawn])
    out = tmp_path / "x.csv"
    cli._write_csv(out, ["x"], [x])
    assert out.read_text() == "x\n" + "".join(f"{v:.17g}\n" for v in x.tolist())


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
    assert meta["evaluator"] == "exact"        # flag wins
    assert float(meta["config"]["t"]) == 0.3  # file survives


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


def test_stationary_phase_blindspots_polish_with_the_oracle(tmp_path):
    """sp_full scans the field, but its sum is singular at the origin, where
    Newton stencils of the innermost spots reach: the polish runs on exact
    instead. The moments are the state's own, whatever the evaluator."""
    out = tmp_path / "spots.json"
    assert run("blindspots", "--evaluator", "sp_full", "--region=-0.3:0.3",
               "--resolution", "21", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["scan_evaluator"] == "sp_full"
    assert report["polish_evaluator"] == "exact"
    assert report["moments"]["mean_q"] == pytest.approx(0.265, abs=1e-6)
    spots = np.array([[s["xi_p"], s["xi_q"]] for s in report["located_spots"]])
    # two seeds head for the pair at (0, +-1.59), past the Newton box of +-0.9,
    # and stop there
    assert (report["n_seeds"], len(spots)) == (28, 6)
    exact = make_evaluator("exact", CurveSpec(n=5, hbar=0.1, t=0.1))
    values, _ = exact.evaluate(spots[:, 0], spots[:, 1])
    assert np.all(np.abs(values) < 1e-6)
    for row in spots:
        assert np.min(np.hypot(*(spots + row).T)) < 1e-6


def test_composite_blind_spot_report(tmp_path):
    """The composite scans and polishes the recipe's field itself: its 10
    spots lie within 3e-3 of the exact route's."""
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "blindspot-report.cfg"
    spots = {}
    for evaluator in ("exact", "semiclassical"):
        out = tmp_path / f"{evaluator}.json"
        assert run("blindspots", "--config", str(recipe), "--evaluator", evaluator,
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["polish_evaluator"] == evaluator
        spots[evaluator] = np.array([[s["xi_p"], s["xi_q"]] for s in report["located_spots"]])
    assert len(spots["semiclassical"]) == len(spots["exact"]) == 10
    for row in spots["semiclassical"]:
        assert np.min(np.hypot(*(spots["exact"] - row).T)) < 3e-3


@pytest.mark.parametrize("t, evaluator", [("1", "taylor:12"), ("5", "taylor:8")])
def test_taylor_scans_at_strong_shear(tmp_path, t, evaluator):
    """The classical moments reach 1e5 to 1e17 here; each is one exact sum, so
    no round-off has to settle below an absolute tolerance."""
    out = tmp_path / "taylor.csv"
    assert run("scan", "--t", t, "--evaluator", evaluator, "--resolution", "5",
               "--region=-0.001:0.001", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 25 and {r[-1] for r in rows} == {"ok"}


def test_taylor_blindspots_inside_the_polynomial_range(tmp_path):
    """taylor:8 locates the innermost spots on a region inside its polynomial's
    range; the recipe's +-0.45 reaches chords where its |chi| exceeds 1."""
    out = tmp_path / "spots.json"
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "blindspot-report.cfg"
    assert run("blindspots", "--config", str(recipe), "--evaluator", "taylor:8",
               "--region=-0.25:0.25", "--out", str(out)) == 0
    spots = json.loads(out.read_text())["located_spots"]
    assert len(spots) == 6
    # three +/- pairs, sorted by radius; the exact route's innermost spots
    # sit at radii 0.2082 and 0.2296
    radii = [spot["radius"] for spot in spots]
    assert radii[0] == pytest.approx(0.2082, abs=1e-3)
    assert radii[2] == pytest.approx(0.2296, abs=1e-3)


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
    """The closed form refuses the 1e300 chords without a RuntimeWarning, and
    the quadrature it hands them to refuses them too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*command, "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: did not converge:") and "32768 nodes" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_long_chords_of_sp_full_raise_no_warnings(tmp_path):
    """A cut far past the curve overflows the level quartic; the kernel reads
    it as no realization without a RuntimeWarning. The tangency phases of
    sp_small stay finite there."""
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("cut", "--slope", "1", "--range=0:1e300", "--samples", "3",
                   "--evaluator", "sp_full", "--out", str(out)) == 0
        assert run("cut", "--slope", "1", "--range=0:1e300", "--samples", "3",
                   "--evaluator", "sp_small", "--out", str(tmp_path / "small.csv")) == 0
    _, rows = read_csv(out)
    assert [row[3:] for row in rows] == [["0", "0", "0", "near_caustic"],
                                         ["0", "0", "0", "evanescent"],
                                         ["0", "0", "0", "evanescent"]]
    _, rows = read_csv(tmp_path / "small.csv")
    assert all(math.isfinite(float(value)) for row in rows for value in row[:6])


@pytest.mark.parametrize("evaluator, reach", [
    pytest.param("taylor:4", "1e300", id="taylor:4"),
    pytest.param("sp_small", "1e308", id="sp_small"),
    pytest.param("small", "1e308", id="small"),
    pytest.param("semiclassical", "1e308", id="semiclassical"),
])
def test_long_chords_that_overflow_exit_3(tmp_path, capsys, evaluator, reach):
    """Far out the Taylor polynomial, the tangency phase x ∧ xi / hbar and the
    classical average's plane-wave phase overflow; the non-finite value is
    refused, not flagged ok or run to the node cap."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("cut", "--slope", "1", f"--range=0:{reach}", "--samples", "3",
                   "--evaluator", evaluator, "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: numerical failure:") and "not finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_taylor_values_above_one_exit_3(tmp_path, capsys):
    """At s = 1, 2 and 3 the order-4 polynomial reads |chi|^2 of 2.3e4 to 1.9e8;
    |chi| <= 1 holds for every state, so the cut is refused, not flagged ok."""
    assert run("cut", "--slope", "1", "--range=0:3", "--samples", "4",
               "--evaluator", "taylor:4", "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: numerical failure: taylor:4") and "exceeds 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", ["taylorx", "taylor:", "taylor:0", "wigner", "sp-full"])
def test_unknown_evaluator_is_a_config_error(tmp_path, capsys, name):
    assert run("cut", "--slope", "1", "--range=0:0.1", "--samples", "2",
               "--evaluator", name, "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert err == (f"chordscan: unknown evaluator {name!r}; known: exact, small, "
                   "semiclassical, sp_small, sp_full, taylor\n")


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
