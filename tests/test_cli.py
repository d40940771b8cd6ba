"""End-to-end runs of the command-line driver (in process via main)."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from chordscan import CurveSpec, axis, blindspots, cli, make_evaluator, scan_grid
from chordscan.acceptance import CriterionResult
from chordscan.core import FLAGS_BY_CODE


BLINDSPOT_RECIPE = Path(__file__).resolve().parents[1] / "recipes" / "blindspot-report.cfg"


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


@pytest.mark.parametrize("line, key, reason", [
    ("resolution=abc", "resolution", "invalid literal for int() with base 10: 'abc'"),
    ("region=1:0", "region", "interval '1:0' must have LO < HI"),
], ids=["resolution", "region"])
def test_bad_config_value_names_the_file_line_and_key(tmp_path, capsys, line, key, reason):
    """A value the key's converter refuses is one stderr line naming the
    file, the line and the key, as an unknown key is."""
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"t=0.1\n{line}\n")
    out = tmp_path / "x.csv"
    assert run("scan", "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"chordscan: {cfg}:2: bad value for {key!r}: {reason}\n"
    assert not out.exists()


def test_load_config_rejects_bare_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("small\n")
    with pytest.raises(ValueError, match="KEY=VALUE"):
        cli.load_config(str(cfg), "scan")


def test_bad_flag_value_is_a_config_error(tmp_path, capsys):
    """A value the flag's converter refuses is a usage error, exit 1, whose
    last stderr line gives the reason a config file's line would give."""
    out = tmp_path / "x.csv"
    for argv, error in (
            (["scan", "--region", "bad"],
             "chordscan scan: error: argument --region: interval 'bad' must be LO:HI"),
            (["scan", "--region=1:0"],
             "chordscan scan: error: argument --region: interval '1:0' must have LO < HI"),
            (["cut", "--direction", "1"],
             "chordscan cut: error: argument --direction: direction '1' must be DP,DQ"),
            (["scan", "--resolution", "abc"],
             "chordscan scan: error: argument --resolution: invalid literal for int() "
             "with base 10: 'abc'")):
        with pytest.raises(SystemExit) as err:
            run(*argv, "--out", str(out))
        assert err.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: chordscan {argv[0]} [-h]")
        assert lines[-1] == error
    assert run("cut", "--slope", "1", "--samples", "0", "--out", str(out)) == 1
    assert capsys.readouterr().err == "chordscan: cut needs samples >= 1\n"
    assert not out.exists()


def test_successive_calls_share_no_values(tmp_path):
    """One parser serves every main call of a process; each call reads only
    its own flags, so a flag given once does not reach the next call."""
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run("scan", "--region=-0.4:0.4", "--resolution", "3", "--t", "5",
               "--evaluator", "small", "--out", str(first)) == 0
    assert run("cut", "--slope", "1", "--samples", "3", "--out", str(second)) == 0
    assert run("scan", "--resolution", "5", "--out", str(first)) == 0
    # the defaults, not the first scan's flags
    config = json.loads(first.with_suffix(".json").read_text())["config"]
    assert (config["t"], config["evaluator"], config["region"], config["resolution"]) == (
        f"{0.1:.17g}", "exact", f"{-2.3:.17g}:{2.3:.17g}", "5")
    parse = cli.build_parser().parse_args
    assert parse(["cut", "--direction", "1,0", "--out", "x"]).direction == (1.0, 0.0)
    assert parse(["cut", "--slope", "2", "--out", "x"]).direction is None


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


def _assert_written(path, expected: str):
    """``path`` holds the bytes of ``expected``. A mismatch fails with the
    first line that differs, not with a diff of the whole text."""
    written, wanted = path.read_bytes().split(b"\n"), expected.encode().split(b"\n")
    if written != wanted:
        k = next((k for k, (a, b) in enumerate(zip(written, wanted)) if a != b),
                 min(len(written), len(wanted)))
        pytest.fail(f"{path.name} line {k + 1}: written {written[k:k + 1]}, "
                    f"expected {wanted[k:k + 1]}", pytrace=False)


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
                    _cell(abs(v) * abs(v)), _cell(float(np.angle(v))),
                    FLAGS_BY_CODE[int(grid.flags[i, j])].value)))
        _assert_written(scan_out, "\n".join(lines) + "\n")
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
            cells += [_cell(v.real), _cell(v.imag), _cell(abs(v) * abs(v)),
                      FLAGS_BY_CODE[int(flags[k])].value]
        lines.append(",".join(cells))
    _assert_written(cut_out, "\n".join(lines) + "\n")
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
    _assert_written(out, "x\n" + "".join(f"{v:.17g}\n" for v in x.tolist()))

    # several float columns, formatted in one call per block, around a text
    # column: each column holds every special, shuffled over several blocks
    # (the last one short)
    specials = np.concatenate([special, -special])
    rows = specials.size + cli.CSV_BLOCK_CELLS + 5
    floats = [rng.permutation(np.resize(rng.permutation(specials), rows)) for _ in range(3)]
    codes = rng.integers(0, len(cli._FLAG_BYTES), rows)
    labels = cli._FLAG_BYTES[codes]
    cli._write_csv(out, ["a", "flag", "b", "c"],
                   [floats[0], (cli._FLAG_BYTES, codes), floats[1], floats[2]])
    expected = "".join(f"{a:.17g},{flag.decode()},{b:.17g},{c:.17g}\n" for a, flag, b, c in
                       zip(floats[0].tolist(), labels.tolist(), *(f.tolist() for f in floats[1:])))
    _assert_written(out, "a,flag,b,c\n" + expected)


def _layout(text):
    """The "%.17g" layout of a magnitude's text: ("scientific", digits shown),
    ("E < 0", digits shown) for positional -4 <= E < 0, and (E, digits shown)
    for positional E >= 0, whose shown digits include the integer part's."""
    mantissa, _, exponent = text.partition("e")
    if exponent:
        return "scientific", len(mantissa.replace(".", ""))
    if mantissa.startswith("0."):
        return "E < 0", len(mantissa[2:].lstrip("0"))
    whole = mantissa.partition(".")[0]
    return len(whole) - 1, len(mantissa.replace(".", ""))


def test_every_layout_is_the_per_value_format(tmp_path):
    """Every layout the formatter puts together from its tables, with its
    digits exact (odd k 2^j, d 10^p, 10^E + 2^-f, 0.5 + 2^-f):
    positional E from -4 to 16, scientific E of both signs with one to three
    exponent digits, and every count of digits shown from 1 to 17, with their
    negations and +-0, shuffled over several blocks."""
    pool = np.array(sorted(
        {float(k) * 2.0**j for k in range(1, 256, 2) for j in range(-80, 81)}
        # d 10^p is exact where d 5^p < 2^53
        | {float(d * 10**p) for d in (int("123456789012345"[:m]) for m in range(1, 16))
           for p in range(30) if d * 5**p < 2**53}
        | {10.0**e + 2.0**-f for e in range(17) for f in range(1, 17 - e)}
        | {0.5 + 2.0**-f for f in range(2, 18)}
        | {10.0**e for e in range(23)}
        | {2.0**j for j in (-1070, -1000, -400, 400, 1000, 1023)}))
    layouts = {_layout(f"{v:.17g}") for v in pool.tolist()}
    assert layouts >= ({("scientific", m) for m in range(1, 18)}
                       | {("E < 0", m) for m in range(1, 18)}
                       | {(e, s) for e in range(17) for s in range(e + 1, 18)})
    exponents = {int(f"{v:.16e}".partition("e")[2]) for v in pool.tolist()}
    assert set(range(-4, 17)) <= exponents
    for lo, hi in ((-9, -5), (-99, -10), (-999, -100), (17, 99), (100, 999)):
        assert any(lo <= e <= hi for e in exponents), (lo, hi)
    x = np.concatenate([pool, -pool, [0.0, -0.0]])
    x = np.random.default_rng(20261020).permutation(x)
    assert x.size > 4 * cli.CSV_BLOCK_CELLS
    out = tmp_path / "layouts.csv"
    cli._write_csv(out, ["x"], [x])
    _assert_written(out, "x\n" + "".join(f"{v:.17g}\n" for v in x.tolist()))


def test_a_magnitudes_exponent_is_read_off_its_binary_exponent():
    """For every binary exponent b of FAST_RANGE the tables hold E of 2^(b-1)
    and the least double >= 10^(E+1), both as integer arithmetic finds them."""
    def at_least(num, den, k):  # num / den >= 10^k
        return num * 10**max(-k, 0) >= den * 10**max(k, 0)

    octave_e, octave_next = cli._tables()[1:3]
    for b in range(cli._B_MIN, cli._B_MAX + 1):
        num, den = (2**(b - 1), 1) if b >= 1 else (1, 2**(1 - b))
        e = len(str(num)) - len(str(den))
        e -= not at_least(num, den, e)
        assert at_least(num, den, e) and not at_least(num, den, e + 1)
        assert octave_e[b - cli._B_MIN] == e, b
        bound = float(octave_next[b - cli._B_MIN])
        below = float(np.nextafter(bound, 0.0))
        assert at_least(*bound.as_integer_ratio(), e + 1), b
        assert not at_least(*below.as_integer_ratio(), e + 1), b


def test_labelled_columns_write_the_materialized_text(tmp_path):
    """A text column (labels, codes) writes the bytes of labels[codes], with
    labels of unequal widths and codes out of order, over several blocks."""
    rng = np.random.default_rng(20261021)
    ticks = np.array([b"%.17g" % v for v in np.linspace(-2.3, 2.3, 37).tolist()])
    rows = 2 * cli.CSV_BLOCK_CELLS + 11
    codes = rng.integers(0, ticks.size, rows)
    flags = rng.integers(0, len(cli._FLAG_BYTES), rows).astype(np.int8)
    x = rng.uniform(-3, 3, rows)
    labelled = tmp_path / "labelled.csv"
    cli._write_csv(labelled, ["t", "x", "flag"], [(ticks, codes), x, (cli._FLAG_BYTES, flags)])
    _assert_written(labelled, "t,x,flag\n" + "".join(
        f"{t.decode()},{v:.17g},{f.decode()}\n"
        for t, v, f in zip(ticks[codes].tolist(), x.tolist(), cli._FLAG_BYTES[flags].tolist())))


@pytest.fixture
def formatted(monkeypatch):
    """A copy of each array the CSV writer passes to _format_floats."""
    arrays = []
    format_floats = cli._format_floats
    monkeypatch.setattr(cli, "_format_floats",
                        lambda a, out: arrays.append(a.copy()) or format_floats(a, out))
    return arrays


@pytest.mark.parametrize("extra", [0, 1])
def test_mirrored_cells_are_the_per_value_format(tmp_path, formatted, extra):
    """Row r's partner is row size - 1 - r. Over several blocks, odd and even
    lengths, each pair is (x, -x), (x, x), (+0, -0), (inf, -inf), (nan, -nan),
    one ulp apart either way or unrelated, and every cell reads as "%.17g"
    writes it; a cell is formatted unless its magnitude equals its partner's."""
    rng = np.random.default_rng(20261019)
    columns = 3
    pairs = columns * cli.CSV_BLOCK_CELLS // 2 + 7
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e300])
    rules = [np.negative, np.positive, lambda x: np.nextafter(x, np.inf),
             lambda x: np.nextafter(x, -np.inf), lambda x: rng.uniform(-3, 3, x.size)]
    floats = []
    for _ in range(columns):
        first = np.concatenate([special, rng.uniform(-3, 3, pairs - special.size)])
        rule = rng.integers(0, len(rules), pairs)
        rule[:special.size] = 0  # the specials against their negations
        second = np.empty(pairs)
        for k, apply in enumerate(rules):
            second[rule == k] = apply(first[rule == k])
        floats.append(np.concatenate([first, [-0.5][:extra], second[::-1]]))
    rows = 2 * pairs + extra
    codes = rng.integers(0, len(cli._FLAG_BYTES), rows)
    labels = cli._FLAG_BYTES[codes]
    out = tmp_path / "mirrored.csv"
    cli._write_csv(out, ["a", "flag", "b", "c"],
                   [floats[0], (cli._FLAG_BYTES, codes), floats[1], floats[2]])
    expected = "".join(f"{a:.17g},{flag.decode()},{b:.17g},{c:.17g}\n" for a, flag, b, c in
                       zip(floats[0].tolist(), labels.tolist(), *(f.tolist() for f in floats[1:])))
    _assert_written(out, "a,flag,b,c\n" + expected)
    mirrored = [np.abs(f[:pairs]) == np.abs(f[::-1][:pairs]) for f in floats]
    copied = sum(np.count_nonzero(m) for m in mirrored)
    # a zero is "0" without formatting; one whose partner is a zero is copied
    zeros = sum(np.count_nonzero(f == 0) - np.count_nonzero(m & (f[:pairs] == 0))
                for f, m in zip(floats, mirrored))
    assert sum(a.size for a in formatted) == columns * rows - copied - zeros


def test_a_symmetric_scan_formats_half_its_cells(tmp_path, formatted):
    """The 161^2 sheared recipe formats each float column's 12 961 computed
    cells (80 rows and a half, the middle cell too) of 25 921."""
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "sheared-field.cfg"
    assert run("scan", "--config", str(recipe), "--out", str(tmp_path / "sheared.csv")) == 0
    assert sum(a.size for a in formatted) <= 4 * 12961


def test_a_scan_formats_no_zero(tmp_path, formatted):
    """The 161^2 ring recipe's 51 844 computed float cells hold 18 202 zeros
    (every Im, chi being real, and 5 241 phases), and none is formatted."""
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "ring-field.cfg"
    assert run("scan", "--config", str(recipe), "--out", str(tmp_path / "ring.csv")) == 0
    assert not any((a == 0).any() for a in formatted)
    assert sum(a.size for a in formatted) <= 4 * 12961 - 18202


def test_the_rings_formatter_calls_are_its_nonzero_computed_cells(tmp_path, formatted):
    """The ring recipe's chi is real and even, so its mirrored half copies
    every cell and its Im column is all +0.0: each call formats the nonzero
    re, im, abs2 and phase magnitudes of one block of CSV_BLOCK_CELLS // 4
    rows of the computed half, and no Im cell."""
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "ring-field.cfg"
    out = tmp_path / "ring.csv"
    assert run("scan", "--config", str(recipe), "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert {row[header.index("im")] for row in rows} == {"0"}
    cells = np.abs([[float(row[header.index(name)]) for name in ("re", "im", "abs2", "phase")]
                    for row in rows])
    assert not cells[:, 1].any()
    half, block_rows = len(rows) - len(rows) // 2, cli.CSV_BLOCK_CELLS // 4
    blocks = [cells[lo:min(lo + block_rows, half)].ravel() for lo in range(0, half, block_rows)]
    assert len(formatted) == len(blocks)
    for a, block in zip(formatted, blocks):
        assert np.array_equal(a, block[block != 0.0])


def test_a_column_of_signed_zeros_is_the_per_value_format(tmp_path, formatted):
    """A float column of +0.0 and -0.0 writes "0" and "-0" as "%.17g" does,
    over several blocks beside a float and a text column, and none of its
    cells reaches the formatter."""
    rng = np.random.default_rng(20261022)
    rows = 2 * cli.CSV_BLOCK_CELLS + 3
    zeros = np.where(rng.random(rows) < 0.5, 0.0, -0.0)
    x = rng.uniform(-3, 3, rows)
    codes = rng.integers(0, len(cli._FLAG_BYTES), rows)
    out = tmp_path / "zeros.csv"
    cli._write_csv(out, ["x", "z", "flag"], [x, zeros, (cli._FLAG_BYTES, codes)])
    _assert_written(out, "x,z,flag\n" + "".join(
        f"{v:.17g},{z:.17g},{f.decode()}\n"
        for v, z, f in zip(x.tolist(), zeros.tolist(), cli._FLAG_BYTES[codes].tolist())))
    assert {"0", "-0"} <= {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert sum(a.size for a in formatted) == rows


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
    ("blindspots", "--region=-0.3:0.3", "--resolution", "15"),
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


@pytest.mark.parametrize("names", ["exact,exact", "taylor,taylor:4", "small, exact,small"])
def test_cut_rejects_a_repeated_evaluator(tmp_path, capsys, names):
    """Two evaluators of one name would write one set of column names twice."""
    out = tmp_path / "x.csv"
    assert run("cut", "--slope", "1", "--range=0:0.5", "--samples", "2",
               "--evaluator", names, "--out", str(out)) == 1
    assert "more than once" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("in_file, flag, xi_p_per_xi_q, echo", [
    ("direction=1,0", ("--slope", "2"), 2.0, {"slope": "2"}),
    ("slope=2", ("--direction", "0,1"), 0.0, {"direction": "0,1"}),
], ids=["slope-over-direction", "direction-over-slope"])
def test_a_cut_flag_overrides_the_files_other_direction_key(tmp_path, in_file, flag,
                                                             xi_p_per_xi_q, echo):
    """slope and direction are one setting: a flag for either drops the file's other key."""
    cfg, out = tmp_path / "cut.cfg", tmp_path / "cut.csv"
    cfg.write_text(f"{in_file}\nrange=0.5:1\nsamples=2\nevaluator=small\n")
    assert run("cut", "--config", str(cfg), *flag, "--out", str(out)) == 0
    for row in read_csv(out)[1]:
        assert float(row[1]) == pytest.approx(xi_p_per_xi_q * float(row[2]), abs=1e-15)
    config = json.loads(out.with_suffix(".json").read_text())["config"]
    assert {k: v for k, v in config.items() if k in ("slope", "direction")} == echo


@pytest.mark.parametrize("flags, in_file", [
    (("--slope", "2", "--direction", "1,0"), ""),
    ((), "slope=2\ndirection=1,0\n"),
], ids=["two-flags", "one-file"])
def test_cut_rejects_slope_and_direction_at_one_level(tmp_path, capsys, flags, in_file):
    cfg, out = tmp_path / "cut.cfg", tmp_path / "cut.csv"
    cfg.write_text(in_file)
    assert run("cut", "--config", str(cfg), *flags, "--out", str(out)) == 1
    assert "slope or direction, not both" in capsys.readouterr().err
    assert not out.exists()


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
    # cell 0.02 against pi hbar / max|q| = 0.262 and pi hbar / r = 0.300
    assert report["resolution_ratio"] == pytest.approx({"xi_p": 0.0763, "xi_q": 0.0668},
                                                       abs=1e-4)
    assert report["under_resolved"] is False


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
    # the grid resolves the state, so the seeds are the crossings of the
    # cells' bilinear models: sp_full reads 0 at the origin, where the four
    # cells around it seed, and exact Re chi peaks there, so their Jacobian is
    # singular and they stop; the other 8 reach the 6 zeros in the region,
    # the two on the xi_p = 0 row from both cells beside it
    assert (report["n_seeds"], len(spots)) == (12, 6)
    exact = make_evaluator("exact", CurveSpec(n=5, hbar=0.1, t=0.1))
    values, _ = exact.evaluate(spots[:, 0], spots[:, 1])
    assert np.all(np.abs(values) < 1e-6)
    for row in spots:
        assert np.min(np.hypot(*(spots + row).T)) < 1e-6


def test_composite_blind_spot_report(tmp_path):
    """The composite scans and polishes the recipe's field itself: its 10
    spots lie within 3e-3 of the exact route's."""
    spots = {}
    for evaluator in ("exact", "semiclassical"):
        out = tmp_path / f"{evaluator}.json"
        assert run("blindspots", "--config", str(BLINDSPOT_RECIPE), "--evaluator", evaluator,
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
    assert run("blindspots", "--config", str(BLINDSPOT_RECIPE), "--evaluator", "taylor:8",
               "--region=-0.25:0.25", "--out", str(out)) == 0
    spots = json.loads(out.read_text())["located_spots"]
    assert len(spots) == 6
    # three +/- pairs, sorted by radius; the exact route's innermost spots
    # sit at radii 0.2082 and 0.2296
    radii = [spot["radius"] for spot in spots]
    assert radii[0] == pytest.approx(0.2082, abs=1e-3)
    assert radii[2] == pytest.approx(0.2296, abs=1e-3)


@pytest.mark.parametrize("where", ["flag", "config"])
def test_blindspots_takes_no_tolerance(tmp_path, where):
    """Newton stops on its own step, so blindspots has no tol option: the flag
    is a usage error and the config key an unknown one, each exit 1."""
    out = tmp_path / "spots.json"
    if where == "flag":
        with pytest.raises(SystemExit) as exc:
            run("blindspots", "--tol", "1e-8", "--out", str(out))
        assert exc.value.code == 1
    else:
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol=1e-8\n")
        assert run("blindspots", "--config", str(cfg), "--out", str(out)) == 1
    assert not out.exists()


# Laguerre-root radii sqrt(2 hbar z_k) of the n = 5 state at hbar = 0.1
LAGUERRE_RADII = np.sqrt(0.2 * np.sort(np.polynomial.laguerre.lagroots([0, 0, 0, 0, 0, 1])))


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
    np.testing.assert_allclose(radii, LAGUERRE_RADII, rtol=0, atol=1e-12)


@pytest.mark.parametrize("flags,degenerate", [
    (("--alpha2", "0", "--alpha3", "0"), True),
    (("--alpha1", "0", "--alpha3", "0", "--t", "1"), True),
    # alpha1 = -3 alpha3 hbar (n + 1/2)
    (("--alpha1", "-1.65", "--alpha2", "0", "--alpha3", "1"), False),
], ids=["linear-H", "alpha2-shear", "zero-mean-cubic"])
def test_blindspots_degeneracy_is_alpha3_t_zero(tmp_path, flags, degenerate):
    """A report is degenerate exactly when alpha3 t = 0: such a state has nodal
    curves at the Laguerre radii, and any other state has isolated zeros,
    even when its mean, and with it the ellipse estimate, vanishes."""
    out = tmp_path / "spots.json"
    assert run("blindspots", "--config", str(BLINDSPOT_RECIPE), *flags,
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["degenerate"] == degenerate
    if degenerate:
        assert report["located_spots"] == []
        np.testing.assert_allclose(report["nodal_radii"], LAGUERRE_RADII, rtol=0, atol=1e-12)
        return
    assert "nodal_radii" not in report
    assert report["estimated_spots"] == []
    assert "estimate_radius" not in report and "estimate_over_nearest" not in report
    spots = report["located_spots"]
    assert len(spots) == 10
    for s in spots:
        gap = min(math.hypot(s["xi_p"] + o["xi_p"], s["xi_q"] + o["xi_q"]) for o in spots)
        assert gap <= 1e-6, (s, gap)
        assert s["residual"] <= 1e-12, s


def test_blindspots_degenerate_report_evaluates_nothing(tmp_path, monkeypatch):
    """A degenerate report's nodal set is the state's own: it neither scans a
    grid nor traces contours, so a region no evaluator could cover still
    exits 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("a degenerate report evaluates no chord")
    monkeypatch.setattr(cli, "scan_grid", refuse)
    monkeypatch.setattr(blindspots, "nodal_contours", refuse)
    out = tmp_path / "rings.json"
    assert run("blindspots", "--t", "0", "--evaluator", "taylor:4",
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["degenerate"] and report["scan_evaluator"] == "taylor:4"
    np.testing.assert_allclose(report["nodal_radii"], LAGUERRE_RADII, rtol=0, atol=1e-12)


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
    ("cut", "--slope", "1", "--range=0:0.01", "--samples", "3", "--evaluator", "taylor:171"),
    ("scan", "--resolution", "3", "--evaluator", "taylor:99999"),
    ("cut", "--slope", "1", "--range=0:0.01", "--samples", "3", "--evaluator",
     "taylor:" + "9" * 5000),
])
def test_taylor_order_above_170_is_a_config_error(tmp_path, capsys, command):
    """K! overflows a double past K = 170: such an order exits 1 before any
    moment table is built, with one line on stderr."""
    assert run(*command, "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("chordscan: 'taylor:") and "above 170" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_out_of_memory_is_a_config_error(tmp_path, monkeypatch, capsys):
    """A grid too large to allocate exits 1 with one line, not a traceback:
    the sizes asked for are at fault. No array is allocated here."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (10001, 20001)")

    monkeypatch.setattr(cli, "scan_grid", refuse)
    assert run("scan", "--resolution", "20001", "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert err == ("chordscan: out of memory: Unable to allocate 2.98 GiB for an array "
                   "with shape (10001, 20001)\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [
    ("scan", "--resolution", "5", "--region=-0.5:0.5"),
    ("cut", "--slope", "0.8", "--samples", "4", "--range", "0:0.5"),
])
def test_numerical_failure_exits_3_without_traceback(tmp_path, monkeypatch, capsys, command):
    """A broken guard (here |chi| <= 1 with its slack forced negative) is exit code 3."""
    monkeypatch.setattr("chordscan.exact.MODULUS_SLACK", -1.0)
    assert run(*command, "--out", str(tmp_path / "x.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith("chordscan: numerical failure:") and "exceeds 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
