"""Command-line driver: grid scans, cuts, blind-spot reports, verification.

Scans and cuts write CSV through one writer, ``_write_csv``, plus a JSON
sidecar echoing the full configuration; the blind-spot command and the
verifier write JSON reports. Every number in a CSV is the bytes of
``"%.17g" % x`` (doubles round-trip exactly, so identical configurations give
bit-identical files). The writer formats whole columns with numpy,
CSV_BLOCK_ROWS rows at a time: a fast path takes the 17 digits of each finite
value in FAST_RANGE from an exact double-double product, a zero is "0" or
"-0", and nan, inf, values outside FAST_RANGE and near-ties at the 17th
digit fall back to ``"%.17g"`` itself, as do a scan's axis columns, once per
axis value.
Wall-clock timings appear only in JSON, under a key that marks them as
outside the determinism guarantee.

Options may come from ``KEY=VALUE`` lines of the command's own keys in a
config file (``--config``); explicit flags win over the file, and the
sidecar's ``config`` block re-parses as such a file. Exit codes: 0 success, 1
configuration or parameter error, 2 failed verification, 3 numerical failure
(non-convergence or a result that breaks a property it must have, such as
|chi| <= 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .blindspots import find_blind_spots, nodal_contours
from .core import FLAGS_BY_CODE
from .curves import CurveSpec, InvalidStateError
from .evaluators import EVALUATOR_NAMES, make_evaluator
from .gridscan import axis, scan_grid
from .quadrature import ConvergenceError, NumericalError
from .smallchord import closest_blind_spot_estimate, state_moments

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ACCEPTANCE = 2
EXIT_NONCONVERGED = 3


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"interval {text!r} must be LO:HI")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    if not hi > lo:
        raise ValueError(f"interval {text!r} must have LO < HI")
    return lo, hi


def _parse_direction(text: str) -> tuple[float, float]:
    parts = [_finite(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"direction {text!r} must be DP,DQ")
    return tuple(parts)


# Every option of scan, cut and blindspots, declared once: key -> (converter,
# default as config-file text or None for no default, help). The argparse
# flags, the --config keys and the sidecar's config echo all come from here.
_OPTIONS = {
    "n": (int, "5", "quantum number"),
    "hbar": (float, "0.1", "action scale"),
    **{f"alpha{k}": (float, v, f"H(p) coefficient of p^{k}")
       for k, v in enumerate(("0", "1", "1", "1"))},
    "t": (float, "0.1", "shear evolution time"),
    "evaluator": (str, "exact", f"one of {', '.join(EVALUATOR_NAMES)}; taylor "
                                "takes an order suffix, e.g. taylor:4"),
    "out": (str, None, "output file (JSON sidecar for CSV outputs)"),
    # wide enough to contain the longest chord (the diameter caustic) of the
    # default state with room to spare
    "region": (_parse_interval, "-2.3:2.3", "square chord region LO:HI, both axes"),
    "resolution": (int, "161", "grid points per axis"),
    "slope": (_finite, None, "cut xi_p = SLOPE * xi_q"),
    "direction": (_parse_direction, None, "cut along the direction DP,DQ"),
    "range": (_parse_interval, "0:2.3", "arc-length range LO:HI along the ray"),
    "samples": (int, "401", "sample count"),
    "tol": (float, "1e-8", "|chi| convergence target"),
}

_STATE_KEYS = ("n", "hbar", "alpha0", "alpha1", "alpha2", "alpha3", "t")

# The options of each command: its flags besides --config and --out, and the
# keys its sidecar echoes (out is not echoed, so a rerun from the echo writes
# wherever its own --out says).
_COMMAND_KEYS = {
    "scan": _STATE_KEYS + ("evaluator", "region", "resolution"),
    "cut": _STATE_KEYS + ("evaluator", "slope", "direction", "range", "samples"),
    "blindspots": _STATE_KEYS + ("evaluator", "region", "resolution", "tol"),
}


def load_config(path: str, command: str) -> dict:
    """Read KEY=VALUE lines of ``command``'s options; '#' starts a comment,
    blank lines are skipped, and a key the command does not take is an error."""
    keys = _COMMAND_KEYS[command] + ("out",)
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        values[key] = _OPTIONS[key][0](value.strip())
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Resolve options: explicit flags beat config-file values beat defaults.
    Every command that merges options writes a file, so ``out`` is required."""
    merged = load_config(args.config, args.command) if args.config else {}
    for key, (convert, default, _) in _OPTIONS.items():
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
        elif default is not None:
            merged.setdefault(key, convert(default))
    if "out" not in merged:
        raise ValueError(f"{args.command} needs --out FILE")
    return merged


def _state(opt: dict) -> CurveSpec:
    return CurveSpec(n=opt["n"], hbar=opt["hbar"], t=opt["t"],
                     alpha=(opt["alpha0"], opt["alpha1"],
                            opt["alpha2"], opt["alpha3"]))


def _config_echo(opt: dict, command: str) -> dict:
    """Canonical config block: every option of the command that is set, as
    KEY=VALUE text that re-parses to the same value."""
    echo = {}
    for key in _COMMAND_KEYS[command]:
        v = opt.get(key)
        if isinstance(v, tuple):
            sep = ":" if _OPTIONS[key][0] is _parse_interval else ","
            echo[key] = sep.join(f"{x:.17g}" for x in v)
        elif isinstance(v, float):
            echo[key] = f"{v:.17g}"
        elif v is not None:
            echo[key] = str(v)
    return echo


def _write_report(path: Path, command: str, opt: dict, elapsed: float,
                  fields: dict) -> None:
    """The JSON a command writes: its own fields plus the command, version,
    config echo and wall time that every sidecar and report carries."""
    _write_json(path, {"command": command, "version": __version__,
                       "config": _config_echo(opt, command),
                       "elapsed_seconds_nondeterministic": elapsed, **fields})


# -- CSV -------------------------------------------------------------------------
# Every number is written as "%.17g" writes it. CPython's routine costs about
# 1 us a float past 14 digits (its bignum path), so a column is formatted in
# bulk: for finite FAST_RANGE values the 17 digits round(|x| 10^(16-E)) come
# from an exact (Dekker) product with a double-double 10^k, whose error is
# below 1e-14 of the last digit, and the %g layout is put together from masks
# and text picked from small tables. A zero is "0" or "-0", as "%.17g" writes
# it (Im chi is 0.0 wherever chi is real by symmetry). Nan, inf, values
# outside FAST_RANGE and rounding fractions within TIE_MARGIN of one half
# (exact ties occur, e.g. 2251799813685247.75) go to "%.17g" itself.

CSV_BLOCK_ROWS = 4096
FAST_RANGE = (1e-280, 1e280)
TIE_MARGIN = 1e-9

_FLAG_BYTES = np.array([FLAGS_BY_CODE[code].value for code in range(len(FLAGS_BY_CODE))],
                       dtype="S")
_K_MIN, _K_MAX = -265, 297  # 10^(16-E) for every E of FAST_RANGE, one step to spare
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_E_MIN = -330  # below the least exponent of a double; the exponent table starts here
# a formatted float's bytes: prefix, digits before the point, point, digits
# after it, exponent; the longest "%.17g" text has 24
_CELL = 6 + 17 + 1 + 16 + 5
_ZERO_TEXT = np.array([b"0", b"-0"], dtype=f"S{_CELL}").view(np.uint8).reshape(2, _CELL)


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


@functools.cache
def _tables():
    """Built on first use.
    - 10^k for k in [_K_MIN, _K_MAX] as double-doubles high + low (high the
      exact rational rounded once, low the exact remainder rounded once) with
      the split halves of high, one row per k;
    - the text and trailing-zero count of every 4-digit group;
    - the prefix of the text, "-" and "0.000" cut to the leading zeros of
      positional E = -1 ... -4, by (negative, zeros + 1 or 0);
    - the exponent text "e-05", "e+123", by E - _E_MIN, and a last row of NUL;
    - byte masks of the digits before the point, by their count, and after it,
      by the point's position and the count of digits shown."""
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p, q = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = p / q  # int / int rounds correctly
        num, den = h.as_integer_ratio()
        high.append(h)
        low.append((p * den - num * q) / (q * den))
    high = np.array(high)
    powers = np.column_stack([high, low, *_split(high)])
    group = np.arange(10000)
    text = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trailing = sum((group % p == 0).astype(np.int64) for p in (10, 100, 1000, 10000))
    prefix = np.array([sign + lead for sign in (b"", b"-")
                       for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")], dtype="S6")
    exponent = np.array([b"e%+03d" % e for e in range(_E_MIN, -_E_MIN + 1)] + [b""], dtype="S5")
    place = np.arange(17)
    before = np.where(place < np.arange(18)[:, None], 255, 0).astype(np.uint8)
    point, shown = np.divmod(np.arange(18 * 18), 18)
    after = np.where((place[1:] >= point[:, None]) & (place[1:] < shown[:, None]),
                     255, 0).astype(np.uint8)
    return (powers, text.view(np.uint32).ravel(), trailing,
            prefix.view(np.uint8).reshape(-1, 6), exponent.view(np.uint8).reshape(-1, 5),
            before, after)


def _scaled(a, e, powers):
    """a 10^(16-e) as an unevaluated sum high + low (Dekker's exact product
    with the table's high part plus a times its low part)."""
    high, low, high_h, high_l = powers.take(16 - e - _K_MIN, axis=0).T
    a_h, a_l = _split(a)
    p = a * high
    return p, ((a_h * high_h - p) + a_h * high_l + a_l * high_h) + a_l * high_l + a * low


def _format_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % v`` of each float of ``x`` into the rows of ``out``
    (x.size by _CELL bytes), NUL wherever the text has no byte."""
    powers, group_text, group_trailing, prefix, exponent, before, after = _tables()
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    fast = (a >= FAST_RANGE[0]) & (a <= FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    high, low = _scaled(a, e, powers)
    # log10 can miss a power of ten by one: step e until 1e16 <= high + low < 1e17
    step = (((high > 1e17) | ((high == 1e17) & (low >= 0))).astype(np.int64)
            - ((high < 1e16) | ((high == 1e16) & (low < 0))))
    if step.any():
        e += step
        high, low = _scaled(a, e, powers)
    whole = np.floor(low)
    frac = low - whole
    digits = high.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) >= TIE_MARGIN) & (digits >= 10**16) & (digits <= 10**17)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry

    groups = np.empty((x.size, 5), dtype=np.int64)  # 20 digits, the first three zero
    for j in range(4, -1, -1):
        quotient = digits // 10000
        groups[:, j] = digits - 10000 * quotient
        digits = quotient
    text = group_text.take(groups).view(np.uint8).reshape(x.size, 20)[:, 3:]
    trailing = group_trailing.take(groups)  # 4 for a group of zeros
    zeros = trailing[:, 0]  # the first group is never 0
    for j in range(1, 5):
        zeros = np.where(trailing[:, j] == 4, zeros + 4, trailing[:, j])
    m = 17 - zeros
    # %g: positional for -4 <= E < 17 with the point after digit E + 1 (none for
    # E < 0, whose "0.000" is in the prefix), scientific with the point after
    # digit 1 otherwise; trailing zeros go, those of the integer part stay
    sci = (e < -4) | (e > 16)
    point = np.where(sci, 1, np.where(e < 0, 17, e + 1))
    shown = np.where(sci | (e < 0), m, np.maximum(m, e + 1))
    lead = np.where(sci | (e >= 0), 0, -e)
    out[:, :6] = prefix.take((x < 0) * 5 + lead, axis=0)
    np.bitwise_and(text, before.take(np.minimum(point, shown), axis=0), out=out[:, 6:23])
    out[:, 23] = np.where(shown > point, ord("."), 0)
    np.bitwise_and(text[:, 1:], after.take(point * 18 + shown, axis=0), out=out[:, 24:40])
    out[:, 40:] = exponent.take(np.where(sci, e - _E_MIN, -1), axis=0)

    zero = np.flatnonzero(x == 0.0)
    out[zero] = _ZERO_TEXT.take(np.signbit(x[zero]).view(np.uint8), axis=0)
    slow = np.flatnonzero(~fast & (x != 0.0))
    if slow.size:
        slow_text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype=f"S{_CELL}")
        out[slow] = slow_text.view(np.uint8).reshape(slow.size, _CELL)


def _abs2(values: np.ndarray) -> np.ndarray:
    """|z|^2 as hypot(re, im) ** 2 (np.abs of a complex differs from hypot in the last bit)."""
    return np.hypot(values.real, values.imag) ** 2


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Header line, then one row per entry of the equal-length columns: a float
    column as ``"%.17g"`` writes it, a bytes column as its text. Rows are
    formatted and written CSV_BLOCK_ROWS at a time."""
    widths = [_CELL if c.dtype.kind == "f" else c.itemsize for c in columns]
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            table = np.empty((len(block[0]), sum(widths) + len(widths)), dtype=np.uint8)
            at = 0
            for c, width in zip(block, widths):
                if c.dtype.kind == "f":
                    _format_floats(c, table[:, at:at + width])
                else:
                    table[:, at:at + width] = c.view(np.uint8).reshape(-1, width)
                table[:, at + width] = ord(",")
                at += width + 1
            table[:, -1] = ord("\n")
            # NUL pads every cell to its column's width and never occurs in the text
            fh.write(table[table != 0].tobytes())


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_scan(args) -> int:
    opt = _merge(args)
    out = Path(opt["out"])
    lo, hi = opt["region"]
    xp = xq = axis(lo, hi, opt["resolution"])
    evaluator = make_evaluator(opt["evaluator"], _state(opt))
    started = time.perf_counter()
    grid = scan_grid(evaluator, xp, xq)
    elapsed = time.perf_counter() - started

    values = grid.values.ravel()
    # the axis columns repeat the axis's values: each is formatted once
    ticks = np.array([b"%.17g" % v for v in xp.tolist()])
    _write_csv(out, ["xi_p", "xi_q", "re", "im", "abs2", "phase", "flag"], [
        np.repeat(ticks, xq.size), np.tile(ticks, xp.size), values.real, values.imag,
        _abs2(values), np.angle(values), _FLAG_BYTES[grid.flags.ravel()]])
    _write_report(out.with_suffix(".json"), "scan", opt, elapsed, {
        "evaluator": evaluator.name,
        "flag_counts": {f.value: c for f, c in grid.flag_counts().items()},
        "rows": int(xp.size * xq.size),
    })
    print(f"scan: {xp.size} x {xq.size} chords with {evaluator.name} -> "
          f"{out} (+ {out.with_suffix('.json').name}) in {elapsed:.1f}s")
    return EXIT_OK


def _cut_direction(opt: dict) -> np.ndarray:
    if "direction" in opt:
        d = np.asarray(opt["direction"], dtype=float)
    elif "slope" in opt:
        d = np.array([opt["slope"], 1.0])
    else:
        raise ValueError("cut needs --direction DP,DQ or --slope M (xi_p = M xi_q)")
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0.0:
        raise ValueError("cut direction must be nonzero")
    return d / norm


def cmd_cut(args) -> int:
    opt = _merge(args)
    out = Path(opt["out"])
    d = _cut_direction(opt)
    names = [name.strip() for name in opt["evaluator"].split(",")]
    state = _state(opt)
    evaluators = [make_evaluator(name, state) for name in names]
    lo, hi = opt["range"]
    if opt["samples"] < 1:
        raise ValueError("cut needs samples >= 1")
    ss = np.linspace(lo, hi, opt["samples"])
    started = time.perf_counter()
    outputs = [ev.evaluate(ss * d[0], ss * d[1]) for ev in evaluators]
    elapsed = time.perf_counter() - started

    header = ["s", "xi_p", "xi_q"]
    columns = [ss, ss * d[0], ss * d[1]]
    for ev, (values, flags) in zip(evaluators, outputs):
        tag = _safe(ev.name)
        header += [f"{tag}_re", f"{tag}_im", f"{tag}_abs2", f"{tag}_flag"]
        columns += [values.real, values.imag, _abs2(values), _FLAG_BYTES[flags]]
    _write_csv(out, header, columns)
    _write_report(out.with_suffix(".json"), "cut", opt, elapsed, {
        "direction": [float(d[0]), float(d[1])],
        "evaluators": [ev.name for ev in evaluators],
        "rows": int(ss.size),
    })
    print(f"cut: {ss.size} chords along ({d[0]:.4f}, {d[1]:.4f}) with "
          f"{', '.join(ev.name for ev in evaluators)} -> {out} in {elapsed:.1f}s")
    return EXIT_OK


def cmd_blindspots(args) -> int:
    """Moments, ellipse estimate, and located zeros, as a JSON report.

    A symmetric state (vanishing mean) has nodal circles instead of isolated
    zeros; that is reported as a structured degenerate outcome, not an error.
    """
    opt = _merge(args)
    out = Path(opt["out"])
    if not (math.isfinite(opt["tol"]) and opt["tol"] > 0.0):
        raise ValueError(f"tol must be finite and positive, got {opt['tol']!r}")
    state = _state(opt)
    evaluator = make_evaluator(opt["evaluator"], state)
    # the moments are the state's own, in closed form, whatever the evaluator;
    # the stationary-phase sums are singular at the origin, so for them the
    # Newton polish runs on the oracle
    pointlike = evaluator if evaluator.name.split(":")[0] in (
        "exact", "small", "semiclassical", "taylor") else make_evaluator("exact", state)
    lo, hi = opt["region"]
    grid_axis = axis(lo, hi, opt["resolution"])

    started = time.perf_counter()
    grid = scan_grid(evaluator, grid_axis, grid_axis)
    moments = state_moments(state)
    estimate = closest_blind_spot_estimate(moments, state.hbar)
    report = {
        "moments": {
            "mean_p": moments.mean.p, "mean_q": moments.mean.q,
            "p2": moments.p2, "q2": moments.q2, "pq": moments.pq,
        },
        "ellipse": {
            "matrix": [[estimate.matrix[0, 0], estimate.matrix[0, 1]],
                       [estimate.matrix[1, 0], estimate.matrix[1, 1]]],
            "level": estimate.level,
        },
        "degenerate": estimate.degenerate,
        "scan_evaluator": evaluator.name,
        "polish_evaluator": pointlike.name,
    }
    if estimate.degenerate:
        # zeros form whole circles; report their radii instead of points
        nodal = nodal_contours(grid, "real")
        report["nodal_radii"] = sorted(
            float(np.mean(np.hypot(c.points[:, 0], c.points[:, 1])))
            for c in nodal.curves if c.closed)
        report["estimated_spots"] = []
        report["located_spots"] = []
    else:
        search = find_blind_spots(pointlike, grid, tol=opt["tol"])
        report["estimated_spots"] = [[s.xi_p, s.xi_q] for s in estimate.spots]
        report["estimate_radius"] = estimate.radius
        report["located_spots"] = [{
            "xi_p": s.chord.xi_p, "xi_q": s.chord.xi_q, "radius": s.radius,
            "residual": abs(s.value), "iterations": s.iterations,
        } for s in search.spots]
        report["n_seeds"] = search.n_seeds
        if search.spots:
            report["nearest_radius"] = search.nearest().radius
            report["estimate_over_nearest"] = (estimate.radius
                                               / search.nearest().radius)
    _write_report(out, "blindspots", opt, time.perf_counter() - started, report)
    kind = ("degenerate (nodal circles)" if estimate.degenerate
            else f"{len(report['located_spots'])} spots")
    print(f"blindspots: {kind} -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(report=print)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    if getattr(args, "out", None):
        _write_json(Path(args.out), {
            "command": "verify", "version": __version__,
            "passed": not failed,
            "criteria": [{
                # criteria measure with numpy, whose bool does not serialize
                "name": r.name, "passed": bool(r.passed),
                # standard JSON has no Infinity or NaN: such a measurement is null
                "measured": float(r.measured) if math.isfinite(r.measured) else None,
                "tolerance": float(r.tolerance),
                "detail": r.detail,
                "elapsed_seconds_nondeterministic": r.elapsed_seconds,
            } for r in results],
        })
    return EXIT_OK if not failed else EXIT_ACCEPTANCE


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chordscan",
                     description="Chord-function scans of Bohr-quantized states")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for command, func, summary in (
            ("scan", cmd_scan, "chord-function field on a grid -> CSV"),
            ("cut", cmd_cut, "chord function along a ray -> CSV "
                             "(comma-separated evaluators for comparisons)"),
            ("blindspots", cmd_blindspots,
             "moments, ellipse estimate, zeros -> JSON report")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="KEY=VALUE file; flags override it")
        for key in _COMMAND_KEYS[command] + ("out",):
            convert, default, text = _OPTIONS[key]
            p.add_argument(f"--{key}", type=convert, help=text if default is None
                           else f"{text} (default {default})")
        p.set_defaults(func=func)

    verify = sub.add_parser("verify", help="run the acceptance battery")
    verify.add_argument("--out", help="also write the table as JSON")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidStateError, ValueError, OSError) as exc:
        print(f"chordscan: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"chordscan: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except NumericalError as exc:
        print(f"chordscan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
